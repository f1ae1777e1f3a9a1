"""EV charging-session profiling toolkit.

Pipeline stages: ingest charging sessions, smooth the current signal,
split each session into its CV-phase tail and CC-phase delta series,
extract a fixed statistical feature catalog, and run classification
experiments (one-vs-all balancing sweeps, multi-class scaling,
distribution-shaped sub-sampling) with from-scratch classifiers.

Importing the package defaults ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
and ``MKL_NUM_THREADS`` to 1, before any of its modules imports numpy, so
each process runs one BLAS thread and ``experiment --workers`` is the only
parallelism; worker processes inherit the setting. A variable already set
keeps its value. BLAS reads these when numpy first loads, so a program
that imports numpy before evprofiler gets no effect from them.
"""

import os

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
