"""Host-speed probe: a fixed reference kernel sampled while a block runs.

The benchmark shares a few vCPUs of a host with other tenants, and the speed
of a vCPU drifts by tens of percent from one few-second window to the next.
``SpeedProbe`` measures that speed where the work runs: while its block is
active, a real-time interval timer interrupts the process every
``interval`` seconds, and the signal handler runs a fixed pure-Python kernel
of about a millisecond and records the CPU time it took. The CPU time the
block itself spends between two samples is divided by the local speed, the
median kernel time of the nearest ``WINDOW`` samples, and the quotients are
summed:

    cost = sum over gaps (block CPU seconds in the gap / local kernel seconds)

``cost`` is the block's CPU time in runs of the reference kernel. Drift that
slows the kernel and the program alike cancels out of it, also when the speed
changes within the block; CPU time, unlike wall time, also leaves out the time
the hypervisor runs another guest.
"""

from __future__ import annotations

import signal
import statistics
import time

KERNEL_LOOPS = 6000
WINDOW = 25


def reference_kernel() -> int:
    """Fixed interpreter work: arithmetic, a dict store, a list append.

    Its working set is a few KiB, so it measures the vCPU, not what the
    program left in the caches.
    """
    total = 0
    table = {}
    seen = []
    for i in range(KERNEL_LOOPS):
        total += i * i % 7
        table[i & 63] = total
        if i & 15 == 0:
            seen.append(total)
    return total + len(seen)


class SpeedProbe:
    """``with SpeedProbe() as probe:`` samples the kernel during the block."""

    def __init__(self, interval: float = 0.04):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []  # (start, CPU seconds)
        self._previous = None
        self._start = self._end = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.process_time()
        reference_kernel()
        self.samples.append((start, time.process_time() - start))

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.process_time()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._end = time.process_time()
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def overhead_s(self) -> float:
        """CPU seconds the samples themselves took."""
        return sum(d for _, d in self.samples)

    @property
    def kernel_s(self) -> float:
        """Median CPU seconds of one kernel run."""
        return statistics.median(d for _, d in self.samples)

    def cost(self) -> float:
        """The block's own CPU time in kernel runs; raises with no samples."""
        if not self.samples:
            raise ValueError("no probe samples; the block was too short")
        kernel = [d for _, d in self.samples]
        gaps = []  # (block CPU seconds, index of the sample that ends the gap)
        resume = self._start
        for i, (start, seconds) in enumerate(self.samples):
            gaps.append((start - resume, i))
            resume = start + seconds
        gaps.append((self._end - resume, len(kernel) - 1))
        total = 0.0
        for seconds, i in gaps:
            lo = max(0, min(i - WINDOW // 2, len(kernel) - WINDOW))
            total += seconds / statistics.median(kernel[lo:lo + WINDOW])
        return total
