"""evprofiler benchmark runner.

    python3 benchmarks/run.py --workload featurize-corpus --seed 1 \
        --seconds 10 --trace 0

Builds the workload's inputs from ``--seed`` (set-up, timed several times),
then runs the workload's CLI chain in this process, repeating it until
``--seconds`` have passed. A speed probe (``speedprobe.py``) samples the host's
speed during each untraced iteration, which gives ``cpu_norm``,
the iteration's CPU time in runs of a reference kernel. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs one untraced and one traced
iteration and reports the per-layer metrics. Every iteration's outputs are
checked and hashed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names come
from BENCHMARK.json at the repository root. The lines before it print every
metric by name with its unit, and the machine facts. A full record, and the
spans of a traced run, go to ``<work-dir>/<workload>-seed<N>-trace<T>/``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speedprobe
import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference_digests.json"
SETUP_REPEATS = 5
# set to 1 before numpy is first imported, so BLAS runs one thread
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# str hashing is randomized per process, and with it dict and set layout;
# a fixed seed keeps that from moving cpu_norm by several percent run to run
HASH_SEED = "0"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="'tiny' runs the same paths on small inputs (smoke test)")
    p.add_argument("--work-dir", default=str(ROOT / ".bench_runs"))
    p.add_argument("--record", action="store_true",
                   help="store this run's output digests as the reference "
                        "for its workload and seed")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# machine facts

def _git_commit():
    """HEAD of the repository rooted at ROOT; None outside one."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "evprofiler").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_facts() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": " ".join(str(blas.get(k, "")) for k in ("name", "version")).strip()
                or None,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# measurement

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _iteration(wl, inputs: Path, out: Path, seed: int, tracer=None) -> dict:
    """One pass of the workload: probed when untraced, traced otherwise.

    ``wall_s`` and ``cpu_s`` leave out the probe's own samples.
    """
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    probe = speedprobe.SpeedProbe() if tracer is None else None
    active = probe if probe is not None else tracer.instrument()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    with active:
        codes = wl.run(inputs, out, seed)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    outcome = wl.check(out, codes)
    digests = {p.name: _sha256(p) for p in wl.outputs(out) if p.exists()}
    result = {"wall_s": wall, "cpu_s": cpu, "outcome": outcome,
              "digests": digests}
    if probe is not None:
        result.update(wall_s=wall - probe.overhead_s, cpu_s=cpu - probe.overhead_s,
                      cpu_norm=probe.cost(), kernel_s=probe.kernel_s,
                      probe_samples=len(probe.samples))
    return result


def _load_reference() -> dict:
    if not REFERENCE.exists():
        return {}
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _store_reference(workload: str, seed: int, digests: dict) -> None:
    doc = _load_reference()
    doc.setdefault(workload, {})[str(seed)] = digests
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run(args) -> dict:
    wl = workloads.get(args.workload, args.size)
    run_dir = Path(args.work_dir) / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    inputs, out = run_dir / "inputs", run_dir / "out"
    inputs.mkdir(parents=True)

    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        start = time.perf_counter()
        wl.setup(inputs, args.seed)
        setup_times.append(time.perf_counter() - start)
    setup_rss = _peak_rss_mb()

    iterations = []
    start = time.perf_counter()
    while True:
        iterations.append(_iteration(wl, inputs, out, args.seed))
        if args.trace or time.perf_counter() - start >= args.seconds:
            break
    peak_rss = _peak_rss_mb()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        traced = _iteration(wl, inputs, out, args.seed, tracer)
        tracer.write_spans(str(run_dir / "spans.jsonl"))
        iterations.append(traced)

    problems = [p for it in iterations for p in it["outcome"].problems]
    digests = iterations[0]["digests"]
    if any(it["digests"] != digests for it in iterations[1:]):
        problems.append("outputs differ between iterations of one run")
    reference = None
    if args.size == "full":
        if args.record:
            _store_reference(args.workload, args.seed, digests)
        reference = _load_reference().get(args.workload, {}).get(str(args.seed))
    outputs_match = None if reference is None else int(reference == digests)
    if outputs_match == 0:
        problems.append("outputs differ from the reference digests")

    attempted = sum(it["outcome"].attempted for it in iterations)
    failed = sum(it["outcome"].failed for it in iterations)
    timed = iterations[:-1] if args.trace else iterations
    wall = statistics.median(it["wall_s"] for it in timed)
    stats = iterations[0]["outcome"].stats

    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "cpu_norm": (statistics.median(it["cpu_norm"] for it in timed), "ref"),
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(it["cpu_s"] for it in timed), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "setup_peak_rss_mb": (setup_rss, "MB"),
        "error_rate": (failed / attempted, "ratio"),
        "outputs_match": (outputs_match, "bool"),
    }
    if "sessions" in stats:
        metrics["sessions_per_s"] = (stats["sessions"] / wall, "1/s")
    if "cells" in stats:
        metrics["cells_per_min"] = (60.0 * stats["cells"] / wall, "1/min")
    for key in ("mean_accuracy", "mean_positive_f1"):
        if key in stats:
            metrics[key] = (stats[key], "ratio")

    self_times = {}
    if tracer is not None:
        metrics.update(tracing.layer_metrics(tracer))
        metrics["trace.overhead_ratio"] = (traced["wall_s"] / wall, "ratio")
        self_times = dict(sorted(tracer.self_times().items(),
                                 key=lambda kv: -kv[1]))

    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds,
        "iterations": len(timed), "setup_runs": len(setup_times),
        "iteration_wall_s": [it["wall_s"] for it in timed],
        "iteration_cpu_norm": [it["cpu_norm"] for it in timed],
        "iteration_kernel_s": [it["kernel_s"] for it in timed],
        "setup_wall_s": setup_times,
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed,
        "metrics": metrics, "self_times": self_times, "digests": digests,
        "machine": machine_facts(), "run_dir": str(run_dir),
    }


# ---------------------------------------------------------------------------
# reporting

def _benchmark_metric_names(trace: int) -> list[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(result: dict) -> dict:
    machine = result["machine"]
    print("machine: " + " ".join(f"{k}={json.dumps(v)}" for k, v in machine.items()))
    print(f"workload {result['workload']} seed {result['seed']} "
          f"size {result['size']} trace {result['trace']}: "
          f"{result['iterations']} timed iteration(s), "
          f"{result['setup_runs']} set-up run(s)")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<34} {_fmt(value):>14} {unit}")
    if result["self_times"]:
        total = sum(result["self_times"].values())
        print(f"self time by span (traced iteration, {total:.4f} s):")
        for name, seconds in result["self_times"].items():
            print(f"  {name:<34} {seconds:>14.6f} s {100 * seconds / total:6.2f} %")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    print(f"record: {result['run_dir']}/result.json")

    names = _benchmark_metric_names(result["trace"])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n][0],
                        "unit": result["metrics"][n][1]} for n in names},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "evprofiler" / "__init__.py").is_file():
        print(f"error: evprofiler sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import evprofiler.cli  # noqa: F401  (import cost stays out of the first iteration)
    result = run(args)
    line = report(result)
    with open(Path(result["run_dir"]) / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
