"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest benchmarks/test_bench.py -q

Runs every workload untraced and traced through ``run.py --size tiny``. It
checks that each run prints every metric BENCHMARK.json and the benchmark's
README name, and that traced and untraced runs write byte-identical outputs.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# end-to-end metrics printed in the table besides those BENCHMARK.json names
PRINTED = {
    "featurize-corpus": ["wall_s", "cpu_s", "sessions_per_s", "error_rate",
                         "outputs_match"],
    "multiclass-forest": ["wall_s", "cpu_s", "cells_per_min", "mean_accuracy",
                          "error_rate", "outputs_match"],
    "binary-knn": ["wall_s", "cpu_s", "cells_per_min", "mean_accuracy",
                   "mean_positive_f1", "error_rate", "outputs_match"],
}
TABLE_ROW = re.compile(r"^  (\S+)\s+(\S+) (\S+)$")

sys.path.insert(0, str(BENCH_DIR))
import speedprobe  # noqa: E402
import tracer as tracing  # noqa: E402


def _run(workload: str, trace: int, work_dir: Path, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--size", "tiny", "--work-dir", str(work_dir)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    work_dir = tmp_path_factory.mktemp("bench")
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = _run(workload, trace, work_dir)
            assert done.returncode == 0, done.stderr
            lines = done.stdout.splitlines()
            result = json.loads(
                (work_dir / f"{workload}-seed3-trace{trace}" / "result.json")
                .read_text(encoding="utf-8"))
            out[workload, trace] = (lines, json.loads(lines[-1]), result)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_last_line_follows_the_contract(runs, workload, trace):
    _, line, _ = runs[workload, trace]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in group]
    for metric in group:
        value = line["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_printed_with_its_unit(runs, workload):
    for trace, names in ((0, [m["name"] for m in SPEC["end_to_end"]]
                          + PRINTED[workload]),
                         (1, [m["name"] for m in SPEC["per_layer"]])):
        lines, _, _ = runs[workload, trace]
        rows = {m.group(1): m.group(3) for m in map(TABLE_ROW.match, lines) if m}
        assert not set(names) - set(rows), (trace, set(names) - set(rows))
    lines, _, result = runs[workload, 1]
    assert "other" in result["self_times"]
    assert any(line.startswith("machine: cores=") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_outputs_are_identical(runs, workload):
    digests = [runs[workload, trace][2]["digests"] for trace in (0, 1)]
    assert digests[0] and digests[0] == digests[1]


def test_self_times_add_up_to_the_traced_run(runs):
    _, _, result = runs["featurize-corpus", 1]
    spans = [json.loads(line) for line in
             (Path(result["run_dir"]) / "spans.jsonl").read_text().splitlines()]
    root = [s for s in spans if s["parent"] < 0]
    assert [s["name"] for s in root] == [tracing.ROOT_SPAN]
    total = root[0]["end"] - root[0]["start"]
    assert sum(result["self_times"].values()) == pytest.approx(total, rel=1e-6)


def test_probe_counts_a_block_in_kernel_runs():
    with speedprobe.SpeedProbe(interval=0.01) as probe:
        for _ in range(300):
            speedprobe.reference_kernel()
    assert len(probe.samples) >= 5
    assert probe.cost() == pytest.approx(300, rel=0.3)


def test_instrumentation_is_removed_afterwards():
    sys.path.insert(0, str(ROOT / "src"))
    from evprofiler import cli, experiments, learn

    before = (learn.predict, experiments.predict, cli.main)
    tracer = tracing.Tracer()
    with tracer.instrument():
        assert experiments.predict is learn.predict is not before[0]
    assert (learn.predict, experiments.predict, cli.main) == before


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("featurize-corpus", 0, tmp_path / "runs", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
