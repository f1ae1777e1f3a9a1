"""Benchmark workloads: synthetic inputs built in set-up, then the CLI path.

Each workload builds its inputs from the seed with ``synth.generate_corpus``
(set-up), then drives ``evprofiler.cli.main`` in-process with
``--workers 1`` (one iteration), and checks what the iteration wrote.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Outcome:
    """What one iteration did, read back from its outputs."""

    attempted: int
    failed: int
    problems: list[str]
    stats: dict


def _main(argv: list[str]) -> int:
    # looked up on each call, so a traced cli.main is the one that runs
    from evprofiler import cli

    return cli.main(argv)


def _read_manifest_counts(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["counts"]


def _data_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


@dataclass(frozen=True)
class FeaturizeCorpus:
    """``ingest -> extract -> featurize`` on a well-separated corpus."""

    n_evs: int
    sessions_per_ev: int
    truncate_prob: float

    def setup(self, inputs: Path, seed: int) -> None:
        from evprofiler.ingest import write_sessions
        from evprofiler.synth import SynthOptions, generate_corpus

        corpus = generate_corpus(
            self.n_evs, self.sessions_per_ev, seed,
            SynthOptions("well-separated", truncate_prob=self.truncate_prob))
        write_sessions(corpus, str(inputs / "raw.jsonl"), "acn-json")

    def run(self, inputs: Path, out: Path, seed: int) -> list[int]:
        common = ["--seed", str(seed), "--workers", "1"]
        stages = {name: out / name for name in ("ingest", "extract", "featurize")}
        for path in stages.values():
            path.mkdir(parents=True, exist_ok=True)
        return [
            _main(["ingest", "--input", str(inputs / "raw.jsonl"),
                   "--format", "acn-json",
                   "--out", str(stages["ingest"] / "corpus.jsonl"), *common]),
            _main(["extract", "--sessions", str(stages["ingest"] / "corpus.jsonl"),
                   "--out", str(stages["extract"] / "segments.jsonl"),
                   "--rejects", str(stages["extract"] / "rejects.csv"), *common]),
            _main(["featurize", "--segments", str(stages["extract"] / "segments.jsonl"),
                   "--out", str(stages["featurize"] / "features.csv"), *common]),
        ]

    def outputs(self, out: Path) -> list[Path]:
        return [out / "featurize" / "features.csv", out / "extract" / "rejects.csv"]

    def check(self, out: Path, codes: list[int]) -> Outcome:
        failed = sum(1 for c in codes if c != 0)
        if failed:
            return Outcome(len(codes), failed, [f"CLI exit codes {codes}"], {})
        ingest = _read_manifest_counts(out / "ingest" / "manifest.json")["ingest"]
        extract = _read_manifest_counts(out / "extract" / "manifest.json")["extract"]
        featurize = _read_manifest_counts(out / "featurize" / "manifest.json")["featurize"]
        problems = []
        expected = self.n_evs * self.sessions_per_ev
        if ingest["parsed"] != expected:
            problems.append(f"ingest parsed {ingest['parsed']} of {expected} sessions")
        if extract["accepted"] + extract["rejected"] != ingest["kept"]:
            problems.append("extract accepted + rejected != ingest kept")
        if featurize["rows"] != extract["accepted"]:
            problems.append("featurize rows != extract accepted")
        if _data_rows(out / "featurize" / "features.csv") != extract["accepted"]:
            problems.append("feature CSV row count != extract accepted")
        if _data_rows(out / "extract" / "rejects.csv") != extract["rejected"]:
            problems.append("rejects CSV row count != extract rejected")
        return Outcome(len(codes), 0, problems, {"sessions": ingest["parsed"]})


@dataclass(frozen=True)
class CellSuite:
    """``experiment <mode> ... -> report`` on a featurized overlapping corpus."""

    n_evs: int
    sessions_per_ev: int
    experiment: tuple[str, ...]
    expected_cells: int

    def setup(self, inputs: Path, seed: int) -> None:
        from evprofiler.features import featurize_corpus, write_feature_csv
        from evprofiler.ingest import apply_primary_filters
        from evprofiler.synth import SynthOptions, generate_corpus

        corpus = generate_corpus(self.n_evs, self.sessions_per_ev, seed,
                                 SynthOptions("overlapping"))
        matrix, _ = featurize_corpus(apply_primary_filters(corpus))
        write_feature_csv(matrix, str(inputs / "features.csv"))

    def run(self, inputs: Path, out: Path, seed: int) -> list[int]:
        common = ["--seed", str(seed), "--workers", "1"]
        return [
            _main(["experiment", *self.experiment,
                   "--features", str(inputs / "features.csv"),
                   "--out", str(out), *common]),
            _main(["report", "--in", str(out), *common]),
        ]

    def outputs(self, out: Path) -> list[Path]:
        return sorted(p for p in out.iterdir() if p.suffix in (".csv", ".md"))

    def check(self, out: Path, codes: list[int]) -> Outcome:
        exit_failures = sum(1 for c in codes if c != 0)
        cells_path = out / "cells.csv"
        if not cells_path.exists():
            return Outcome(len(codes), max(exit_failures, 1),
                           [f"no cells.csv; CLI exit codes {codes}"], {})
        with open(cells_path, encoding="utf-8", newline="") as fh:
            cells = list(csv.DictReader(fh))
        ok = [c for c in cells if c["status"] == "ok"]
        failed = exit_failures + len(cells) - len(ok)
        problems = []
        if exit_failures:
            problems.append(f"CLI exit codes {codes}")
        if len(cells) != self.expected_cells:
            problems.append(f"{len(cells)} cells, expected {self.expected_cells}")
        if len(cells) != len(ok):
            problems.append(f"{len(cells) - len(ok)} failed cells")
        accuracy = [float(c["accuracy"]) for c in ok]
        positive = [float(c["positive_f1"]) for c in ok if c["positive_f1"]]
        if any(not 0.0 <= v <= 1.0 for v in accuracy + positive):
            problems.append("a score lies outside [0, 1]")
        stats = {"cells": len(cells)}
        if accuracy:
            stats["mean_accuracy"] = statistics.fmean(accuracy)
        if positive:
            stats["mean_positive_f1"] = statistics.fmean(positive)
        return Outcome(len(codes) + len(cells), failed, problems, stats)


def _workloads(size: str) -> dict[str, object]:
    if size == "full":
        return {
            "featurize-corpus": FeaturizeCorpus(40, 25, 0.1),
            "multiclass-forest": CellSuite(
                10, 20, ("multiclass", "--size", "complete", "--reps", "1"), 3),
            "binary-knn": CellSuite(
                12, 50, ("binary", "--classifiers", "knn", "--values", "1,3,5",
                         "--min-target", "40", "--reps", "1"), 36),
        }
    # tiny: the same paths at a size the smoke test runs in seconds
    return {
        "featurize-corpus": FeaturizeCorpus(3, 12, 0.1),
        "multiclass-forest": CellSuite(
            3, 10, ("multiclass", "--size", "complete", "--reps", "1"), 3),
        "binary-knn": CellSuite(
            7, 12, ("binary", "--classifiers", "knn", "--values", "1,3,5",
                    "--min-target", "10", "--reps", "1"), 21),
    }


SIZES = ("full", "tiny")
NAMES = tuple(_workloads("full"))


def get(name: str, size: str = "full"):
    return _workloads(size)[name]
