"""Command-line entry point wiring synth -> ingest -> extract -> featurize ->
experiment -> report, with a config file and a reproducibility manifest.

Exit codes: 0 success, 1 domain error (typed message on stderr), 2 usage.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .config import (ConfigError, RunManifest, filter_params_from,
                     parse_config_file, tail_params_from)
from .experiments import (CellResult, DistributionParams,
                          ExperimentConfig, ExperimentReport, read_cells_csv,
                          run_binary_suite, run_multiclass_suite,
                          subsample_distribution, subsample_multiclass,
                          summarize_cells, write_cells_csv, write_summary_csv,
                          write_summary_md)
from .features import (extract_features, matrix_from_vectors, read_feature_csv,
                       write_feature_csv)
from .ingest import (TimeSeries, apply_primary_filters, parse_sessions,
                     write_sessions)
from .synth import SynthOptions, generate_corpus
from .tail import SegmentPair, segment_session

FAMILY_ALIASES = {"rf": "random-forest", "dt": "decision-tree", "knn": "knn",
                  "random-forest": "random-forest",
                  "decision-tree": "decision-tree"}


class DomainError(RuntimeError):
    pass


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    if not os.path.exists(path):
        raise DomainError(f"config file not found: {path}")
    return parse_config_file(path)


def _ensure_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)


# ---------------------------------------------------------------------------
# stage runners

def _cmd_synth(args, cfg: dict, manifest: RunManifest) -> None:
    options = SynthOptions(separation=args.separation,
                           truncate_prob=args.truncate_prob,
                           noise_sigma=args.noise_sigma)
    manifest.start("synth")
    corpus = generate_corpus(args.evs, args.sessions, args.seed, options)
    write_sessions(corpus, args.out, "acn-json")
    manifest.stop("synth")
    manifest.counts["synth"] = {"sessions": len(corpus), "evs": args.evs}


def _cmd_ingest(args, cfg: dict, manifest: RunManifest) -> None:
    manifest.add_input(args.input)
    manifest.start("ingest")
    corpus = parse_sessions(args.input, args.format)
    filtered = apply_primary_filters(corpus, args.min_points, args.min_sessions)
    write_sessions(filtered, args.out, "acn-json")
    manifest.stop("ingest")
    prov = corpus.provenance
    manifest.counts["ingest"] = {
        "parsed": len(corpus), "kept": len(filtered),
        "evs": len(filtered.labels()),
        "dropped_missing_field": prov.dropped_missing_field,
        "truncated_mismatched": prov.truncated_mismatched,
        "clamped_negative": prov.clamped_negative,
    }


def _segment_to_record(seg: SegmentPair) -> dict:
    return {"sessionID": seg.session_id, "evLabel": seg.ev_label,
            "tStart": seg.t_start, "tS": seg.t_s,
            "samplePeriodSec": seg.tail.sample_period,
            "tail": [float(v) for v in seg.tail.values],
            "delta": [float(v) for v in seg.delta.values]}


def _segment_from_record(rec: dict) -> SegmentPair:
    period = rec.get("samplePeriodSec", 1.0)
    return SegmentPair(rec["sessionID"], rec.get("evLabel"),
                       TimeSeries(np.array(rec["tail"]), period),
                       TimeSeries(np.array(rec["delta"]), period),
                       rec["tStart"], rec["tS"])


def _cmd_extract(args, cfg: dict, manifest: RunManifest) -> None:
    manifest.add_input(args.sessions)
    filter_params = filter_params_from(cfg)
    tail_params = tail_params_from(cfg)
    manifest.start("extract")
    corpus = parse_sessions(args.sessions, "acn-json")
    accepted, rejected = [], []
    for session in corpus.sessions:
        result = segment_session(session, filter_params, tail_params)
        if isinstance(result, SegmentPair):
            accepted.append(result)
        else:
            rejected.append((session.session_id, result.code, result.detail))
    with open(args.out, "w", encoding="utf-8") as fh:
        for seg in accepted:
            fh.write(json.dumps(_segment_to_record(seg)) + "\n")
    if args.rejects:
        with open(args.rejects, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("session_id", "code", "detail"))
            writer.writerows(rejected)
    manifest.stop("extract")
    manifest.counts["extract"] = {"accepted": len(accepted),
                                  "rejected": len(rejected)}


def _cmd_featurize(args, cfg: dict, manifest: RunManifest) -> None:
    manifest.add_input(args.segments)
    manifest.start("featurize")
    vectors = []
    with open(args.segments, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                vectors.append(extract_features(_segment_from_record(json.loads(line))))
    if not vectors:
        raise DomainError("no segments to featurize")
    matrix = matrix_from_vectors(vectors)
    write_feature_csv(matrix, args.out)
    manifest.stop("featurize")
    manifest.counts["featurize"] = {"rows": matrix.n_rows,
                                    "features": len(matrix.names)}


def _parse_families(raw: str) -> tuple[str, ...]:
    families = []
    for token in raw.split(","):
        token = token.strip()
        if token not in FAMILY_ALIASES:
            raise DomainError(f"unknown classifier {token!r}")
        families.append(FAMILY_ALIASES[token])
    return tuple(families)


def _write_report(report: ExperimentReport, out_dir: str,
                  manifest: RunManifest, stage: str) -> None:
    _ensure_dir(out_dir)
    write_cells_csv(report, os.path.join(out_dir, "cells.csv"))
    write_summary_csv(report, os.path.join(out_dir, "summary.csv"))
    write_summary_md(report, os.path.join(out_dir, "summary.md"))
    ok = sum(1 for c in report.cells if c.status == "ok")
    manifest.counts[stage] = {"cells": len(report.cells), "ok": ok,
                              "failed": len(report.cells) - ok}


def _cmd_experiment(args, cfg: dict, manifest: RunManifest) -> None:
    manifest.add_input(args.features)
    features = read_feature_csv(args.features)
    manifest.start("experiment")
    if args.mode == "binary":
        config = ExperimentConfig(
            suite="binary", families=_parse_families(args.classifiers),
            nof=args.nof, balance_mode=args.balance,
            balance_values=tuple(float(v) for v in args.values.split(",")),
            min_target_samples=args.min_target,
            repetitions=args.reps, master_seed=args.seed, workers=args.workers)
        report = run_binary_suite(config, features)
    elif args.mode == "multiclass":
        config = ExperimentConfig(
            suite="multiclass", families=_parse_families(args.classifiers),
            nof=args.nof, dataset_size=args.size,
            repetitions=args.reps, master_seed=args.seed, workers=args.workers)
        subset = subsample_multiclass(features, args.size,
                                      np.random.SeedSequence([args.seed, 0xD5]))
        report = run_multiclass_suite(config, subset)
    elif args.mode == "grid":
        reports = []
        for n_evs in (int(v) for v in args.evs.split(",")):
            for samples in (int(v) for v in args.samples.split(",")):
                config = ExperimentConfig(
                    suite="fixed-grid", families=_parse_families(args.classifier),
                    nof=args.nof, dataset_size=(n_evs, samples),
                    repetitions=args.reps, master_seed=args.seed,
                    workers=args.workers)
                subset = subsample_multiclass(
                    features, (n_evs, samples),
                    np.random.SeedSequence([args.seed, n_evs, samples]))
                reports.append(run_multiclass_suite(config, subset))
        cells = tuple(c for r in reports for c in r.cells)
        report = ExperimentReport("fixed-grid", cells, summarize_cells(cells))
    else:  # distribution
        params = DistributionParams(n_evs=args.n_evs, bins=args.bins,
                                    per_bin=args.per_bin)
        config = ExperimentConfig(
            suite="distribution", families=_parse_families(args.classifiers),
            nof=args.nof, distribution=args.shape, distribution_params=params,
            repetitions=args.reps, master_seed=args.seed, workers=args.workers)
        subset = subsample_distribution(features, args.shape, params,
                                        np.random.SeedSequence([args.seed, 0xD1]))
        report = run_multiclass_suite(config, subset)
    manifest.stop("experiment")
    _write_report(report, args.out, manifest, "experiment")


def _pivot_rows(cells: Sequence[CellResult], metric: str,
                dims: Sequence[str]) -> list[tuple]:
    rows = []
    for summary in summarize_cells(cells):
        if summary.metric != metric:
            continue
        if not all(d in summary.group for d in dims):
            continue
        rows.append(tuple(summary.group[d] for d in dims)
                    + (summary.classifier, summary.mean, summary.std))
    return sorted(rows, key=lambda r: tuple(str(v) for v in r))


def _write_pivot(path: str, header: Sequence[str], rows: Sequence[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _cmd_report(args, cfg: dict, manifest: RunManifest) -> None:
    cells_path = os.path.join(args.in_dir, "cells.csv")
    if not os.path.exists(cells_path):
        raise DomainError(f"missing cells.csv in {args.in_dir}")
    cells = read_cells_csv(cells_path)
    if not cells:
        raise DomainError("cells.csv is empty")
    manifest.add_input(cells_path)
    manifest.start("report")
    out = args.out or args.in_dir
    _ensure_dir(out)
    written = []
    rows = _pivot_rows(cells, "positive_f1", ["balance_mode", "balance_value"])
    if rows:
        path = os.path.join(out, "f1_vs_balance.csv")
        _write_pivot(path, ["balance_mode", "balance_value", "classifier",
                            "mean_f1", "std_f1"], rows)
        written.append(path)
    rows = _pivot_rows(cells, "accuracy", ["dataset", "n_classes"])
    if rows:
        path = os.path.join(out, "accuracy_vs_dataset.csv")
        _write_pivot(path, ["dataset", "n_classes", "classifier",
                            "mean_accuracy", "std_accuracy"], rows)
        written.append(path)
    rows = _pivot_rows(cells, "accuracy", ["n_evs", "samples_per_ev"])
    if rows:
        path = os.path.join(out, "accuracy_grid.csv")
        _write_pivot(path, ["n_evs", "samples_per_ev", "classifier",
                            "mean_accuracy", "std_accuracy"], rows)
        written.append(path)
    rows = _pivot_rows(cells, "accuracy", ["distribution"])
    if rows:
        path = os.path.join(out, "accuracy_vs_distribution.csv")
        _write_pivot(path, ["distribution", "classifier", "mean_accuracy",
                            "std_accuracy"], rows)
        written.append(path)
    report = ExperimentReport("report", tuple(cells), summarize_cells(cells))
    write_summary_md(report, os.path.join(out, "summary.md"))
    written.append(os.path.join(out, "summary.md"))
    manifest.stop("report")
    manifest.counts["report"] = {"pivots": len(written)}


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evprofiler",
        description="EV charging-session profiling toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="flat key=value config file")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--workers", type=int, default=1)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a labeled synthetic corpus")
    p.add_argument("--evs", type=int, required=True)
    p.add_argument("--sessions", type=int, required=True)
    p.add_argument("--separation", default="well-separated",
                   choices=["well-separated", "overlapping"])
    p.add_argument("--truncate-prob", type=float, default=0.0)
    p.add_argument("--noise-sigma", type=float, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("ingest", parents=[common],
                       help="parse and filter a charging-session corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--format", required=True, choices=["acn-json", "csv"])
    p.add_argument("--min-points", type=int, default=100)
    p.add_argument("--min-sessions", type=int, default=10)
    p.add_argument("--out", required=True)

    p = sub.add_parser("extract", parents=[common],
                       help="segment sessions into tail/delta pairs")
    p.add_argument("--sessions", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rejects", default=None)

    p = sub.add_parser("featurize", parents=[common],
                       help="compute the feature catalog over segments")
    p.add_argument("--segments", required=True)
    p.add_argument("--out", required=True)

    exp = sub.add_parser("experiment", help="run an experiment suite")
    exp_sub = exp.add_subparsers(dest="mode", required=True)

    p = exp_sub.add_parser("binary", parents=[common])
    p.add_argument("--features", required=True)
    p.add_argument("--balance", default="q-prime", choices=["q", "q-prime"])
    p.add_argument("--values", default="1,2,3,4,5")
    p.add_argument("--classifiers", default="rf,dt,knn")
    p.add_argument("--nof", type=int, default=100)
    p.add_argument("--min-target", type=int, default=50)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--out", required=True)

    p = exp_sub.add_parser("multiclass", parents=[common])
    p.add_argument("--features", required=True)
    p.add_argument("--size", default="complete",
                   choices=["small", "medium", "large", "complete"])
    p.add_argument("--classifiers", default="rf,dt,knn")
    p.add_argument("--nof", type=int, default=200)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--out", required=True)

    p = exp_sub.add_parser("grid", parents=[common])
    p.add_argument("--features", required=True)
    p.add_argument("--evs", default="50,100,150,200")
    p.add_argument("--samples", default="10,25,50,75")
    p.add_argument("--classifier", default="rf")
    p.add_argument("--nof", type=int, default=200)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--out", required=True)

    p = exp_sub.add_parser("distribution", parents=[common])
    p.add_argument("--features", required=True)
    p.add_argument("--shape", required=True, choices=["normal", "uniform"])
    p.add_argument("--classifiers", default="rf,dt,knn")
    p.add_argument("--nof", type=int, default=200)
    p.add_argument("--n-evs", type=int, default=119)
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--per-bin", type=int, default=6)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", parents=[common],
                       help="pivot cells.csv into figure-shaped tables")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", default=None)

    return parser


def _manifest_dir(args) -> str:
    out = getattr(args, "out", None) or getattr(args, "in_dir", None) or "."
    return out if os.path.isdir(out) or not os.path.splitext(out)[1] else os.path.dirname(out) or "."


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command if args.command != "experiment" else f"experiment {args.mode}"
    runners = {"synth": _cmd_synth, "ingest": _cmd_ingest,
               "extract": _cmd_extract, "featurize": _cmd_featurize,
               "experiment": _cmd_experiment, "report": _cmd_report}
    manifest = RunManifest(command=command, seed=getattr(args, "seed", None))
    try:
        cfg = _load_config(getattr(args, "config", None))
        manifest.config = {**cfg}
        runners[args.command](args, cfg, manifest)
        out_dir = _manifest_dir(args)
        _ensure_dir(out_dir)
        manifest.write(out_dir)
    except (DomainError, ConfigError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
