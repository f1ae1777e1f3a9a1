"""Command-line entry point wiring synth -> ingest -> extract -> featurize ->
experiment -> report, with a reproducibility manifest beside every output.

Each stage accepts only the options it reads. ``extract`` alone takes
``--config``; ``--workers`` is the experiment suites' process count, and the
one-process stages accept only ``--workers 1``. ``main`` times each stage as
a whole, its input digests, reads and writes included.

Exit codes: 0 success, 1 domain error (typed message on stderr), 2 usage.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import itertools
import json
import os
import sys
import tempfile
import time
from collections import Counter
from typing import Iterator, Optional, Sequence

import numpy as np

from . import __version__
from .config import ConfigError, RunManifest, params_from, parse_config_file
from .experiments import (BALANCE_MODES, DISTRIBUTION_SHAPES, SIZE_PRESETS,
                          ExperimentConfig, SummaryRow,
                          binary_jobs, grid_rows, multiclass_jobs,
                          read_cells_csv, run_cells, subsample_distribution,
                          subsample_multiclass, summarize_cells,
                          write_cells_csv, write_summary_csv, write_summary_md)
from .features import (N_FEATURES, featurize_segments, read_feature_csv,
                       write_feature_csv)
from .ingest import (FORMATS, ParseError, Provenance, TimeSeries,
                     _records_from_json, admissible, iter_sessions,
                     kept_labels, session_line, undecodable)
from .synth import SEPARATIONS, SynthOptions, iter_corpus
from .tail import REJECTION_CODES, SegmentPair, segment_corpus

FAMILY_ALIASES = {"rf": "random-forest", "dt": "decision-tree", "knn": "knn",
                  "random-forest": "random-forest",
                  "decision-tree": "decision-tree"}
ALL_FEATURES_HELP = f"features kept by selection (default: all {N_FEATURES})"


class DomainError(RuntimeError):
    pass


def _ensure_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)


@contextlib.contextmanager
def _replace_on_success(path: str, mode: str, **open_kwargs):
    """Write to a new uniquely named ``<name>.<random>.tmp`` beside ``path``,
    which replaces ``path`` only when the block completes. On an error it is
    removed, and ``path`` is left as it was."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".", suffix=".tmp")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with open(fd, mode, **open_kwargs) as fh:
            os.chmod(fd, 0o666 & ~umask)  # open()'s mode, not mkstemp's 0600
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


# ---------------------------------------------------------------------------
# stage runners

def _cmd_synth(args, manifest: RunManifest) -> None:
    options = SynthOptions(separation=args.separation,
                           truncate_prob=args.truncate_prob,
                           noise_sigma=args.noise_sigma)
    # each session's line is written as it is made: the bytes of
    # write_sessions(generate_corpus(...)), without the whole corpus
    sessions = 0
    with _replace_on_success(args.out, "w", encoding="utf-8", newline="") as fh:
        for session in iter_corpus(args.evs, args.sessions, args.seed, options):
            fh.write(session_line(session))
            sessions += 1
    manifest.counts["synth"] = {"sessions": sessions, "evs": args.evs}


def _cmd_ingest(args, manifest: RunManifest) -> None:
    """One pass over the input: each admissible session's canonical line goes
    to an unnamed spool beside ``--out`` as it is parsed. Once every EV's
    count is known, the lines of EVs that reach ``--min-sessions`` are copied
    to ``--out`` in file order; the same output as ``write_sessions`` of
    ``apply_primary_filters`` of ``parse_sessions``."""
    manifest.add_input(args.input)
    stats: Counter = Counter()
    parsed = 0
    spooled: list[str] = []  # the EV of each spooled line
    counts: Counter = Counter()
    with tempfile.TemporaryFile(dir=os.path.dirname(args.out) or ".") as spool:
        for session in iter_sessions(args.input, args.format, stats):
            parsed += 1
            if admissible(session, args.min_points):
                spool.write(session_line(session).encode("utf-8"))
                spooled.append(session.ev_label)
                counts[session.ev_label] += 1
        kept = kept_labels(counts, args.min_sessions)
        spool.seek(0)
        with _replace_on_success(args.out, "wb") as out:
            for label, line in zip(spooled, spool):
                if label in kept:
                    out.write(line)
    prov = Provenance(**stats)
    manifest.counts["ingest"] = {
        "parsed": parsed, "kept": sum(counts[label] for label in kept),
        "evs": len(kept),
        "dropped_missing_field": prov.dropped_missing_field,
        "truncated_mismatched": prov.truncated_mismatched,
        "clamped_negative": prov.clamped_negative,
    }


def _segment_to_record(seg: SegmentPair) -> dict:
    return {"sessionID": seg.session_id, "evLabel": seg.ev_label,
            "tStart": seg.t_start, "tS": seg.t_s,
            "samplePeriodSec": seg.tail.sample_period,
            "tail": seg.tail.values.tolist(),
            "delta": seg.delta.values.tolist()}


def _segment_from_record(rec: dict) -> SegmentPair:
    period = rec.get("samplePeriodSec", 1.0)
    return SegmentPair(rec["sessionID"], rec.get("evLabel"),
                       TimeSeries(np.array(rec["tail"]), period),
                       TimeSeries(np.array(rec["delta"]), period),
                       rec["tStart"], rec["tS"])


def _read_segments(path: str) -> Iterator[SegmentPair]:
    """The segment pairs of an ``extract`` output, line by line. A line
    that is no segment record is a ValueError naming the file and line."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for where, rec in _records_from_json(fh):
                yield _segment_from_record(rec)
        except UnicodeDecodeError as exc:  # a ValueError, maybe before any line
            raise undecodable(path, exc) from exc
        except ParseError as exc:  # not JSON or not an object; names its line
            raise ValueError(f"{path}: {exc}") from exc
        except KeyError as exc:
            raise ValueError(f"{path}: {where}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {where}: {exc}") from exc


def _cmd_extract(args, manifest: RunManifest) -> None:
    if args.config and not os.path.exists(args.config):
        raise DomainError(f"config file not found: {args.config}")
    manifest.config = parse_config_file(args.config) if args.config else {}
    filter_params = params_from("filter", manifest.config)
    tail_params = params_from("tail", manifest.config)
    manifest.add_input(args.sessions)
    if args.rejects:
        _ensure_dir(os.path.dirname(args.rejects) or ".")
    segments, rejected = segment_corpus(
        iter_sessions(args.sessions, "acn-json", Counter()),
        filter_params, tail_params)
    accepted = 0
    # a duplicate session id surfaces after the last line, before the rename
    with _replace_on_success(args.out, "w", encoding="utf-8") as fh:
        for seg in segments:
            fh.write(json.dumps(_segment_to_record(seg)) + "\n")
            accepted += 1
    if args.rejects:
        with _replace_on_success(args.rejects, "w", encoding="utf-8",
                                 newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("session_id", "code", "detail"))
            writer.writerows((sid, reason.code, reason.detail)
                             for sid, reason in rejected)
    manifest.counts["extract"] = {
        "accepted": accepted, "rejected": len(rejected),
        "rejected_by_code": {code: sum(r.code == code for _, r in rejected)
                             for code in REJECTION_CODES}}


def _cmd_featurize(args, manifest: RunManifest) -> None:
    manifest.add_input(args.segments)
    matrix = featurize_segments(_read_segments(args.segments))
    write_feature_csv(matrix, args.out)
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


def _distinct_ints(raw: str, flag: str) -> list[int]:
    values = [int(v) for v in raw.split(",")]
    if len(set(values)) < len(values):
        raise DomainError(f"{flag} values repeat: {raw}")
    return values


def _cmd_experiment(args, manifest: RunManifest) -> None:
    manifest.add_input(args.features)
    features = read_feature_csv(args.features)
    config = ExperimentConfig(
        families=_parse_families(args.classifiers),
        nof=args.nof, repetitions=args.reps, master_seed=args.seed,
        workers=args.workers)
    if args.mode == "binary":
        config = dataclasses.replace(
            config, balance_mode=args.balance,
            balance_values=tuple(float(v) for v in args.values.split(",")),
            min_target_samples=args.min_target)
        jobs = binary_jobs(config, features)
    elif args.mode == "multiclass":
        rows = subsample_multiclass(features, args.size, args.seed)
        jobs = multiclass_jobs(config, features, "multiclass", rows,
                               dataset=args.size)
    elif args.mode == "grid":
        jobs = []
        for n_evs, samples in itertools.product(
                _distinct_ints(args.evs, "--evs"),
                _distinct_ints(args.samples, "--samples")):
            rows = grid_rows(features, n_evs, samples, args.seed)
            jobs += multiclass_jobs(config, features, "fixed-grid", rows,
                                    n_evs=n_evs, samples_per_ev=samples)
    else:  # distribution
        rows = subsample_distribution(features, args.shape, args.seed,
                                      n_evs=args.n_evs, bins=args.bins,
                                      per_bin=args.per_bin)
        jobs = multiclass_jobs(config, features, "distribution", rows,
                               distribution=args.shape)
    cells = run_cells(config, features, jobs)
    summary = summarize_cells(cells)
    _ensure_dir(args.out)
    write_cells_csv(cells, os.path.join(args.out, "cells.csv"))
    write_summary_csv(summary, os.path.join(args.out, "summary.csv"))
    write_summary_md(summary, os.path.join(args.out, "summary.md"))
    ok = sum(1 for c in cells if c.status == "ok")
    manifest.counts["experiment"] = {"cells": len(cells), "ok": ok,
                                     "failed": len(cells) - ok}


PIVOTS = (  # (metric, group dims, file name, header)
    ("positive_f1", ("balance_mode", "balance_value"), "f1_vs_balance.csv",
     ("balance_mode", "balance_value", "classifier", "mean_f1", "std_f1")),
    ("accuracy", ("dataset", "n_classes"), "accuracy_vs_dataset.csv",
     ("dataset", "n_classes", "classifier", "mean_accuracy", "std_accuracy")),
    ("accuracy", ("n_evs", "samples_per_ev"), "accuracy_grid.csv",
     ("n_evs", "samples_per_ev", "classifier", "mean_accuracy", "std_accuracy")),
    ("accuracy", ("distribution",), "accuracy_vs_distribution.csv",
     ("distribution", "classifier", "mean_accuracy", "std_accuracy")),
)


def _pivot_rows(summary: Sequence[SummaryRow], metric: str,
                dims: Sequence[str]) -> list[tuple]:
    rows = [tuple(row.group[d] for d in dims) + (row.classifier, row.mean, row.std)
            for row in summary
            if row.metric == metric and all(d in row.group for d in dims)]
    return sorted(rows, key=lambda r: tuple(str(v) for v in r))


def _write_pivot(path: str, header: Sequence[str], rows: Sequence[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _cmd_report(args, manifest: RunManifest) -> None:
    cells_path = os.path.join(args.in_dir, "cells.csv")
    if not os.path.exists(cells_path):
        raise DomainError(f"missing cells.csv in {args.in_dir}")
    cells = read_cells_csv(cells_path)
    if not cells:
        raise DomainError("cells.csv is empty")
    manifest.add_input(cells_path)
    out = args.out or args.in_dir
    _ensure_dir(out)
    summary = summarize_cells(cells)
    written = 1  # summary.md
    for metric, dims, name, header in PIVOTS:
        rows = _pivot_rows(summary, metric, dims)
        if rows:
            _write_pivot(os.path.join(out, name), header, rows)
            written += 1
    write_summary_md(summary, os.path.join(out, "summary.md"))
    manifest.counts["report"] = {"pivots": written}


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evprofiler",
        description="EV charging-session profiling toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    one_process = argparse.ArgumentParser(add_help=False, parents=[common])
    one_process.add_argument("--workers", type=int, default=1, choices=(1,),
                             help="this stage runs in one process")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[one_process],
                       help="generate a labeled synthetic corpus")
    p.add_argument("--evs", type=int, required=True)
    p.add_argument("--sessions", type=int, required=True)
    p.add_argument("--separation", default="well-separated",
                   choices=SEPARATIONS)
    p.add_argument("--truncate-prob", type=float, default=0.0)
    p.add_argument("--noise-sigma", type=float, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("ingest", parents=[one_process],
                       help="parse and filter a charging-session corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--format", required=True, choices=FORMATS)
    p.add_argument("--min-points", type=int, default=100)
    p.add_argument("--min-sessions", type=int, default=10)
    p.add_argument("--out", required=True)

    p = sub.add_parser("extract", parents=[one_process],
                       help="segment sessions into tail/delta pairs")
    p.add_argument("--sessions", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rejects", default=None)
    p.add_argument("--config", default=None, help="flat key=value config file")

    p = sub.add_parser("featurize", parents=[one_process],
                       help="compute the feature catalog over segments")
    p.add_argument("--segments", required=True)
    p.add_argument("--out", required=True)

    exp = sub.add_parser("experiment", help="run an experiment suite")
    exp_sub = exp.add_subparsers(dest="mode", required=True)
    suite = argparse.ArgumentParser(add_help=False, parents=[common])
    suite.add_argument("--workers", type=int, default=1)
    suite.add_argument("--features", required=True)
    suite.add_argument("--reps", type=int, default=5)
    suite.add_argument("--out", required=True)

    p = exp_sub.add_parser("binary", parents=[suite])
    p.add_argument("--balance", default="q-prime", choices=BALANCE_MODES)
    p.add_argument("--values", default="1,2,3,4,5")
    p.add_argument("--classifiers", default="rf,dt,knn")
    p.add_argument("--nof", type=int, default=100)
    p.add_argument("--min-target", type=int, default=50)

    p = exp_sub.add_parser("multiclass", parents=[suite])
    p.add_argument("--size", default="complete", choices=SIZE_PRESETS)
    p.add_argument("--classifiers", default="rf,dt,knn")
    p.add_argument("--nof", type=int, default=N_FEATURES, help=ALL_FEATURES_HELP)

    p = exp_sub.add_parser("grid", parents=[suite])
    p.add_argument("--evs", default="50,100,150,200")
    p.add_argument("--samples", default="10,25,50,75")
    p.add_argument("--classifier", dest="classifiers", default="rf")
    p.add_argument("--nof", type=int, default=N_FEATURES, help=ALL_FEATURES_HELP)

    p = exp_sub.add_parser("distribution", parents=[suite])
    p.add_argument("--shape", required=True, choices=DISTRIBUTION_SHAPES)
    p.add_argument("--classifiers", default="rf,dt,knn")
    p.add_argument("--nof", type=int, default=N_FEATURES, help=ALL_FEATURES_HELP)
    p.add_argument("--n-evs", type=int, default=119)
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--per-bin", type=int, default=6)

    p = sub.add_parser("report", parents=[one_process],
                       help="pivot cells.csv into figure-shaped tables")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", default=None)

    return parser


def _manifest_dir(args) -> str:
    """The manifest goes into the output directory of ``experiment`` and
    ``report`` and beside the output file of every other command."""
    if args.command == "experiment":
        return args.out
    if args.command == "report":
        return args.out or args.in_dir
    return os.path.dirname(args.out) or "."


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command if args.command != "experiment" else f"experiment {args.mode}"
    runners = {"synth": _cmd_synth, "ingest": _cmd_ingest,
               "extract": _cmd_extract, "featurize": _cmd_featurize,
               "experiment": _cmd_experiment, "report": _cmd_report}
    manifest = RunManifest(command=command, seed=args.seed)
    try:
        out_dir = _manifest_dir(args)
        # a stage writes beside its --out as it runs; experiment and report
        # make their output directory once they have something to write
        if args.command not in ("experiment", "report"):
            _ensure_dir(out_dir)
        start = time.perf_counter()
        runners[args.command](args, manifest)
        manifest.timings[args.command] = time.perf_counter() - start
        manifest.write(out_dir)
    except (DomainError, ConfigError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
