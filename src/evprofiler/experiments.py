"""Experiment harness: Q/Q'-balanced one-vs-all binary suites, multi-class
scaling suites, fixed EV-by-samples grids, and distribution-shaped
sub-sampling, with repetition and aggregation.

Every cell ((target EV, balance value, repetition) or (dataset, repetition))
derives its own seed from the master seed, so cells are independent,
reproducible, and order-insensitive; parallel execution cannot change any
result. Scalers, selection scores, and CV folds are fitted on training rows
only; an optional audit hook observes exactly which session ids each fitted
stage saw, so tests can prove the absence of test-set leakage.
"""

from __future__ import annotations

import json
import multiprocessing
import statistics
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .features import FeatureMatrix, SelectionConfig, fit_selection
from .learn import (DEFAULT_GRIDS, grid_search, predict,
                    score_predictions, stratified_split)

SUITES = ("binary", "multiclass", "fixed-grid", "distribution")
SIZE_PRESETS = {"small": 25, "medium": 75, "large": 140, "complete": None}

AuditHook = Optional[Callable[[str, tuple[str, ...]], None]]


class BalanceError(ValueError):
    pass


class SubsampleError(ValueError):
    pass


class DistributionError(ValueError):
    pass


@dataclass(frozen=True)
class BalanceConfig:
    """Dataset imbalance knob for one-vs-all suites.

    q-prime: negatives = floor(value * n_target) drawn from all other EVs.
    q (the predecessor convention): negatives = floor(n_target / value).
    """

    mode: str = "q-prime"
    value: float = 1.0
    min_target_samples: int = 50

    def __post_init__(self):
        if self.mode not in ("q", "q-prime"):
            raise ValueError(f"unknown balance mode {self.mode!r}")
        if not 1.0 <= self.value <= 5.0:
            raise ValueError("balance value must be in [1, 5]")


@dataclass(frozen=True)
class DistributionParams:
    n_evs: int = 119          # normal shape
    mean: Optional[float] = None
    sigma: Optional[float] = None
    bins: int = 20            # uniform shape
    per_bin: int = 6


@dataclass(frozen=True)
class ExperimentConfig:
    suite: str
    families: tuple[str, ...] = ("random-forest", "decision-tree", "knn")
    grids: dict = field(default_factory=lambda: dict(DEFAULT_GRIDS))
    nof: int = 100
    scorer: str = "chi2"
    balance_mode: str = "q-prime"
    balance_values: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0)
    min_target_samples: int = 50
    dataset_size: Union[str, tuple[int, int], None] = None
    distribution: Optional[str] = None
    distribution_params: DistributionParams = field(default_factory=DistributionParams)
    repetitions: int = 5
    master_seed: int = 0
    test_fraction: float = 0.2
    cv_folds: int = 5
    workers: int = 1

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        for fam in self.families:
            if fam not in DEFAULT_GRIDS:
                raise ValueError(f"unknown classifier family {fam!r}")


@dataclass(frozen=True)
class CellResult:
    group: dict        # aggregation key (suite dims excluding rep / target EV)
    target_ev: str     # "" for multiclass cells
    repetition: int
    classifier: str
    best_params: dict
    accuracy: float
    macro_f1: float
    positive_f1: Optional[float]
    n_train: int
    n_test: int
    status: str = "ok"
    error: str = ""


@dataclass(frozen=True)
class SummaryRow:
    group: dict
    classifier: str
    metric: str
    mean: float
    std: float
    n_runs: int
    n_failed: int


@dataclass(frozen=True)
class ExperimentReport:
    cells: tuple[CellResult, ...]
    summary: tuple[SummaryRow, ...]


def _cell_seed(master: int, repetition: int, tag: str) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        [master, repetition, zlib.crc32(tag.encode("utf-8"))])


def _seed_int(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1)[0])


# ---------------------------------------------------------------------------
# dataset construction

def evs_with_min_rows(features: FeatureMatrix, min_rows: int) -> list[str]:
    return sorted(ev for ev, rows in features.by_label().items()
                  if len(rows) >= min_rows)


def build_binary_dataset(features: FeatureMatrix, target_ev: str,
                         balance: BalanceConfig, seed,
                         ) -> tuple[FeatureMatrix, list[str]]:
    """All target rows as the positive class plus balanced negatives.

    Negatives are drawn round-robin over the other EVs (order and per-EV row
    order shuffled by the seed) so no single EV dominates the negative pool.
    """
    by_label = features.by_label()
    if target_ev not in by_label:
        raise BalanceError(f"unknown target EV {target_ev!r}")
    target_rows = by_label[target_ev]
    n_t = len(target_rows)
    if n_t < balance.min_target_samples:
        raise BalanceError(
            f"target {target_ev} has {n_t} rows < {balance.min_target_samples}")
    if balance.mode == "q-prime":
        needed = int(balance.value * n_t)
    else:
        needed = int(n_t / balance.value)
    rng = np.random.default_rng(seed)
    others = sorted(ev for ev in by_label if ev != target_ev)
    order = list(rng.permutation(len(others)))
    pools = []
    for j in order:
        rows = np.array(by_label[others[j]])
        rng.shuffle(rows)
        pools.append(list(rows))
    available = sum(len(p) for p in pools)
    if available < needed:
        raise BalanceError(
            f"negative pool has {available} rows, {needed} requested")
    negatives: list[int] = []
    while len(negatives) < needed:
        for pool in pools:
            if pool and len(negatives) < needed:
                negatives.append(pool.pop(0))
    rows = list(target_rows) + negatives
    labels = ["target"] * n_t + ["other"] * len(negatives)
    return features.take(rows), labels


def _count_strata(counts: dict[str, int], n_strata: int = 4) -> list[list[str]]:
    evs = sorted(counts, key=lambda ev: (counts[ev], ev))
    strata = []
    for s in range(n_strata):
        lo = s * len(evs) // n_strata
        hi = (s + 1) * len(evs) // n_strata
        if hi > lo:
            strata.append(evs[lo:hi])
    return strata


def subsample_multiclass(features: FeatureMatrix,
                         size: Union[str, tuple[int, int]],
                         seed) -> FeatureMatrix:
    """Preset sizes select EVs stratified by session count and keep all their
    rows; an explicit (n_evs, samples_per_ev) pair samples exactly that grid.
    """
    by_label = features.by_label()
    rng = np.random.default_rng(seed)
    if isinstance(size, str):
        if size not in SIZE_PRESETS:
            raise SubsampleError(f"unknown size preset {size!r}")
        n_evs = SIZE_PRESETS[size]
        if n_evs is None:
            return features
        if n_evs > len(by_label):
            raise SubsampleError(
                f"requested {n_evs} EVs, corpus has {len(by_label)}")
        counts = {ev: len(rows) for ev, rows in by_label.items()}
        strata = _count_strata(counts)
        total = len(counts)
        chosen: list[str] = []
        quotas = [n_evs * len(s) // total for s in strata]
        while sum(quotas) < n_evs:  # largest strata absorb the remainder
            quotas[int(np.argmax([len(s) - q for s, q in zip(strata, quotas)]))] += 1
        for stratum, quota in zip(strata, quotas):
            picks = rng.choice(len(stratum), size=min(quota, len(stratum)),
                               replace=False)
            chosen.extend(stratum[i] for i in sorted(picks))
        rows = [i for ev in sorted(chosen) for i in by_label[ev]]
        return features.take(rows)
    n_evs, samples_per_ev = size
    eligible = evs_with_min_rows(features, samples_per_ev)
    if len(eligible) < n_evs:
        raise SubsampleError(
            f"{n_evs} EVs with >= {samples_per_ev} rows requested, "
            f"only {len(eligible)} available")
    picks = rng.choice(len(eligible), size=n_evs, replace=False)
    rows: list[int] = []
    for i in sorted(picks):
        ev_rows = np.array(by_label[eligible[i]])
        take = rng.choice(ev_rows.size, size=samples_per_ev, replace=False)
        rows.extend(int(ev_rows[j]) for j in sorted(take))
    return features.take(rows)


def subsample_distribution(features: FeatureMatrix, shape: str,
                           params: DistributionParams, seed) -> FeatureMatrix:
    """Sub-sample to a normal or uniform sessions-per-EV distribution.

    normal: per-EV targets are the deterministic quantile discretization of
    Normal(mean, sigma); targets are matched largest-first to EVs with at
    least that many rows and each matched EV is trimmed to its target.
    uniform: the session-count range is split into equal-width bins and
    per_bin EVs are drawn per bin, each trimmed to the bin midpoint.
    """
    by_label = features.by_label()
    counts = {ev: len(rows) for ev, rows in by_label.items()}
    rng = np.random.default_rng(seed)
    if shape == "normal":
        mean = params.mean if params.mean is not None else statistics.mean(counts.values())
        sigma = params.sigma if params.sigma is not None else max(mean / 4.0, 1.0)
        if sigma == 0:
            targets = [max(1, round(mean))] * params.n_evs
        else:
            dist = statistics.NormalDist(mean, sigma)
            targets = sorted((max(1, round(dist.inv_cdf((i + 0.5) / params.n_evs)))
                              for i in range(params.n_evs)), reverse=True)
        pool = sorted(counts, key=lambda ev: (-counts[ev], ev))
        used: set[str] = set()
        matched: list[tuple[str, int]] = []
        for target in targets:
            pick = next((ev for ev in pool
                         if ev not in used and counts[ev] >= target), None)
            if pick is None:
                raise DistributionError(
                    f"no unused EV with >= {target} rows for the normal shape")
            used.add(pick)
            matched.append((pick, target))
        rows: list[int] = []
        for ev, target in sorted(matched):
            ev_rows = np.array(by_label[ev])
            take = rng.choice(ev_rows.size, size=target, replace=False)
            rows.extend(int(ev_rows[j]) for j in sorted(take))
        return features.take(rows)
    if shape != "uniform":
        raise DistributionError(f"unknown shape {shape!r}")
    lo, hi = min(counts.values()), max(counts.values())
    width = max((hi - lo) / params.bins, 1e-9)
    matched = []
    deficits = []
    for b in range(params.bins):
        b_lo = lo + b * width
        b_hi = lo + (b + 1) * width
        target = max(1, int((b_lo + b_hi) / 2.0))
        eligible = sorted(ev for ev, c in counts.items()
                          if c >= target and b_lo <= c < b_hi
                          or (b == params.bins - 1 and c == hi and c >= target))
        if len(eligible) < params.per_bin:
            deficits.append(f"bin {b} [{b_lo:.1f}, {b_hi:.1f}): "
                            f"{len(eligible)}/{params.per_bin}")
            continue
        picks = rng.choice(len(eligible), size=params.per_bin, replace=False)
        matched.extend((eligible[i], target) for i in sorted(picks))
    if deficits:
        raise DistributionError("unfillable bins: " + "; ".join(deficits))
    rows = []
    for ev, target in sorted(matched):
        ev_rows = np.array(by_label[ev])
        take = rng.choice(ev_rows.size, size=target, replace=False)
        rows.extend(int(ev_rows[j]) for j in sorted(take))
    return features.take(rows)


# ---------------------------------------------------------------------------
# single experiment cell: split, fit, search, evaluate

def run_cell(features: FeatureMatrix, labels: Sequence[str], group: dict,
             target_ev: str, repetition: int, config: ExperimentConfig,
             seed: np.random.SeedSequence, scoring: str,
             audit: AuditHook = None) -> list[CellResult]:
    """One (dataset, repetition) cell: one result per classifier family."""
    labels = list(labels)
    split_seed, search_seed = (_seed_int(s) for s in seed.spawn(2))
    train_idx, test_idx = stratified_split(labels, config.test_fraction, split_seed)
    train = features.take(train_idx)
    test = features.take(test_idx)
    y_train = [labels[i] for i in train_idx]
    y_test = [labels[i] for i in test_idx]
    if audit is not None:
        audit("held-out", test.session_ids)
        audit("scaler", train.session_ids)
        audit("selection", train.session_ids)
    selection = fit_selection(train, y_train,
                              SelectionConfig(config.nof, config.scorer))
    x_train = selection.transform(train).x
    x_test = selection.transform(test).x
    results = []
    positive = "target" if scoring == "f1-positive" else None
    for family in config.families:
        if audit is not None:
            audit(f"grid-search:{family}", train.session_ids)
        try:
            search = grid_search(family, config.grids[family], x_train, y_train,
                                 config.cv_folds, scoring, search_seed, positive)
            mode = "binary" if scoring == "f1-positive" else "multiclass"
            predicted = predict(search.model, x_test)
            report = score_predictions(y_test, list(predicted), mode, positive)
            results.append(CellResult(
                group, target_ev, repetition, family,
                search.best_spec.hyperparameters,
                report.accuracy, report.macro_f1, report.positive_f1,
                len(train_idx), len(test_idx)))
        except ValueError as exc:
            results.append(CellResult(group, target_ev, repetition, family,
                                      {}, 0.0, 0.0, None,
                                      len(train_idx), len(test_idx),
                                      status="failed", error=str(exc)))
    return results


# ---------------------------------------------------------------------------
# suites

_WORKER: dict = {}


def _init_worker(features: FeatureMatrix, config: ExperimentConfig) -> None:
    _WORKER["features"] = features
    _WORKER["config"] = config


def _binary_cell_job(job: tuple[str, float, int]) -> list[CellResult]:
    ev, value, rep = job
    features: FeatureMatrix = _WORKER["features"]
    config: ExperimentConfig = _WORKER["config"]
    group = {"suite": "binary", "balance_mode": config.balance_mode,
             "balance_value": value}
    seed = _cell_seed(config.master_seed, rep, f"{ev}|{value}")
    balance = BalanceConfig(config.balance_mode, value, config.min_target_samples)
    try:
        dataset, labels = build_binary_dataset(features, ev, balance, seed.spawn(1)[0])
        return run_cell(dataset, labels, group, ev, rep, config, seed,
                        "f1-positive", _WORKER.get("audit"))
    except ValueError as exc:
        return [CellResult(group, ev, rep, family, {}, 0.0, 0.0, None, 0, 0,
                           status="failed", error=str(exc))
                for family in config.families]


def _map_jobs(job_fn, jobs, features, config, audit, workers):
    if audit is not None:
        workers = 1  # hooks are in-process test instrumentation
    if workers <= 1:
        _init_worker(features, config)
        _WORKER["audit"] = audit
        try:
            return [job_fn(job) for job in jobs]
        finally:
            _WORKER.clear()
    with multiprocessing.Pool(workers, initializer=_init_worker,
                              initargs=(features, config)) as pool:
        return pool.map(job_fn, jobs, chunksize=1)


def run_binary_suite(config: ExperimentConfig, features: FeatureMatrix,
                     audit: AuditHook = None) -> ExperimentReport:
    """One-vs-all suite over every qualifying EV, balance value, repetition."""
    qualifying = evs_with_min_rows(features, config.min_target_samples)
    if len(qualifying) < 2:
        raise BalanceError(
            f"need >= 2 EVs with {config.min_target_samples}+ rows, "
            f"got {len(qualifying)}")
    jobs = [(ev, value, rep)
            for value in config.balance_values
            for ev in qualifying
            for rep in range(config.repetitions)]
    nested = _map_jobs(_binary_cell_job, jobs, features, config, audit,
                       config.workers)
    cells = tuple(cell for batch in nested for cell in batch)
    return ExperimentReport(cells, summarize_cells(cells))


def _multiclass_cell_job(job: tuple[dict, int]) -> list[CellResult]:
    group, rep = job
    features: FeatureMatrix = _WORKER["features"]
    config: ExperimentConfig = _WORKER["config"]
    seed = _cell_seed(config.master_seed, rep, json.dumps(group, sort_keys=True))
    try:
        return run_cell(features, list(features.labels), group, "", rep,
                        config, seed, "accuracy", _WORKER.get("audit"))
    except ValueError as exc:
        return [CellResult(group, "", rep, family, {}, 0.0, 0.0, None, 0, 0,
                           status="failed", error=str(exc))
                for family in config.families]


def run_multiclass_suite(config: ExperimentConfig, features: FeatureMatrix,
                         audit: AuditHook = None) -> ExperimentReport:
    """Repeated multi-class evaluation of an already sub-sampled dataset."""
    group = {"suite": config.suite, "n_classes": len(set(features.labels))}
    if config.dataset_size is not None:
        if isinstance(config.dataset_size, tuple):
            group["n_evs"], group["samples_per_ev"] = config.dataset_size
        else:
            group["dataset"] = config.dataset_size
    if config.distribution is not None:
        group["distribution"] = config.distribution
    jobs = [(group, rep) for rep in range(config.repetitions)]
    nested = _map_jobs(_multiclass_cell_job, jobs, features, config, audit,
                       config.workers)
    cells = tuple(cell for batch in nested for cell in batch)
    return ExperimentReport(cells, summarize_cells(cells))


# ---------------------------------------------------------------------------
# aggregation

def _group_token(group: dict) -> str:
    return json.dumps(group, sort_keys=True)


def summarize_cells(cells: Sequence[CellResult]) -> tuple[SummaryRow, ...]:
    """Mean and population std per (group, classifier, metric).

    The mean is taken over cells within a repetition first (EV-level cells
    average with equal weight), then across repetitions; failed cells are
    excluded from the means but counted.
    """
    buckets: dict[tuple[str, str], list[CellResult]] = {}
    for cell in cells:
        buckets.setdefault((_group_token(cell.group), cell.classifier),
                           []).append(cell)
    rows = []
    for (token, classifier), group_cells in sorted(buckets.items()):
        group = json.loads(token)
        metrics = ["accuracy", "macro_f1"]
        if any(c.positive_f1 is not None for c in group_cells):
            metrics.append("positive_f1")
        n_failed = sum(1 for c in group_cells if c.status != "ok")
        for metric in metrics:
            rep_means = []
            for rep in sorted({c.repetition for c in group_cells}):
                values = [getattr(c, metric) for c in group_cells
                          if c.repetition == rep and c.status == "ok"
                          and getattr(c, metric) is not None]
                if values:
                    rep_means.append(float(np.mean(values)))
            if not rep_means:
                continue
            rows.append(SummaryRow(group, classifier, metric,
                                   float(np.mean(rep_means)),
                                   float(np.std(rep_means)),
                                   len(rep_means), n_failed))
    return tuple(rows)


# ---------------------------------------------------------------------------
# persistence

CELL_COLUMNS = ("suite", "group", "target_ev", "repetition", "classifier",
                "best_params", "accuracy", "macro_f1", "positive_f1",
                "n_train", "n_test", "status", "error")


def write_cells_csv(report: ExperimentReport, path: str) -> None:
    import csv as _csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(CELL_COLUMNS)
        for c in report.cells:
            writer.writerow([
                c.group.get("suite", ""), _group_token(c.group), c.target_ev,
                c.repetition, c.classifier, json.dumps(c.best_params, sort_keys=True),
                repr(c.accuracy), repr(c.macro_f1),
                "" if c.positive_f1 is None else repr(c.positive_f1),
                c.n_train, c.n_test, c.status, c.error])


def read_cells_csv(path: str) -> list[CellResult]:
    import csv as _csv

    cells = []
    with open(path, "r", encoding="utf-8") as fh:
        reader = _csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != CELL_COLUMNS:
            raise ValueError(f"{path}: not a cells.csv file")
        for row in reader:
            cells.append(CellResult(
                json.loads(row["group"]), row["target_ev"],
                int(row["repetition"]), row["classifier"],
                json.loads(row["best_params"]), float(row["accuracy"]),
                float(row["macro_f1"]),
                float(row["positive_f1"]) if row["positive_f1"] else None,
                int(row["n_train"]), int(row["n_test"]),
                row["status"], row["error"]))
    return cells


def write_summary_csv(report: ExperimentReport, path: str) -> None:
    import csv as _csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["group", "classifier", "metric", "mean", "std",
                         "n_runs", "n_failed"])
        for row in report.summary:
            writer.writerow([_group_token(row.group), row.classifier,
                             row.metric, repr(row.mean), repr(row.std),
                             row.n_runs, row.n_failed])


def write_summary_md(report: ExperimentReport, path: str) -> None:
    lines = ["# Experiment summary", ""]
    by_group: dict[str, list[SummaryRow]] = {}
    for row in report.summary:
        by_group.setdefault(_group_token(row.group), []).append(row)
    for token in sorted(by_group):
        lines.append(f"## {token}")
        lines.append("")
        lines.append("| classifier | metric | mean | std | runs | failed |")
        lines.append("|---|---|---|---|---|---|")
        for row in sorted(by_group[token], key=lambda r: (r.classifier, r.metric)):
            lines.append(f"| {row.classifier} | {row.metric} | {row.mean:.4f} "
                         f"| {row.std:.4f} | {row.n_runs} | {row.n_failed} |")
        lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
