"""Experiment harness: Q/Q'-balanced one-vs-all binary suites, multi-class
scaling suites, fixed EV-by-samples grids, and distribution-shaped
sub-sampling, with repetition and aggregation.

A suite's settings live in one ``ExperimentConfig``, checked when it is
built, so a bad balance mode or value stops the suite before any cell runs;
the sub-samplers check their sizes on entry the same way. Each sub-sampler
(``subsample_multiclass``, ``grid_rows``, ``subsample_distribution``) takes
the suite's feature matrix and integer seed, derives its own generator from
that seed, and returns rows of the matrix. Every mode is a list of
``CellJob``s over that one matrix: ``binary_jobs`` builds the one-vs-all
cells, ``multiclass_jobs`` the repetitions of one multi-class dataset, named
by its rows (a fixed grid adds one such list per grid point). ``run_cells``
runs any list through one job function and at most one worker pool, in job
order, and ``run_cell`` reads a cell's group, target EV and repetition from
its job.

Every cell ((target EV, balance value, repetition) or (dataset, repetition))
derives its own seed from the master seed, so cells are independent,
reproducible, and order-insensitive; parallel execution cannot change any
result. The selection's scale and scores and the CV folds are fitted on
training rows only, and a cell whose dataset repeats a session fails with
``LeakageError``.
"""

from __future__ import annotations

import csv
import json
import multiprocessing
import statistics
import zlib
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .features import FeatureMatrix, fit_selection
from .learn import (DEFAULT_GRIDS, grid_search, predict,
                    score_predictions, stratified_split)

SIZE_PRESETS = {"small": 25, "medium": 75, "large": 140, "complete": None}
BALANCE_MODES = ("q", "q-prime")
DISTRIBUTION_SHAPES = ("normal", "uniform")


class BalanceError(ValueError):
    pass


class SubsampleError(ValueError):
    pass


class DistributionError(ValueError):
    pass


class LeakageError(ValueError):
    """A cell's dataset holds a session more than once, so the session could
    sit in both the training and the held-out rows."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One suite's settings, checked once before any cell runs.

    A one-vs-all cell keeps all rows of a target EV with at least
    ``min_target_samples`` rows and draws negatives from the other EVs for
    each ``balance_values`` entry v in [1, 5]:
    q-prime: negatives = floor(v * n_target);
    q (the predecessor convention): negatives = floor(n_target / v).
    """

    families: tuple[str, ...] = ("random-forest", "decision-tree", "knn")
    grids: dict = field(default_factory=lambda: dict(DEFAULT_GRIDS))
    nof: int = 100
    balance_mode: str = "q-prime"
    balance_values: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0)
    min_target_samples: int = 50
    repetitions: int = 5
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.master_seed < 0:
            # numpy's SeedSequence message, which the sub-samplers give too
            raise ValueError("expected non-negative integer")
        if self.nof < 1:
            raise ValueError("nof must be >= 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.balance_mode not in BALANCE_MODES:
            raise ValueError(f"unknown balance mode {self.balance_mode!r}")
        for value in self.balance_values:
            if not 1.0 <= value <= 5.0:
                raise ValueError(f"balance value {value} must be in [1, 5]")
        if len(set(self.balance_values)) < len(self.balance_values):
            raise ValueError(f"balance values repeat: {self.balance_values}")
        if len(set(self.families)) < len(self.families):
            raise ValueError(f"classifier families repeat: {self.families}")
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

def evs_with_min_rows(by_label: dict[str, list[int]], min_rows: int) -> list[str]:
    """The EVs of a ``FeatureMatrix.by_label()`` index with at least
    ``min_rows`` rows, sorted."""
    return sorted(ev for ev, rows in by_label.items() if len(rows) >= min_rows)


def build_binary_dataset(features: FeatureMatrix, target_ev: str,
                         config: ExperimentConfig, value: float, seed,
                         by_label: dict[str, list[int]]) -> FeatureMatrix:
    """All target rows, labelled ``"target"``, followed by negatives labelled
    ``"other"`` and balanced to ``value`` under ``config.balance_mode``.

    Negatives are drawn round-robin over the other EVs (order and per-EV row
    order shuffled by the seed) so no single EV dominates the negative pool.
    ``by_label`` is ``features.by_label()``.
    """
    if target_ev not in by_label:
        raise BalanceError(f"unknown target EV {target_ev!r}")
    target_rows = by_label[target_ev]
    n_t = len(target_rows)
    if n_t < config.min_target_samples:
        raise BalanceError(
            f"target {target_ev} has {n_t} rows < {config.min_target_samples}")
    if config.balance_mode == "q-prime":
        needed = int(value * n_t)
    else:
        needed = int(n_t / value)
    rng = np.random.default_rng(seed)
    others = sorted(ev for ev in by_label if ev != target_ev)
    order = list(rng.permutation(len(others)))
    pools = []
    for j in order:
        rows = np.array(by_label[others[j]])
        rng.shuffle(rows)
        pools.append(rows)
    available = sum(p.size for p in pools)
    if available < needed:
        raise BalanceError(
            f"negative pool has {available} rows, {needed} requested")
    # round-robin: every pool's first row in pool order, then every pool's
    # second row, and so on. The pools lie end to end in pool order, so a
    # stable sort by position within the pool deals them.
    sizes = np.array([pool.size for pool in pools], dtype=np.int64)
    position = np.arange(sizes.sum()) - np.repeat(sizes.cumsum() - sizes, sizes)
    dealt = np.lexsort((position,))[:needed]
    negatives = np.concatenate([np.empty(0, np.int64), *pools])[dealt].tolist()
    return replace(features.take(list(target_rows) + negatives),
                   labels=("target",) * n_t + ("other",) * len(negatives))


def _count_strata(counts: dict[str, int], n_strata: int = 4) -> list[list[str]]:
    evs = sorted(counts, key=lambda ev: (counts[ev], ev))
    strata = []
    for s in range(n_strata):
        lo = s * len(evs) // n_strata
        hi = (s + 1) * len(evs) // n_strata
        if hi > lo:
            strata.append(evs[lo:hi])
    return strata


def _trim_to_targets(by_label: dict[str, list[int]],
                     matched: Sequence[tuple[str, int]], rng) -> list[int]:
    """Rows of each (EV, target) pair in order, each EV trimmed to ``target``
    rows drawn without replacement and kept in row order."""
    rows: list[int] = []
    for ev, target in matched:
        ev_rows = np.array(by_label[ev])
        take = rng.choice(ev_rows.size, size=target, replace=False)
        rows.extend(int(ev_rows[j]) for j in sorted(take))
    return rows


def grid_rows(features: FeatureMatrix, n_evs: int, samples_per_ev: int,
              seed: int) -> list[int]:
    """Rows of ``n_evs`` EVs drawn from those with at least ``samples_per_ev``
    rows, each EV trimmed to exactly that many; the draws are seeded by
    ``[seed, n_evs, samples_per_ev]``."""
    # built first, so a negative seed fails before the sizes are checked
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, n_evs, samples_per_ev]))
    if n_evs < 1 or samples_per_ev < 1:
        raise SubsampleError(f"n_evs and samples_per_ev must be >= 1, "
                             f"got {n_evs} and {samples_per_ev}")
    by_label = features.by_label()
    eligible = evs_with_min_rows(by_label, samples_per_ev)
    if len(eligible) < n_evs:
        raise SubsampleError(
            f"{n_evs} EVs with >= {samples_per_ev} rows requested, "
            f"only {len(eligible)} available")
    picks = rng.choice(len(eligible), size=n_evs, replace=False)
    matched = [(eligible[i], samples_per_ev) for i in sorted(picks)]
    return _trim_to_targets(by_label, matched, rng)


def subsample_multiclass(features: FeatureMatrix, size: str,
                         seed: int) -> list[int]:
    """Rows of the EVs of preset ``size``, selected stratified by session
    count and seeded by ``[seed, 0xD5]``, with all their rows; every row in
    order for ``complete``."""
    # built first, so a negative seed fails for every preset
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD5]))
    if size not in SIZE_PRESETS:
        raise SubsampleError(f"unknown size preset {size!r}")
    n_evs = SIZE_PRESETS[size]
    if n_evs is None:
        return list(range(features.n_rows))
    by_label = features.by_label()
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
    return [i for ev in sorted(chosen) for i in by_label[ev]]


def subsample_distribution(features: FeatureMatrix, shape: str, seed: int, *,
                           n_evs: int, bins: int, per_bin: int) -> list[int]:
    """Rows sub-sampled to a normal or uniform sessions-per-EV distribution,
    the draws seeded by ``[seed, 0xD1]``.

    normal: ``n_evs`` per-EV targets are the deterministic quantile
    discretization of Normal(mean, max(mean / 4, 1)), mean the corpus's mean
    sessions per EV; targets are matched largest-first to EVs with at least
    that many rows and each matched EV is trimmed to its target.
    uniform: the session-count range is split into ``bins`` equal-width bins
    and ``per_bin`` EVs are drawn per bin, each trimmed to the bin midpoint.
    An EV is eligible for one bin only, and a bin with fewer than ``per_bin``
    eligible EVs raises ``DistributionError``.
    """
    for name, size in (("n_evs", n_evs), ("bins", bins), ("per_bin", per_bin)):
        if size < 1:
            raise ValueError(f"{name} must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD1]))
    if shape not in DISTRIBUTION_SHAPES:
        raise DistributionError(f"unknown shape {shape!r}")
    by_label = features.by_label()
    counts = {ev: len(rows) for ev, rows in by_label.items()}
    if shape == "normal":
        mean = statistics.mean(counts.values())
        dist = statistics.NormalDist(mean, max(mean / 4.0, 1.0))
        targets = sorted((max(1, round(dist.inv_cdf((i + 0.5) / n_evs)))
                          for i in range(n_evs)), reverse=True)
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
        return _trim_to_targets(by_label, sorted(matched), rng)
    lo, hi = min(counts.values()), max(counts.values())
    width = max((hi - lo) / bins, 1e-9)
    matched = []
    deficits = []
    for b in range(bins):
        b_lo = lo + b * width
        b_hi = lo + (b + 1) * width
        target = max(1, int((b_lo + b_hi) / 2.0))
        # the half-open bin holding an EV's count, or the last bin for the
        # largest count (for every EV, when all counts are equal)
        eligible = sorted(ev for ev, c in counts.items()
                          if c >= target and (b == bins - 1 if c == hi
                                              else b_lo <= c < b_hi))
        if len(eligible) < per_bin:
            deficits.append(f"bin {b} [{b_lo:.1f}, {b_hi:.1f}): "
                            f"{len(eligible)}/{per_bin}")
            continue
        picks = rng.choice(len(eligible), size=per_bin, replace=False)
        matched.extend((eligible[i], target) for i in sorted(picks))
    if deficits:
        raise DistributionError("unfillable bins: " + "; ".join(deficits))
    return _trim_to_targets(by_label, sorted(matched), rng)


# ---------------------------------------------------------------------------
# single experiment cell: split, fit, search, evaluate

def _failed_cells(job: CellJob, families: Sequence[str], error: str,
                  n_train: int = 0, n_test: int = 0) -> list[CellResult]:
    return [CellResult(job.group, job.target_ev, job.repetition, family, {},
                       0.0, 0.0, None, n_train, n_test, status="failed",
                       error=error)
            for family in families]


def run_cell(job: CellJob, dataset: FeatureMatrix,
             config: ExperimentConfig,
             seed: np.random.SeedSequence) -> list[CellResult]:
    """Cell ``job`` on ``dataset``, classes read from ``dataset.labels``: one
    result per classifier family.

    Grid search scores the F1 of the ``"target"`` label in one-vs-all cells
    (``job.target_ev`` set), else accuracy; a family whose search or scoring
    raises ``ValueError``, such as a CV fold that cannot be fitted, gives a
    ``failed`` result with the message. A dataset that repeats a session id
    raises ``LeakageError``.
    """
    repeated = sorted(sid for sid, n in Counter(dataset.session_ids).items()
                      if n > 1)
    if repeated:
        raise LeakageError(f"{len(repeated)} session id(s) repeat in one cell, "
                           f"first {repeated[0]!r}")
    positive_label = "target" if job.target_ev else None
    split_seed, search_seed = (_seed_int(s) for s in seed.spawn(2))
    train_idx, test_idx = stratified_split(dataset.labels, seed=split_seed)
    train = dataset.take(train_idx)
    test = dataset.take(test_idx)
    selection = fit_selection(train, config.nof)
    x_train = selection.transform(train).x
    x_test = selection.transform(test).x
    results = []
    for family in config.families:
        try:
            search = grid_search(family, config.grids[family], x_train,
                                 train.labels, search_seed, positive_label)
            predicted = predict(search.model, x_test)
            scores = score_predictions(test.labels, predicted, positive_label)
            results.append(CellResult(
                job.group, job.target_ev, job.repetition, family,
                search.best_spec.hyperparameters,
                scores.accuracy, scores.macro_f1, scores.positive_f1,
                len(train_idx), len(test_idx)))
        except ValueError as exc:
            results.extend(_failed_cells(job, [family], str(exc),
                                         len(train_idx), len(test_idx)))
    return results


# ---------------------------------------------------------------------------
# suites: every mode is a list of cell jobs run through one worker pool

@dataclass(frozen=True)
class CellJob:
    """One cell over the suite's shared feature matrix.

    A one-vs-all cell (``target_ev`` set) builds its balanced dataset from
    the whole matrix; a multi-class cell uses ``rows`` of it.
    """

    group: dict
    target_ev: str
    repetition: int
    rows: tuple[int, ...] = ()


def binary_jobs(config: ExperimentConfig,
                features: FeatureMatrix) -> list[CellJob]:
    """One-vs-all cells over every qualifying EV, balance value, repetition."""
    qualifying = evs_with_min_rows(features.by_label(), config.min_target_samples)
    if len(qualifying) < 2:
        raise BalanceError(
            f"need >= 2 EVs with {config.min_target_samples}+ rows, "
            f"got {len(qualifying)}")
    return [CellJob({"suite": "binary", "balance_mode": config.balance_mode,
                     "balance_value": value}, ev, rep)
            for value in config.balance_values
            for ev in qualifying
            for rep in range(config.repetitions)]


def multiclass_jobs(config: ExperimentConfig, features: FeatureMatrix,
                    suite: str, rows: Sequence[int], **dims) -> list[CellJob]:
    """Every repetition of one multi-class dataset: ``rows`` of ``features``,
    grouped by suite, class count and ``dims``."""
    rows = tuple(rows)
    group = {"suite": suite,
             "n_classes": len({features.labels[i] for i in rows}), **dims}
    return [CellJob(group, "", rep, rows) for rep in range(config.repetitions)]


_WORKER: dict = {}


def _init_worker(features: FeatureMatrix, config: ExperimentConfig) -> None:
    _WORKER["features"] = features
    _WORKER["config"] = config
    # the label index every binary cell reads, built once per suite
    _WORKER["by_label"] = features.by_label()


def _cell_job(job: CellJob) -> list[CellResult]:
    features: FeatureMatrix = _WORKER["features"]
    config: ExperimentConfig = _WORKER["config"]
    try:
        if job.target_ev:
            value = job.group["balance_value"]
            seed = _cell_seed(config.master_seed, job.repetition,
                              f"{job.target_ev}|{value}")
            # spawn is stateful: the dataset's child comes before run_cell's
            dataset = build_binary_dataset(features, job.target_ev, config,
                                           value, seed.spawn(1)[0],
                                           _WORKER["by_label"])
        else:
            seed = _cell_seed(config.master_seed, job.repetition,
                              _group_token(job.group))
            dataset = features.take(job.rows)
        return run_cell(job, dataset, config, seed)
    except ValueError as exc:
        return _failed_cells(job, config.families, str(exc))


def run_cells(config: ExperimentConfig, features: FeatureMatrix,
              jobs: Sequence[CellJob]) -> ExperimentReport:
    """Run ``jobs`` over ``features`` in one worker pool; cells keep job order."""
    if config.workers <= 1:
        _init_worker(features, config)
        try:
            nested = [_cell_job(job) for job in jobs]
        finally:
            _WORKER.clear()
    else:
        with multiprocessing.Pool(config.workers, initializer=_init_worker,
                                  initargs=(features, config)) as pool:
            nested = pool.map(_cell_job, jobs, chunksize=1)
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CELL_COLUMNS)
        for c in report.cells:
            writer.writerow([
                c.group.get("suite", ""), _group_token(c.group), c.target_ev,
                c.repetition, c.classifier, json.dumps(c.best_params, sort_keys=True),
                repr(c.accuracy), repr(c.macro_f1),
                "" if c.positive_f1 is None else repr(c.positive_f1),
                c.n_train, c.n_test, c.status, c.error])


def read_cells_csv(path: str) -> list[CellResult]:
    cells = []
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
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
