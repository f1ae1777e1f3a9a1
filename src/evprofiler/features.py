"""Fixed statistical feature catalog over tail/delta series, and top-k
chi-square selection with min-max scaling of the chosen columns.

``SERIES_FEATURE_NAMES`` names the 67 catalog values that
``series_features`` computes for one series, in order; a segment pair
yields them once per series under the ``tail__`` and ``delta__`` prefixes,
134 columns in all. Catalog order is the tie-breaking authority in
selection. Every value is total on in-range input: degenerate inputs
(constant series, short series, empty spectra) map to 0 rather than NaN.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .filters import median_of_sorted
from .learn import _class_codes
from .tail import SegmentPair, segment_corpus

# catalog quantile levels, read by numpy's 'linear' rule (Hyndman & Fan
# 1996, rule 7)
_QUANTILE_LEVELS = np.array((0.05, 0.25, 0.75, 0.95))


def _longest_runs(above: np.ndarray, below: np.ndarray) -> tuple[float, float]:
    """Longest runs of samples above and below the mean, from one run-length
    pass over the sign of ``x - mu`` (+1 above, -1 below, 0 at the mean)."""
    n = above.size
    sign = above.view(np.int8) - below.view(np.int8)
    # runs start at 0 and wherever the sign changes; n closes the last one
    edge = np.empty(n + 1, dtype=bool)
    edge[0] = edge[n] = True
    np.not_equal(sign[1:], sign[:-1], out=edge[1:n])
    bounds = np.flatnonzero(edge)
    runs = (bounds[1:] - bounds[:-1]) * sign[bounds[:-1]]
    return max(float(runs.max()), 0.0), max(float(-runs.min()), 0.0)


def _location(x: np.ndarray, take_max: bool, first: bool) -> float:
    # relative location in [0, 1]; last locations are one past the index
    values = x if take_max else -x
    if first:
        return float(np.argmax(values) / x.size)
    return float((x.size - np.argmax(values[::-1])) / x.size)


def _linear_trend(x: np.ndarray, mu: float, var: float,
                  centered: np.ndarray) -> tuple[float, float, float]:
    # mu, var and centered = x - mu are series_features' moments, with the
    # bits of np.mean(x), np.var(x) and x - np.mean(x)
    n = x.size
    if n < 2:
        return 0.0, float(x[0]) if n else 0.0, 0.0
    t = np.arange(n, dtype=np.float64)
    t_mu = (n - 1) / 2.0
    cov = float(((t - t_mu) * centered).sum() / n)
    var_t = float(((t - t_mu) ** 2).sum() / n)
    var_x = float(var)
    slope = cov / var_t
    intercept = mu - slope * t_mu
    corr = cov / np.sqrt(var_t * var_x) if var_x > 0 else 0.0
    return slope, intercept, float(corr)


def _peak_counts(x: np.ndarray) -> tuple[float, float, float]:
    """Peak counts at supports 1, 3 and 5: samples above each of their
    ``support`` neighbours on both sides. One cumulative AND over the
    distances j = 1..5 serves all three: ``peak`` covers samples 1..n-2,
    and its slice over samples j..n-1-j has passed every distance up to j.
    """
    n = x.size
    peak = np.ones(max(n - 2, 0), dtype=bool)
    counts = [0.0, 0.0, 0.0]
    for j in range(1, 6):
        if n < 2 * j + 1:
            break
        core = x[j:n - j]
        live = peak[j - 1:n - 1 - j]
        live &= core > x[:n - 2 * j]
        live &= core > x[2 * j:]
        if j % 2:
            counts[j // 2] = float(np.count_nonzero(live))
    return counts[0], counts[1], counts[2]


def _sorted_quantiles(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``np.quantile(x, _QUANTILE_LEVELS)`` from ``s = np.sort(x)``.

    numpy's 'linear' arithmetic: virtual index v = (n-1)*q between the
    neighbours a = s[floor v] and b = s[floor v + 1], then a + d*t with
    d = b - a and t = v - floor v, overwritten by b - d*(1-t) where
    t >= 0.5. numpy partitions in place of the sort, so the neighbours
    have numpy's values, but -0.0 and 0.0 are equal with different bits
    and neither the sort nor the partition keeps track of which is which.
    So a zero neighbour in a series holding both signs goes to numpy, as
    does n = 1, where numpy clamps both neighbours to the one value.
    """
    n = s.size
    if n == 1:
        return np.quantile(x, _QUANTILE_LEVELS)
    v = (n - 1) * _QUANTILE_LEVELS
    lo = np.floor(v)
    i = lo.astype(np.intp)
    a, b = s[i], s[i + 1]
    if not (a.all() and b.all()):
        signs = np.signbit(x[x == 0])
        if signs.any() and not signs.all():
            return np.quantile(x, _QUANTILE_LEVELS)
    t = v - lo
    d = b - a
    q = a + d * t
    upper = t >= 0.5
    q[upper] = (b - d * (1 - t))[upper]
    return q


def _uniform_histogram(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """``np.histogram(x, bins)[0]`` for strictly increasing edges
    ``np.linspace(x.min(), x.max(), bins + 1)``.

    np.histogram's arithmetic for uniform bins: scale each value to a bin,
    truncate, put the maximum in the last bin, and move a value that the
    rounding left one bin off its edges; then one ``bincount``.
    """
    bins = edges.size - 1
    lo, hi = edges[0], edges[-1]
    index = ((x - lo) / (hi - lo) * bins).astype(np.intp)
    index[index == bins] -= 1
    index[x < edges[index]] -= 1
    index[(x >= edges[index + 1]) & (index != bins - 1)] += 1
    return np.bincount(index, minlength=bins)


def _c3(x: np.ndarray, lag: int) -> float:
    n = x.size
    if n <= 2 * lag:
        return 0.0
    prod = x[:n - 2 * lag] * x[lag:n - lag] * x[2 * lag:]
    return float(prod.sum() / prod.size)


def _time_reversal_asymmetry(x: np.ndarray, lag: int) -> float:
    n = x.size
    if n <= 2 * lag:
        return 0.0
    a, b, c = x[:n - 2 * lag], x[lag:n - lag], x[2 * lag:]
    asym = c * c * b - b * a * a
    return float(asym.sum() / asym.size)


SERIES_FEATURE_NAMES = (
    "length", "mean", "median", "variance", "std", "skewness", "kurtosis",
    "min", "max", "range", "quantile_05", "quantile_25", "quantile_75",
    "quantile_95", "sum", "abs_energy", "root_mean_square",
    "abs_sum_of_changes", "mean_abs_change", "mean_change", "zero_crossings",
    "count_above_mean", "count_below_mean", "longest_run_above_mean",
    "longest_run_below_mean", "first_location_of_max", "last_location_of_max",
    "first_location_of_min", "last_location_of_min", "autocorrelation_lag1",
    "autocorrelation_lag2", "autocorrelation_lag3", "autocorrelation_lag4",
    "autocorrelation_lag5", "autocorrelation_lag6", "autocorrelation_lag7",
    "autocorrelation_lag8", "autocorrelation_lag9", "autocorrelation_lag10",
    "linear_trend_slope", "linear_trend_intercept", "linear_trend_corr",
    "peak_count_support_1", "peak_count_support_3", "peak_count_support_5",
    "complexity", "binned_entropy_10", "dft_magnitude_1", "dft_magnitude_2",
    "dft_magnitude_3", "dft_magnitude_4", "dft_magnitude_5",
    "dft_magnitude_6", "dft_magnitude_7", "dft_magnitude_8",
    "dft_magnitude_9", "dft_magnitude_10", "spectral_centroid", "c3_lag1",
    "c3_lag2", "c3_lag3", "time_reversal_asymmetry_lag1",
    "time_reversal_asymmetry_lag2", "time_reversal_asymmetry_lag3",
    "ratio_beyond_1sigma", "ratio_beyond_2sigma", "ratio_beyond_3sigma",
)
FEATURE_NAMES = tuple(f"{prefix}__{name}"
                      for prefix in ("tail", "delta")
                      for name in SERIES_FEATURE_NAMES)
N_FEATURES = len(FEATURE_NAMES)

assert len(SERIES_FEATURE_NAMES) == 67 and N_FEATURES == 134


def series_features(values: np.ndarray) -> np.ndarray:
    """The 67 catalog values for one series, in catalog order.

    Single pass sharing moments, diffs, the spectrum, and the trend fit.
    One sort serves the median and the quantiles; means are ``sum / size``
    and the histogram is counted by one ``bincount``, each with the bits
    of the ``np.median``, ``np.quantile``, ``np.mean`` or ``np.histogram``
    call it replaces but without its per-call overhead. Tests pin it to a
    per-feature reference and, bit for bit, to those numpy calls.
    """
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    out = np.empty(67)
    s = np.sort(x)
    x_sum = x.sum()
    mu = float(x_sum / n)
    centered = x - mu
    # np.var's arithmetic; a numpy float, so var ** 2 past range is inf
    var = (centered * centered).sum() / n
    std = np.sqrt(var)
    diffs = x[1:] - x[:-1]
    xmin, xmax = float(x.min()), float(x.max())
    above = x > mu
    below = x < mu
    out[0] = n
    out[1] = mu
    out[2] = median_of_sorted(s)
    out[3] = var
    out[4] = std
    if var ** 2 == 0:
        out[5] = out[6] = 0.0
    else:
        out[5] = float((centered ** 3).sum() / n / var ** 1.5)
        out[6] = float((centered ** 4).sum() / n / var ** 2 - 3.0)
    out[7], out[8], out[9] = xmin, xmax, xmax - xmin
    out[10:14] = _sorted_quantiles(x, s)
    out[14] = x_sum
    energy = float(np.sum(x * x))
    out[15] = energy
    out[16] = np.sqrt(energy / n)
    abs_changes = float(np.abs(diffs).sum())
    out[17] = abs_changes
    out[18] = abs_changes / (n - 1) if n >= 2 else 0.0
    out[19] = float((x[-1] - x[0]) / (n - 1)) if n >= 2 else 0.0
    out[20] = float(np.count_nonzero(above[1:] != above[:-1]))
    out[21] = float(np.count_nonzero(above))
    out[22] = float(np.count_nonzero(below))
    out[23], out[24] = _longest_runs(above, below)
    out[25] = _location(x, True, True)
    out[26] = _location(x, True, False)
    out[27] = _location(x, False, True)
    out[28] = _location(x, False, False)
    for lag in range(1, 11):
        if var == 0 or lag >= n:
            out[28 + lag] = 0.0
        else:
            out[28 + lag] = float(np.dot(centered[:n - lag], centered[lag:])
                                  / ((n - lag) * var))
    out[39], out[40], out[41] = _linear_trend(x, mu, var, centered)
    out[42:45] = _peak_counts(x)
    out[45] = float(np.sqrt((diffs ** 2).sum()))
    # binned entropy over 10 equal bins, 0 for a range too narrow for
    # distinct float edges (constant series included)
    edges = np.linspace(xmin, xmax, 11)
    if (edges[:-1] < edges[1:]).all():
        counts = _uniform_histogram(x, edges)
        p = counts[counts > 0] / n
        out[46] = float(-(p * np.log(p)).sum())
    else:
        out[46] = 0.0
    spectrum = np.abs(np.fft.rfft(x))
    for k in range(1, 11):
        out[46 + k] = float(spectrum[k]) if k < spectrum.size else 0.0
    total = float(spectrum.sum())
    out[57] = float((np.arange(spectrum.size) * spectrum).sum() / total) if total else 0.0
    for lag in range(1, 4):
        out[57 + lag] = _c3(x, lag)
        out[60 + lag] = _time_reversal_asymmetry(x, lag)
    if var == 0:
        out[64:67] = 0.0
    else:
        absdev = np.abs(centered)
        for r in (1, 2, 3):
            out[63 + r] = np.count_nonzero(absdev > r * std) / n
    return out


def extract_features(segment: SegmentPair) -> np.ndarray:
    """The 134 values of one segment pair, aligned with FEATURE_NAMES."""
    # an out-of-range series overflows to inf or nan, which FeatureMatrix
    # rejects as non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        return np.concatenate([series_features(segment.tail.values),
                               series_features(segment.delta.values)])


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Rectangular session-by-feature matrix with per-row labels."""

    session_ids: tuple[str, ...]
    labels: tuple[str, ...]
    x: np.ndarray
    names: tuple[str, ...] = FEATURE_NAMES

    def __post_init__(self):
        if self.x.ndim != 2 or self.x.shape != (len(self.session_ids), len(self.names)):
            raise ValueError("matrix shape must be (rows, features)")
        if len(self.labels) != len(self.session_ids):
            raise ValueError("one label per row required")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("feature matrix must be finite")

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]

    def take(self, rows: Sequence[int]) -> "FeatureMatrix":
        rows = list(rows)
        return FeatureMatrix(
            tuple(self.session_ids[i] for i in rows),
            tuple(self.labels[i] for i in rows),
            self.x[rows], self.names)

    def by_label(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for i, lab in enumerate(self.labels):
            out.setdefault(lab, []).append(i)
        return out


def featurize_segments(segments: Iterable[SegmentPair]) -> FeatureMatrix:
    """Feature matrix over segment pairs, one row per pair in input order."""
    ids, labels, rows = [], [], []
    for segment in segments:
        ids.append(segment.session_id)
        labels.append(segment.ev_label or "")
        rows.append(extract_features(segment))
    if not rows:
        raise ValueError("no segments to featurize")
    return FeatureMatrix(tuple(ids), tuple(labels), np.array(rows))


def featurize_corpus(corpus, filter_params=None, tail_params=None):
    """Segment and featurize a corpus; returns (matrix, segment_corpus rejects)."""
    segments, rejects = segment_corpus(corpus, filter_params, tail_params)
    return featurize_segments(segments), rejects


def write_feature_csv(matrix: FeatureMatrix, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("session_id", "ev_label") + matrix.names)
        for sid, lab, row in zip(matrix.session_ids, matrix.labels, matrix.x):
            writer.writerow([sid, lab, *map(repr, row.tolist())])


def read_feature_csv(path: str) -> FeatureMatrix:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        names = tuple(next(reader, [])[2:])
        ids, labels, rows = [], [], []
        for parts in reader:
            if not parts:  # a blank line, as csv.DictReader skips them
                continue
            if len(parts) != len(names) + 2:
                raise ValueError(f"{path}: line {reader.line_num} has {len(parts)} "
                                 f"cells, the header has {len(names) + 2}")
            ids.append(parts[0])
            labels.append(parts[1])
            rows.append(np.array(parts[2:], dtype=np.float64))
    if not ids:
        raise ValueError(f"{path}: no feature rows")
    return FeatureMatrix(tuple(ids), tuple(labels), np.array(rows), names)


# ---------------------------------------------------------------------------
# univariate selection

def _scale(x: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """(x - low) / (high - low), constant columns to 0, clipped to [0, 1]."""
    span = high - low
    safe = np.where(span == 0, 1.0, span)
    scaled = (x - low) / safe
    scaled = np.where(span == 0, 0.0, scaled)
    np.clip(scaled, 0.0, 1.0, out=scaled)
    return scaled


class SelectionError(ValueError):
    pass


def chi2_scores(scaled: np.ndarray, labels: Sequence[str]) -> np.ndarray:
    """Per-column chi-square dependence score of a [0, 1]-scaled array.

    observed_k = column sum over class-k rows; expected_k = class row
    fraction times the column total; zero expected contributes zero.
    """
    classes, y = _class_codes(labels)
    if len(classes) < 2:
        raise SelectionError("chi2 needs at least two classes")
    n = y.size
    onehot = np.zeros((n, len(classes)))
    onehot[np.arange(n), y] = 1.0
    observed = onehot.T @ scaled                         # classes x features
    totals = scaled.sum(axis=0, keepdims=True)
    fractions = onehot.mean(axis=0).reshape(-1, 1)
    expected = fractions @ totals
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (observed - expected) ** 2 / expected
    terms = np.where(expected == 0, 0.0, terms)
    return terms.sum(axis=0)


@dataclass(frozen=True)
class SelectionModel:
    """Fitted selector: the chosen columns and their training min and max."""

    selected_names: tuple[str, ...]
    selected_idx: tuple[int, ...]
    low: np.ndarray
    high: np.ndarray

    def transform(self, matrix: FeatureMatrix) -> FeatureMatrix:
        """The chosen columns of ``matrix``, scaled by their training range."""
        x = matrix.x[:, list(self.selected_idx)]
        return FeatureMatrix(matrix.session_ids, matrix.labels,
                             _scale(x, self.low, self.high),
                             self.selected_names)


def select_k_best(scores: np.ndarray, nof: int,
                  names: Sequence[str]) -> tuple[int, ...]:
    """Indices of the top-nof scores, ties broken by catalog order."""
    if nof > len(names):
        warnings.warn(f"nof={nof} exceeds catalog size {len(names)}; clipped")
        nof = len(names)
    order = sorted(range(len(names)), key=lambda i: (-scores[i], i))
    return tuple(sorted(order[:nof]))


def fit_selection(train: FeatureMatrix, nof: int) -> SelectionModel:
    """The top-``nof`` chi-square columns of the min-max scaled training
    rows, scored against ``train.labels``, and those columns' training range."""
    low, high = train.x.min(axis=0), train.x.max(axis=0)
    idx = select_k_best(chi2_scores(_scale(train.x, low, high), train.labels),
                        nof, train.names)
    cols = list(idx)
    return SelectionModel(tuple(train.names[i] for i in idx), idx,
                          low[cols], high[cols])
