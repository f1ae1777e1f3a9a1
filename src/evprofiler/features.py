"""Fixed statistical feature catalog over tail/delta series, scaling,
univariate scoring, and top-k selection.

The catalog is a frozen, ordered list of 67 total functions; a segment pair
yields the catalog once per series under the ``tail__`` and ``delta__``
prefixes, 134 columns in all. Catalog order is the tie-breaking authority
in selection. Every function is total: degenerate inputs (constant series,
short series, empty spectra) map to 0 rather than NaN.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .tail import SegmentPair, segment_corpus


def _diffs(x: np.ndarray) -> np.ndarray:
    return np.diff(x) if x.size >= 2 else np.zeros(0)


def _moments(x: np.ndarray) -> tuple[float, float]:
    return float(np.mean(x)), float(np.var(x))


def _skewness(x: np.ndarray) -> float:
    mu, var = _moments(x)
    if var == 0:
        return 0.0
    return float(np.mean((x - mu) ** 3) / var ** 1.5)


def _kurtosis(x: np.ndarray) -> float:
    # excess kurtosis; 0 for zero-variance series
    mu, var = _moments(x)
    if var == 0:
        return 0.0
    return float(np.mean((x - mu) ** 4) / var ** 2 - 3.0)


def _zero_crossings(x: np.ndarray) -> float:
    above = x > np.mean(x)
    return float(np.count_nonzero(above[1:] != above[:-1]))


def _longest_run(mask: np.ndarray) -> float:
    best = run = 0
    for hit in mask:
        run = run + 1 if hit else 0
        best = max(best, run)
    return float(best)


def _location(x: np.ndarray, take_max: bool, first: bool) -> float:
    # relative location in [0, 1]; last locations are one past the index
    values = x if take_max else -x
    if first:
        return float(np.argmax(values) / x.size)
    return float((x.size - np.argmax(values[::-1])) / x.size)


def _autocorr(x: np.ndarray, lag: int) -> float:
    n = x.size
    if lag >= n:
        return 0.0
    mu, var = _moments(x)
    if var == 0:
        return 0.0
    return float(np.sum((x[:n - lag] - mu) * (x[lag:] - mu)) / ((n - lag) * var))


def _linear_trend(x: np.ndarray) -> tuple[float, float, float]:
    n = x.size
    if n < 2:
        return 0.0, float(x[0]) if n else 0.0, 0.0
    t = np.arange(n, dtype=np.float64)
    t_mu = (n - 1) / 2.0
    x_mu = float(np.mean(x))
    cov = float(np.mean((t - t_mu) * (x - x_mu)))
    var_t = float(np.mean((t - t_mu) ** 2))
    var_x = float(np.var(x))
    slope = cov / var_t
    intercept = x_mu - slope * t_mu
    corr = cov / np.sqrt(var_t * var_x) if var_x > 0 else 0.0
    return slope, intercept, float(corr)


def _peak_count(x: np.ndarray, support: int) -> float:
    n = x.size
    if n < 2 * support + 1:
        return 0.0
    core = x[support:n - support]
    is_peak = np.ones(core.size, dtype=bool)
    for j in range(1, support + 1):
        is_peak &= core > x[support - j:n - support - j]
        is_peak &= core > x[support + j:n - support + j]
    return float(np.count_nonzero(is_peak))


def _binned_entropy(x: np.ndarray, bins: int = 10) -> float:
    if np.min(x) == np.max(x):
        return 0.0
    hist, _ = np.histogram(x, bins=bins)
    p = hist[hist > 0] / x.size
    return float(-np.sum(p * np.log(p)))


def _dft_magnitude(x: np.ndarray, k: int) -> float:
    spectrum = np.abs(np.fft.rfft(x))
    return float(spectrum[k]) if k < spectrum.size else 0.0


def _spectral_centroid(x: np.ndarray) -> float:
    spectrum = np.abs(np.fft.rfft(x))
    total = float(np.sum(spectrum))
    if total == 0:
        return 0.0
    return float(np.sum(np.arange(spectrum.size) * spectrum) / total)


def _c3(x: np.ndarray, lag: int) -> float:
    n = x.size
    if n <= 2 * lag:
        return 0.0
    return float(np.mean(x[:n - 2 * lag] * x[lag:n - lag] * x[2 * lag:]))


def _time_reversal_asymmetry(x: np.ndarray, lag: int) -> float:
    n = x.size
    if n <= 2 * lag:
        return 0.0
    a, b, c = x[:n - 2 * lag], x[lag:n - lag], x[2 * lag:]
    return float(np.mean(c * c * b - b * a * a))


def _ratio_beyond_sigma(x: np.ndarray, r: float) -> float:
    mu, var = _moments(x)
    if var == 0:
        return 0.0
    return float(np.mean(np.abs(x - mu) > r * np.sqrt(var)))


def _build_catalog() -> tuple[tuple[str, Callable[[np.ndarray], float]], ...]:
    entries: list[tuple[str, Callable[[np.ndarray], float]]] = [
        ("length", lambda x: float(x.size)),
        ("mean", lambda x: float(np.mean(x))),
        ("median", lambda x: float(np.median(x))),
        ("variance", lambda x: float(np.var(x))),
        ("std", lambda x: float(np.std(x))),
        ("skewness", _skewness),
        ("kurtosis", _kurtosis),
        ("min", lambda x: float(np.min(x))),
        ("max", lambda x: float(np.max(x))),
        ("range", lambda x: float(np.max(x) - np.min(x))),
        ("quantile_05", lambda x: float(np.quantile(x, 0.05))),
        ("quantile_25", lambda x: float(np.quantile(x, 0.25))),
        ("quantile_75", lambda x: float(np.quantile(x, 0.75))),
        ("quantile_95", lambda x: float(np.quantile(x, 0.95))),
        ("sum", lambda x: float(np.sum(x))),
        ("abs_energy", lambda x: float(np.sum(x * x))),
        ("root_mean_square", lambda x: float(np.sqrt(np.mean(x * x)))),
        ("abs_sum_of_changes", lambda x: float(np.sum(np.abs(_diffs(x))))),
        ("mean_abs_change",
         lambda x: float(np.mean(np.abs(_diffs(x)))) if x.size >= 2 else 0.0),
        ("mean_change",
         lambda x: float((x[-1] - x[0]) / (x.size - 1)) if x.size >= 2 else 0.0),
        ("zero_crossings", _zero_crossings),
        ("count_above_mean", lambda x: float(np.count_nonzero(x > np.mean(x)))),
        ("count_below_mean", lambda x: float(np.count_nonzero(x < np.mean(x)))),
        ("longest_run_above_mean", lambda x: _longest_run(x > np.mean(x))),
        ("longest_run_below_mean", lambda x: _longest_run(x < np.mean(x))),
        ("first_location_of_max", lambda x: _location(x, True, True)),
        ("last_location_of_max", lambda x: _location(x, True, False)),
        ("first_location_of_min", lambda x: _location(x, False, True)),
        ("last_location_of_min", lambda x: _location(x, False, False)),
    ]
    for lag in range(1, 11):
        entries.append((f"autocorrelation_lag{lag}",
                        lambda x, lag=lag: _autocorr(x, lag)))
    entries += [
        ("linear_trend_slope", lambda x: _linear_trend(x)[0]),
        ("linear_trend_intercept", lambda x: _linear_trend(x)[1]),
        ("linear_trend_corr", lambda x: _linear_trend(x)[2]),
        ("peak_count_support_1", lambda x: _peak_count(x, 1)),
        ("peak_count_support_3", lambda x: _peak_count(x, 3)),
        ("peak_count_support_5", lambda x: _peak_count(x, 5)),
        ("complexity", lambda x: float(np.sqrt(np.sum(_diffs(x) ** 2)))),
        ("binned_entropy_10", _binned_entropy),
    ]
    for k in range(1, 11):
        entries.append((f"dft_magnitude_{k}",
                        lambda x, k=k: _dft_magnitude(x, k)))
    entries.append(("spectral_centroid", _spectral_centroid))
    for lag in range(1, 4):
        entries.append((f"c3_lag{lag}", lambda x, lag=lag: _c3(x, lag)))
    for lag in range(1, 4):
        entries.append((f"time_reversal_asymmetry_lag{lag}",
                        lambda x, lag=lag: _time_reversal_asymmetry(x, lag)))
    for r in (1, 2, 3):
        entries.append((f"ratio_beyond_{r}sigma",
                        lambda x, r=r: _ratio_beyond_sigma(x, float(r))))
    return tuple(entries)


CATALOG = _build_catalog()
SERIES_FEATURE_NAMES = tuple(name for name, _ in CATALOG)
FEATURE_NAMES = tuple(f"{prefix}__{name}"
                      for prefix in ("tail", "delta")
                      for name in SERIES_FEATURE_NAMES)
N_FEATURES = len(FEATURE_NAMES)

assert len(SERIES_FEATURE_NAMES) == 67 and N_FEATURES == 134


def series_features_reference(values: np.ndarray) -> np.ndarray:
    """Catalog evaluated feature by feature; the slow reference path."""
    x = np.asarray(values, dtype=np.float64)
    return np.array([func(x) for _, func in CATALOG])


def series_features(values: np.ndarray) -> np.ndarray:
    """The 67 catalog values for one series, in catalog order.

    Single pass sharing moments, diffs, the spectrum, and the trend fit;
    tests pin it to series_features_reference.
    """
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    out = np.empty(67)
    mu = float(np.mean(x))
    var = float(np.var(x))
    std = np.sqrt(var)
    centered = x - mu
    diffs = np.diff(x) if n >= 2 else np.zeros(0)
    xmin, xmax = float(np.min(x)), float(np.max(x))
    above = x > mu
    below = x < mu
    out[0] = n
    out[1] = mu
    out[2] = float(np.median(x))
    out[3] = var
    out[4] = std
    if var == 0:
        out[5] = out[6] = 0.0
    else:
        out[5] = float(np.mean(centered ** 3) / var ** 1.5)
        out[6] = float(np.mean(centered ** 4) / var ** 2 - 3.0)
    out[7], out[8], out[9] = xmin, xmax, xmax - xmin
    out[10:14] = np.quantile(x, (0.05, 0.25, 0.75, 0.95))
    out[14] = float(np.sum(x))
    energy = float(np.sum(x * x))
    out[15] = energy
    out[16] = np.sqrt(energy / n)
    out[17] = float(np.sum(np.abs(diffs)))
    out[18] = float(np.mean(np.abs(diffs))) if n >= 2 else 0.0
    out[19] = float((x[-1] - x[0]) / (n - 1)) if n >= 2 else 0.0
    out[20] = float(np.count_nonzero(above[1:] != above[:-1]))
    out[21] = float(np.count_nonzero(above))
    out[22] = float(np.count_nonzero(below))
    out[23] = _longest_run(above)
    out[24] = _longest_run(below)
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
    out[39], out[40], out[41] = _linear_trend(x)
    out[42] = _peak_count(x, 1)
    out[43] = _peak_count(x, 3)
    out[44] = _peak_count(x, 5)
    out[45] = float(np.sqrt(np.sum(diffs ** 2)))
    out[46] = _binned_entropy(x)
    spectrum = np.abs(np.fft.rfft(x))
    for k in range(1, 11):
        out[46 + k] = float(spectrum[k]) if k < spectrum.size else 0.0
    total = float(np.sum(spectrum))
    out[57] = float(np.sum(np.arange(spectrum.size) * spectrum) / total) if total else 0.0
    for lag in range(1, 4):
        out[57 + lag] = _c3(x, lag)
        out[60 + lag] = _time_reversal_asymmetry(x, lag)
    if var == 0:
        out[64:67] = 0.0
    else:
        absdev = np.abs(centered)
        for r in (1, 2, 3):
            out[63 + r] = float(np.mean(absdev > r * std))
    return out


@dataclass(frozen=True)
class FeatureVector:
    session_id: str
    ev_label: str
    values: np.ndarray  # aligned with FEATURE_NAMES


def extract_features(segment: SegmentPair) -> FeatureVector:
    values = np.concatenate([series_features(segment.tail.values),
                             series_features(segment.delta.values)])
    return FeatureVector(segment.session_id, segment.ev_label or "", values)


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


def matrix_from_vectors(vectors: Sequence[FeatureVector]) -> FeatureMatrix:
    return FeatureMatrix(
        tuple(v.session_id for v in vectors),
        tuple(v.ev_label for v in vectors),
        np.array([v.values for v in vectors]).reshape(len(vectors), N_FEATURES))


def featurize_segments(segments: Iterable[SegmentPair]) -> FeatureMatrix:
    """Feature matrix over segment pairs, one row per pair in input order."""
    vectors = [extract_features(seg) for seg in segments]
    if not vectors:
        raise ValueError("no segments to featurize")
    return matrix_from_vectors(vectors)


def featurize_corpus(corpus, filter_params=None, tail_params=None):
    """Segment and featurize a corpus; returns (matrix, segment_corpus rejects)."""
    segments, rejects = segment_corpus(corpus, filter_params, tail_params)
    return featurize_segments(segments), rejects


def write_feature_csv(matrix: FeatureMatrix, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("session_id", "ev_label") + matrix.names)
        for sid, lab, row in zip(matrix.session_ids, matrix.labels, matrix.x):
            writer.writerow([sid, lab] + [repr(float(v)) for v in row])


def read_feature_csv(path: str) -> FeatureMatrix:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        names = tuple(next(reader)[2:])
        ids, labels, rows = [], [], []
        for parts in reader:
            ids.append(parts[0])
            labels.append(parts[1])
            rows.append([float(v) for v in parts[2:]])
    x = np.array(rows, dtype=np.float64).reshape(len(ids), len(names))
    return FeatureMatrix(tuple(ids), tuple(labels), x, names)


# ---------------------------------------------------------------------------
# scaling and univariate selection

@dataclass(frozen=True)
class MinMaxScaler:
    low: np.ndarray
    high: np.ndarray


def fit_minmax(train: FeatureMatrix) -> MinMaxScaler:
    return MinMaxScaler(train.x.min(axis=0), train.x.max(axis=0))


def apply_minmax(matrix: FeatureMatrix, scaler: MinMaxScaler) -> FeatureMatrix:
    """(x - min) / (max - min), constant columns to 0, clipped to [0, 1]."""
    span = scaler.high - scaler.low
    safe = np.where(span == 0, 1.0, span)
    scaled = (matrix.x - scaler.low) / safe
    scaled = np.where(span == 0, 0.0, scaled)
    np.clip(scaled, 0.0, 1.0, out=scaled)
    return FeatureMatrix(matrix.session_ids, matrix.labels, scaled, matrix.names)


class SelectionError(ValueError):
    pass


def _class_index(labels: Sequence[str]) -> tuple[list[str], np.ndarray]:
    classes = sorted(set(labels))
    lookup = {c: i for i, c in enumerate(classes)}
    return classes, np.array([lookup[l] for l in labels])


def chi2_scores(scaled: FeatureMatrix, labels: Sequence[str]) -> np.ndarray:
    """Per-feature chi-square dependence score on [0, 1]-scaled features.

    observed_k = column sum over class-k rows; expected_k = class row
    fraction times the column total; zero expected contributes zero.
    """
    classes, y = _class_index(labels)
    if len(classes) < 2:
        raise SelectionError("chi2 needs at least two classes")
    n = len(labels)
    onehot = np.zeros((n, len(classes)))
    onehot[np.arange(n), y] = 1.0
    observed = onehot.T @ scaled.x                       # classes x features
    totals = scaled.x.sum(axis=0, keepdims=True)
    fractions = onehot.mean(axis=0).reshape(-1, 1)
    expected = fractions @ totals
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (observed - expected) ** 2 / expected
    terms = np.where(expected == 0, 0.0, terms)
    return terms.sum(axis=0)


def anova_f_scores(matrix: FeatureMatrix, labels: Sequence[str]) -> np.ndarray:
    """One-way ANOVA F per feature; +inf when within-group SS is zero but
    between-group SS is not, 0 when both are zero."""
    classes, y = _class_index(labels)
    k, n = len(classes), len(labels)
    if k < 2:
        raise SelectionError("ANOVA needs at least two classes")
    if n == k:
        raise SelectionError("ANOVA needs residual degrees of freedom (n > k)")
    grand = matrix.x.mean(axis=0)
    ss_between = np.zeros(matrix.x.shape[1])
    ss_within = np.zeros(matrix.x.shape[1])
    for ci in range(k):
        rows = matrix.x[y == ci]
        mean_c = rows.mean(axis=0)
        ss_between += rows.shape[0] * (mean_c - grand) ** 2
        ss_within += ((rows - mean_c) ** 2).sum(axis=0)
    ms_between = ss_between / (k - 1)
    ms_within = ss_within / (n - k)
    out = np.empty(matrix.x.shape[1])
    zero_within = ms_within == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = ms_between / ms_within
    out[zero_within & (ms_between > 0)] = np.inf
    out[zero_within & (ms_between == 0)] = 0.0
    return out


@dataclass(frozen=True)
class SelectionConfig:
    nof: int = 100
    scorer: str = "chi2"  # or "anova-f"

    def __post_init__(self):
        if self.nof < 1:
            raise ValueError("nof must be >= 1")
        if self.scorer not in ("chi2", "anova-f"):
            raise ValueError(f"unknown scorer {self.scorer!r}")


@dataclass(frozen=True)
class SelectionModel:
    """Fitted selector: chosen columns plus the train-set min/max scaler."""

    selected_names: tuple[str, ...]
    selected_idx: tuple[int, ...]
    scaler: MinMaxScaler
    scorer: str

    def transform(self, matrix: FeatureMatrix) -> FeatureMatrix:
        source = apply_minmax(matrix, self.scaler) if self.scorer == "chi2" else matrix
        return FeatureMatrix(matrix.session_ids, matrix.labels,
                             source.x[:, list(self.selected_idx)],
                             self.selected_names)


def select_k_best(scores: np.ndarray, nof: int,
                  names: Sequence[str]) -> tuple[int, ...]:
    """Indices of the top-nof scores, ties broken by catalog order."""
    if nof > len(names):
        warnings.warn(f"nof={nof} exceeds catalog size {len(names)}; clipped")
        nof = len(names)
    order = sorted(range(len(names)), key=lambda i: (-scores[i], i))
    return tuple(sorted(order[:nof]))


def fit_selection(train: FeatureMatrix, labels: Sequence[str],
                  config: SelectionConfig) -> SelectionModel:
    """Fit scaler + scorer + top-k choice on training rows only.

    The chi2 path scores min-max-scaled features; the ANOVA path scores raw
    features. Either way the scaler is fitted so transform() is total.
    """
    scaler = fit_minmax(train)
    if config.scorer == "chi2":
        scores = chi2_scores(apply_minmax(train, scaler), labels)
    else:
        scores = anova_f_scores(train, labels)
    idx = select_k_best(scores, config.nof, train.names)
    return SelectionModel(tuple(train.names[i] for i in idx), idx,
                          scaler, config.scorer)
