"""Feature catalog, scaling, and univariate selection tests.

The single-pass ``series_features`` is pinned to a per-feature reference
catalog kept here, and bit for bit to the numpy-per-call version it
replaced, kept here too; its sorted quantiles and histogram are pinned to
``np.quantile`` and ``np.histogram``. chi-square is checked against a naive per-feature
reference on random small matrices and against the frozen hand-computed
examples; ANOVA-F, which selection does not use, is a test-side statistic
checked the same way.
"""

from typing import Callable, Sequence

import numpy as np
import pytest

from evprofiler.features import (_QUANTILE_LEVELS, FEATURE_NAMES,
                                 SERIES_FEATURE_NAMES, FeatureMatrix,
                                 SelectionError, _location, _longest_runs,
                                 _peak_counts, _sorted_quantiles,
                                 _uniform_histogram, chi2_scores,
                                 extract_features, featurize_segments,
                                 fit_selection,
                                 read_feature_csv, select_k_best,
                                 series_features, write_feature_csv)
from evprofiler.ingest import TimeSeries
from evprofiler.learn import _class_codes
from evprofiler.tail import SegmentPair


# ---------------------------------------------------------------------------
# series_features as it was before its per-series fast paths, with the
# helpers that changed: np.median, np.quantile, np.histogram, np.var and
# np.mean per call. The fast path must give its bits, -0.0 against 0.0
# included; the per-feature catalog below shares its helpers.

def numpy_linear_trend(x: np.ndarray) -> tuple[float, float, float]:
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


def numpy_binned_entropy(x: np.ndarray, bins: int = 10) -> float:
    # 0 for a range too narrow for distinct float edges, constant included
    edges = np.linspace(np.min(x), np.max(x), bins + 1)
    if not np.all(edges[:-1] < edges[1:]):
        return 0.0
    hist, _ = np.histogram(x, bins=bins)
    p = hist[hist > 0] / x.size
    return float(-np.sum(p * np.log(p)))


def numpy_c3(x: np.ndarray, lag: int) -> float:
    n = x.size
    if n <= 2 * lag:
        return 0.0
    return float(np.mean(x[:n - 2 * lag] * x[lag:n - lag] * x[2 * lag:]))


def numpy_time_reversal_asymmetry(x: np.ndarray, lag: int) -> float:
    n = x.size
    if n <= 2 * lag:
        return 0.0
    a, b, c = x[:n - 2 * lag], x[lag:n - lag], x[2 * lag:]
    return float(np.mean(c * c * b - b * a * a))


def numpy_series_features(values: np.ndarray) -> np.ndarray:
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    out = np.empty(67)
    mu = float(np.mean(x))
    var = np.var(x)  # numpy float: var ** 2 past range is inf, no exception
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
    if var ** 2 == 0:
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
    out[23] = reference_longest_run(above)
    out[24] = reference_longest_run(below)
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
    out[39], out[40], out[41] = numpy_linear_trend(x)
    out[42] = reference_peak_count(x, 1)
    out[43] = reference_peak_count(x, 3)
    out[44] = reference_peak_count(x, 5)
    out[45] = float(np.sqrt(np.sum(diffs ** 2)))
    out[46] = numpy_binned_entropy(x)
    spectrum = np.abs(np.fft.rfft(x))
    for k in range(1, 11):
        out[46 + k] = float(spectrum[k]) if k < spectrum.size else 0.0
    total = float(np.sum(spectrum))
    out[57] = float(np.sum(np.arange(spectrum.size) * spectrum) / total) if total else 0.0
    for lag in range(1, 4):
        out[57 + lag] = numpy_c3(x, lag)
        out[60 + lag] = numpy_time_reversal_asymmetry(x, lag)
    if var == 0:
        out[64:67] = 0.0
    else:
        absdev = np.abs(centered)
        for r in (1, 2, 3):
            out[63 + r] = float(np.mean(absdev > r * std))
    return out


# ---------------------------------------------------------------------------
# the per-feature catalog that series_features is pinned to: one function
# per value, evaluated feature by feature

def _diffs(x: np.ndarray) -> np.ndarray:
    return np.diff(x) if x.size >= 2 else np.zeros(0)


def _moments(x: np.ndarray) -> tuple[float, float]:
    return float(np.mean(x)), float(np.var(x))


def _skewness(x: np.ndarray) -> float:
    mu, var = _moments(x)
    if var ** 2 == 0:  # var is 0, or its square underflows
        return 0.0
    return float(np.mean((x - mu) ** 3) / var ** 1.5)


def _kurtosis(x: np.ndarray) -> float:
    # excess kurtosis; 0 for zero-variance series
    mu, var = _moments(x)
    if var ** 2 == 0:  # var is 0, or its square underflows
        return 0.0
    return float(np.mean((x - mu) ** 4) / var ** 2 - 3.0)


def _zero_crossings(x: np.ndarray) -> float:
    above = x > np.mean(x)
    return float(np.count_nonzero(above[1:] != above[:-1]))


def _autocorr(x: np.ndarray, lag: int) -> float:
    n = x.size
    if lag >= n:
        return 0.0
    mu, var = _moments(x)
    if var == 0:
        return 0.0
    return float(np.sum((x[:n - lag] - mu) * (x[lag:] - mu)) / ((n - lag) * var))


def _dft_magnitude(x: np.ndarray, k: int) -> float:
    spectrum = np.abs(np.fft.rfft(x))
    return float(spectrum[k]) if k < spectrum.size else 0.0


def _spectral_centroid(x: np.ndarray) -> float:
    spectrum = np.abs(np.fft.rfft(x))
    total = float(np.sum(spectrum))
    if total == 0:
        return 0.0
    return float(np.sum(np.arange(spectrum.size) * spectrum) / total)


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
        ("longest_run_above_mean",
         lambda x: reference_longest_run(x > np.mean(x))),
        ("longest_run_below_mean",
         lambda x: reference_longest_run(x < np.mean(x))),
        ("first_location_of_max", lambda x: _location(x, True, True)),
        ("last_location_of_max", lambda x: _location(x, True, False)),
        ("first_location_of_min", lambda x: _location(x, False, True)),
        ("last_location_of_min", lambda x: _location(x, False, False)),
    ]
    for lag in range(1, 11):
        entries.append((f"autocorrelation_lag{lag}",
                        lambda x, lag=lag: _autocorr(x, lag)))
    entries += [
        ("linear_trend_slope", lambda x: numpy_linear_trend(x)[0]),
        ("linear_trend_intercept", lambda x: numpy_linear_trend(x)[1]),
        ("linear_trend_corr", lambda x: numpy_linear_trend(x)[2]),
        ("peak_count_support_1", lambda x: reference_peak_count(x, 1)),
        ("peak_count_support_3", lambda x: reference_peak_count(x, 3)),
        ("peak_count_support_5", lambda x: reference_peak_count(x, 5)),
        ("complexity", lambda x: float(np.sqrt(np.sum(_diffs(x) ** 2)))),
        ("binned_entropy_10", numpy_binned_entropy),
    ]
    for k in range(1, 11):
        entries.append((f"dft_magnitude_{k}",
                        lambda x, k=k: _dft_magnitude(x, k)))
    entries.append(("spectral_centroid", _spectral_centroid))
    for lag in range(1, 4):
        entries.append((f"c3_lag{lag}", lambda x, lag=lag: numpy_c3(x, lag)))
    for lag in range(1, 4):
        entries.append((f"time_reversal_asymmetry_lag{lag}",
                        lambda x, lag=lag: numpy_time_reversal_asymmetry(x, lag)))
    for r in (1, 2, 3):
        entries.append((f"ratio_beyond_{r}sigma",
                        lambda x, r=r: _ratio_beyond_sigma(x, float(r))))
    return tuple(entries)


CATALOG = _build_catalog()


def reference_series_features(values: np.ndarray) -> np.ndarray:
    """Catalog evaluated feature by feature; the slow reference path."""
    x = np.asarray(values, dtype=np.float64)
    return np.array([func(x) for _, func in CATALOG])


def feature(values, name):
    x = np.asarray(values, dtype=np.float64)
    return series_features(x)[SERIES_FEATURE_NAMES.index(name)]


def reference_longest_run(mask):
    """The per-sample loop that run boundaries replaced."""
    best = run = 0
    for hit in mask:
        run = run + 1 if hit else 0
        best = max(best, run)
    return float(best)


def reference_peak_count(x, support):
    """The per-sample loop: a peak is above each of its ``support``
    neighbours on both sides."""
    n = len(x)
    return float(sum(all(x[i] > x[i - j] and x[i] > x[i + j]
                         for j in range(1, support + 1))
                     for i in range(support, n - support)))


def small_matrix(x, labels, names=None):
    x = np.asarray(x, dtype=np.float64)
    names = names or tuple(f"f{i}" for i in range(x.shape[1]))
    ids = tuple(f"s{i}" for i in range(x.shape[0]))
    return FeatureMatrix(ids, tuple(labels), x, tuple(names))


class TestCatalog:
    def test_size_and_order_frozen(self):
        assert len(SERIES_FEATURE_NAMES) == 67
        assert SERIES_FEATURE_NAMES == tuple(name for name, _ in CATALOG)
        assert len(FEATURE_NAMES) == 134
        assert FEATURE_NAMES[0] == "tail__length"
        assert FEATURE_NAMES[67] == "delta__length"

    def test_constant_series_degenerates(self):
        assert feature([5, 5, 5, 5], "variance") == 0.0
        assert feature([5, 5, 5, 5], "autocorrelation_lag1") == 0.0
        assert feature([5, 5, 5, 5], "abs_sum_of_changes") == 0.0
        assert feature([5, 5, 5, 5], "skewness") == 0.0
        assert feature([5, 5, 5, 5], "binned_entropy_10") == 0.0
        assert feature([5, 5, 5, 5], "linear_trend_corr") == 0.0

    def test_ramp_series(self):
        assert feature([0, 1, 2, 3], "linear_trend_slope") == pytest.approx(1.0)
        assert feature([0, 1, 2, 3], "mean_change") == pytest.approx(1.0)
        assert feature([0, 1, 2, 3], "zero_crossings") == 1.0

    def test_alternating_series(self):
        x = [1, -1, 1, -1]
        assert feature(x, "mean") == 0.0
        assert feature(x, "abs_energy") == 4.0
        assert feature(x, "mean_abs_change") == 2.0

    def test_all_values_finite_on_awkward_inputs(self):
        cases = [np.zeros(1), np.zeros(3), np.array([1.0]),
                 np.array([-2.0, -2.0]), np.arange(5.0),
                 np.array([1e8, -1e8, 1e8])]
        for x in cases:
            values = series_features(x)
            assert values.shape == (67,)
            assert np.all(np.isfinite(values))

    def test_extracted_vector_is_total(self):
        segment = SegmentPair("S", "EV", TimeSeries(np.full(30, 4.0)),
                              TimeSeries(np.arange(1.0, 41.0)), 40, 70)
        values = extract_features(segment)
        assert values.shape == (134,)
        assert np.all(np.isfinite(values))

    def test_featurize_segments_keeps_input_order(self):
        segments = [SegmentPair(f"S{i}", "EV", TimeSeries(np.full(30, 4.0 + i)),
                                TimeSeries(np.arange(1.0, 41.0)), 40, 70)
                    for i in range(3)]
        matrix = featurize_segments(iter(segments))
        assert matrix.session_ids == ("S0", "S1", "S2")
        assert matrix.labels == ("EV", "EV", "EV")
        np.testing.assert_array_equal(matrix.x[1],
                                      extract_features(segments[1]))
        with pytest.raises(ValueError, match="no segments"):
            featurize_segments([])

    def test_known_values_spot_checks(self):
        assert feature([3, 1, 2], "median") == 2.0
        assert feature([0, 0, 9, 0], "max") == 9.0
        assert feature([1, 2, 3, 4], "sum") == 10.0
        assert feature([2, 4], "root_mean_square") == pytest.approx(np.sqrt(10))
        assert feature([0, 5, 0, 5, 0], "peak_count_support_1") == 2.0
        # one clean peak with support 3 on an 11-point bump
        bump = [0, 1, 2, 3, 9, 3, 2, 1, 0, -1, -2]
        assert feature(bump, "peak_count_support_3") == 1.0
        assert feature([0, 3, 0, 0], "complexity") == pytest.approx(
            np.sqrt(9 + 9))
        assert feature([1, 2, 2, 3], "count_above_mean") == 1.0
        assert feature([1, 2, 2, 3], "count_below_mean") == 1.0

    def test_autocorrelation_of_alternating_sign(self):
        x = np.array([1.0, -1.0] * 20)
        assert feature(x, "autocorrelation_lag1") == pytest.approx(-1.0, abs=1e-6)
        assert feature(x, "autocorrelation_lag2") == pytest.approx(1.0, abs=1e-6)

    def test_fast_path_matches_reference_catalog(self):
        rng = np.random.default_rng(3)
        cases = [np.zeros(1), np.zeros(5), np.array([2.0]), np.arange(4.0)]
        cases += [rng.normal(0, 3, int(rng.integers(1, 300))) for _ in range(60)]
        for x in cases:
            np.testing.assert_allclose(series_features(x),
                                       reference_series_features(x),
                                       rtol=1e-12, atol=1e-12)

    def test_total_and_matches_reference_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")
        # any finite value whose fourth power, summed over the series, is
        # still a float: subnormals and both zeros included
        value = st.floats(-1e60, 1e60)
        lengths = st.integers(1, 60)
        series = st.one_of(
            hnp.arrays(np.float64, lengths, elements=value),
            st.builds(np.full, lengths, value),
            hnp.arrays(np.float64, lengths, elements=st.sampled_from([-0.0, 0.0])))

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(x=series)
        @hypothesis.example(x=np.array([-0.0]))
        @hypothesis.example(x=np.array([0.0, -0.0]))
        @hypothesis.example(x=np.array([5e-324, 0.0]))  # no 10 distinct bins
        @hypothesis.example(x=np.full(13, 3.5e-85))     # var ** 2 underflows
        def check(x):
            values = series_features(x)
            assert np.all(np.isfinite(values))
            np.testing.assert_allclose(values, reference_series_features(x),
                                       rtol=1e-12, atol=1e-12)

        check()

    def test_longest_run_equals_per_sample_loop(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")

        # the sign of x - mu: +1 above the mean, -1 below, 0 at it
        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(sign=hnp.arrays(np.int8, st.integers(1, 80),
                                          elements=st.integers(-1, 1),
                                          fill=st.nothing()))
        @hypothesis.example(sign=np.ones(9, dtype=np.int8))
        @hypothesis.example(sign=-np.ones(9, dtype=np.int8))
        @hypothesis.example(sign=np.zeros(9, dtype=np.int8))
        @hypothesis.example(sign=np.array([1], dtype=np.int8))
        @hypothesis.example(sign=np.array([-1], dtype=np.int8))
        @hypothesis.example(sign=np.array([0], dtype=np.int8))
        def check(sign):
            above, below = sign > 0, sign < 0
            assert _longest_runs(above, below) == (reference_longest_run(above),
                                                   reference_longest_run(below))

        check()

    def test_peak_counts_equal_per_sample_loop(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")

        # few values, so plateaus are common; lengths around 2s+1 for every
        # support s, where a sample first has s neighbours on both sides
        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(x=hnp.arrays(
            np.float64, st.one_of(st.integers(0, 13), st.integers(14, 60)),
            elements=st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0, 3.0])))
        @hypothesis.example(x=np.array([0.0, 1.0, 0.0]))
        @hypothesis.example(x=np.array([0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0]))
        @hypothesis.example(x=np.r_[np.zeros(5), 1.0, np.zeros(5)])
        @hypothesis.example(x=np.r_[np.zeros(5), 1.0, np.zeros(4)])
        @hypothesis.example(x=np.array([0.0, 2.0, 2.0, 0.0]))
        def check(x):
            assert _peak_counts(x) == tuple(reference_peak_count(x, s)
                                            for s in (1, 3, 5))

        check()

    def test_scale_properties(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            x = rng.normal(3, 2, int(rng.integers(20, 200)))
            c = float(rng.uniform(0.5, 4.0))
            assert feature(x * c, "mean") == pytest.approx(c * feature(x, "mean"))
            assert feature(x * c, "max") == pytest.approx(c * feature(x, "max"))
            assert feature(x * c, "zero_crossings") == feature(x, "zero_crossings")
            for lag in (1, 3):
                name = f"autocorrelation_lag{lag}"
                assert feature(x * c, name) == pytest.approx(feature(x, name),
                                                             abs=1e-9)


def _bit_exact_series(st, hnp, max_len=80):
    """Series on which a changed rounding or signed zero would show: ties
    and -0.0 (values rounded to 1 decimal), constants, n = 1 to 3, ranges a
    few ulps wide near 1e-300 and in the subnormals, where histogram edges
    collapse, and |x| up to 1e60."""
    lengths = st.integers(1, max_len)
    wide = st.floats(-1e60, 1e60)
    ulps = hnp.arrays(np.int64, lengths, elements=st.integers(-12, 12))
    return st.one_of(
        hnp.arrays(np.float64, lengths,
                   elements=st.floats(-3, 3).map(lambda v: round(v, 1))),
        st.builds(np.full, lengths, wide),
        hnp.arrays(np.float64, st.integers(1, 3), elements=wide),
        st.builds(lambda k, base: base + k * np.spacing(base), ulps,
                  st.sampled_from([1e-300, -1e-300, 0.0, 2.5])),
        hnp.arrays(np.float64, lengths, elements=wide))


def assert_same_bits(got, want, names=SERIES_FEATURE_NAMES):
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert [names[i] for i in differ] == [], (got[differ], want[differ])


class TestFastPathBits:
    """series_features, its quantiles and its histogram against the numpy
    calls they replaced, compared bit for bit."""

    def test_series_features_equal_numpy_oracle(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")

        @hypothesis.settings(max_examples=600, deadline=None)
        @hypothesis.given(x=_bit_exact_series(st, hnp))
        @hypothesis.example(x=np.array([-0.0]))
        @hypothesis.example(x=np.array([0.0, -0.0, -0.0]))
        @hypothesis.example(x=np.array([-0.1, -0.0, 0.0, -0.0, 0.2]))
        @hypothesis.example(x=np.array([1e-300, 1e-300 + 2e-316, 1e-300]))
        def check(x):
            assert_same_bits(series_features(x), numpy_series_features(x))

        check()

    def test_series_features_equal_numpy_oracle_on_long_series(self):
        # lengths of real tails and deltas, where numpy's partition and the
        # sort order equal values differently
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(20, 1000))
            x = rng.normal(0, 10, n)
            if rng.random() < 0.5:
                x = np.round(rng.normal(0, 0.3, n), 1)
            assert_same_bits(series_features(x), numpy_series_features(x))

    def test_sorted_quantiles_equal_np_quantile(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")
        signed_zeros = hnp.arrays(
            np.float64, st.integers(1, 400),
            elements=st.sampled_from([-0.0, 0.0, 0.1, -0.1]))

        @hypothesis.settings(max_examples=400, deadline=None)
        @hypothesis.given(x=st.one_of(_bit_exact_series(st, hnp), signed_zeros))
        @hypothesis.example(x=np.array([-0.0]))
        @hypothesis.example(x=np.tile([-0.0, 0.0], 150))
        def check(x):
            got = _sorted_quantiles(x, np.sort(x))
            want = np.quantile(x, _QUANTILE_LEVELS)
            assert got.tobytes() == want.tobytes(), (got, want)

        check()

    def test_uniform_histogram_equals_np_histogram(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")

        @hypothesis.settings(max_examples=400, deadline=None)
        @hypothesis.given(x=_bit_exact_series(st, hnp),
                          bins=st.sampled_from([10, 3, 7]))
        def check(x, bins):
            edges = np.linspace(x.min(), x.max(), bins + 1)
            hypothesis.assume(np.all(edges[:-1] < edges[1:]))
            want, want_edges = np.histogram(x, bins=bins)
            np.testing.assert_array_equal(edges, want_edges)
            np.testing.assert_array_equal(_uniform_histogram(x, edges), want)

        check()


class TestMinMax:
    """Selection scales its columns by their training min and max."""

    @staticmethod
    def scale(train, matrix):
        return fit_selection(train, train.x.shape[1]).transform(matrix).x

    def test_affine_map(self):
        m = small_matrix([[2.0], [4.0], [6.0]], ["a", "a", "b"])
        np.testing.assert_allclose(self.scale(m, m)[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        m = small_matrix([[3.0], [3.0]], ["a", "b"])
        np.testing.assert_allclose(self.scale(m, m)[:, 0], [0.0, 0.0])

    def test_test_values_clipped(self):
        train = small_matrix([[2.0], [6.0]], ["a", "b"])
        test = small_matrix([[8.0], [0.0]], ["a", "b"])
        np.testing.assert_allclose(self.scale(train, test)[:, 0], [1.0, 0.0])


def naive_chi2(x, labels):
    classes = sorted(set(labels))
    n = len(labels)
    scores = []
    for f in range(x.shape[1]):
        total = sum(x[:, f])
        score = 0.0
        for c in classes:
            rows = [i for i, l in enumerate(labels) if l == c]
            observed = sum(x[i, f] for i in rows)
            expected = len(rows) / n * total
            if expected != 0:
                score += (observed - expected) ** 2 / expected
        scores.append(score)
    return np.array(scores)


def anova_f_scores(matrix: FeatureMatrix, labels: Sequence[str]) -> np.ndarray:
    """One-way ANOVA F per feature; +inf when within-group SS is zero but
    between-group SS is not, 0 when both are zero."""
    classes, y = _class_codes(labels)
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
    zero_within = ms_within == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = ms_between / ms_within
    out[zero_within & (ms_between > 0)] = np.inf
    out[zero_within & (ms_between == 0)] = 0.0
    return out


def naive_anova_f(x, labels):
    classes = sorted(set(labels))
    n, k = len(labels), len(classes)
    scores = []
    for f in range(x.shape[1]):
        grand = np.mean(x[:, f])
        ssb = ssw = 0.0
        for c in classes:
            vals = np.array([x[i, f] for i, l in enumerate(labels) if l == c])
            ssb += len(vals) * (vals.mean() - grand) ** 2
            ssw += float(np.sum((vals - vals.mean()) ** 2))
        msb = ssb / (k - 1)
        msw = ssw / (n - k)
        if msw == 0:
            scores.append(np.inf if msb > 0 else 0.0)
        else:
            scores.append(msb / msw)
    return np.array(scores)


class TestChi2:
    def test_hand_example_score_half(self):
        m = small_matrix([[1.0], [0.5], [0.0], [0.5]], ["A", "A", "B", "B"])
        np.testing.assert_allclose(chi2_scores(m.x, list(m.labels)), [0.5])

    def test_identical_across_balanced_classes(self):
        m = small_matrix([[0.3], [0.7], [0.3], [0.7]], ["A", "A", "B", "B"])
        np.testing.assert_allclose(chi2_scores(m.x, list(m.labels)), [0.0],
                                   atol=1e-15)

    def test_all_zero_feature(self):
        m = small_matrix([[0.0], [0.0]], ["A", "B"])
        np.testing.assert_allclose(chi2_scores(m.x, list(m.labels)), [0.0])

    def test_single_class_is_error(self):
        m = small_matrix([[0.1], [0.2]], ["A", "A"])
        with pytest.raises(SelectionError):
            chi2_scores(m.x, list(m.labels))

    def test_matches_naive_on_random_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(4, 20))
            d = int(rng.integers(1, 8))
            k = int(rng.integers(2, 4))
            x = rng.uniform(0, 1, (n, d))
            labels = [f"C{rng.integers(k)}" for _ in range(n)]
            if len(set(labels)) < 2:
                continue
            m = small_matrix(x, labels)
            np.testing.assert_allclose(chi2_scores(m.x, labels),
                                       naive_chi2(x, labels), atol=1e-9)


class TestAnovaF:
    def test_hand_example_f_eight(self):
        m = small_matrix([[1.0], [2.0], [3.0], [4.0]], ["A", "A", "B", "B"])
        np.testing.assert_allclose(anova_f_scores(m, list(m.labels)), [8.0])

    def test_zero_within_variance_is_inf(self):
        m = small_matrix([[0.0], [0.0], [1.0], [1.0]], ["A", "A", "B", "B"])
        assert anova_f_scores(m, list(m.labels))[0] == np.inf

    def test_equal_means_is_zero(self):
        m = small_matrix([[1.0], [3.0], [1.0], [3.0]], ["A", "A", "B", "B"])
        np.testing.assert_allclose(anova_f_scores(m, list(m.labels)), [0.0])

    def test_no_residual_dof_is_error(self):
        m = small_matrix([[1.0], [2.0]], ["A", "B"])
        with pytest.raises(SelectionError):
            anova_f_scores(m, list(m.labels))

    def test_matches_naive_on_random_matrices(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(5, 20))
            d = int(rng.integers(1, 8))
            x = rng.normal(0, 1, (n, d))
            labels = [f"C{rng.integers(3)}" for _ in range(n)]
            if len(set(labels)) < 2 or len(set(labels)) == n:
                continue
            m = small_matrix(x, labels)
            np.testing.assert_allclose(anova_f_scores(m, labels),
                                       naive_anova_f(x, labels),
                                       rtol=1e-9, atol=1e-9)


class TestSelectKBest:
    def test_ordering(self):
        idx = select_k_best(np.array([5.0, 2.0, 9.0]), 2, ["a", "b", "c"])
        assert idx == (0, 2)

    def test_tie_broken_by_catalog_order(self):
        idx = select_k_best(np.array([3.0, 3.0]), 1, ["a", "b"])
        assert idx == (0,)

    def test_oversized_nof_clips_with_warning(self):
        with pytest.warns(UserWarning):
            idx = select_k_best(np.zeros(134), 200, list(FEATURE_NAMES))
        assert len(idx) == 134

    def test_inf_sorts_first(self):
        idx = select_k_best(np.array([1.0, np.inf, 2.0]), 1, ["a", "b", "c"])
        assert idx == (1,)


class TestFitSelection:
    def test_selection_ignores_test_rows(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 1, (30, 10))
        labels = ["A" if i < 15 else "B" for i in range(30)]
        train = small_matrix(x, labels)
        model1 = fit_selection(train, 4)
        # a perturbed disjoint "test" matrix must not matter
        model2 = fit_selection(train, 4)
        assert model1.selected_names == model2.selected_names

    def test_chi2_path_scales_transform(self):
        x = np.array([[0.0, 10.0], [5.0, 20.0], [10.0, 30.0], [2.0, 12.0]])
        labels = ["A", "A", "B", "B"]
        train = small_matrix(x, labels)
        model = fit_selection(train, 2)
        out = model.transform(train)
        assert out.x.min() >= 0.0 and out.x.max() <= 1.0

    def test_transform_equals_scaling_every_column_first(self):
        # the path selection replaced: scale all columns by the training
        # range, score the scaled training rows, then take the chosen columns
        def scale_all(x, train_x):
            low, high = train_x.min(axis=0), train_x.max(axis=0)
            span = high - low
            scaled = (x - low) / np.where(span == 0, 1.0, span)
            return np.clip(np.where(span == 0, 0.0, scaled), 0.0, 1.0)

        rng = np.random.default_rng(10)
        for _ in range(50):
            n, d = int(rng.integers(4, 30)), int(rng.integers(1, 20))
            x = rng.normal(0, 1, (n + 5, d)) * rng.choice([1e-3, 1.0, 1e4], d)
            x[:, rng.random(d) < 0.2] = 2.5  # constant columns
            labels = [f"C{rng.integers(3)}" for _ in range(n + 5)]
            train, test = small_matrix(x[:n], labels[:n]), small_matrix(x[n:], labels[n:])
            if len(set(train.labels)) < 2:
                continue
            nof = int(rng.integers(1, d + 1))
            model = fit_selection(train, nof)
            idx = list(select_k_best(chi2_scores(scale_all(train.x, train.x),
                                                 train.labels), nof, train.names))
            assert list(model.selected_idx) == idx
            for matrix in (train, test):
                want = scale_all(matrix.x, train.x)[:, idx]
                assert model.transform(matrix).x.tobytes() == want.tobytes()


class TestMatrixIo:
    def test_csv_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        segments = [SegmentPair(f"S{i}", f"EV{i % 3}",
                                TimeSeries(rng.uniform(1, 30, 40)),
                                TimeSeries(rng.uniform(0, 3, 60)), 60, 100)
                    for i in range(6)]
        matrix = featurize_segments(segments)
        path = tmp_path / "features.csv"
        write_feature_csv(matrix, str(path))
        back = read_feature_csv(str(path))
        assert back.session_ids == matrix.session_ids
        assert back.labels == matrix.labels
        np.testing.assert_array_equal(back.x, matrix.x)

    def test_csv_round_trip_keeps_commas_and_quotes(self, tmp_path):
        rng = np.random.default_rng(5)
        ids = ['plain', 'a,b', 'say "hi"', '"x",y']
        segments = [SegmentPair(sid, f'EV,"{i % 2}"',
                                TimeSeries(rng.uniform(1, 30, 40)),
                                TimeSeries(rng.uniform(0, 3, 60)), 60, 100)
                    for i, sid in enumerate(ids)]
        matrix = featurize_segments(segments)
        path = tmp_path / "features.csv"
        write_feature_csv(matrix, str(path))
        back = read_feature_csv(str(path))
        assert back.session_ids == matrix.session_ids
        assert back.labels == matrix.labels
        np.testing.assert_array_equal(back.x, matrix.x)
        assert path.read_text().splitlines()[1].startswith("plain,")

    @pytest.mark.parametrize("cell", ["", "abc", "0x10"])
    def test_non_numeric_cell_is_error(self, tmp_path, cell):
        path = tmp_path / "features.csv"
        path.write_text(f"session_id,ev_label,f0,f1\nS0,EV,1.5,{cell}\n")
        with pytest.raises(ValueError):
            read_feature_csv(str(path))
