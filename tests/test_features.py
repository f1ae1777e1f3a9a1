"""Feature catalog, scaling, and univariate selection tests.

chi-square and ANOVA-F are checked against naive per-feature references on
random small matrices, and against the frozen hand-computed examples.
"""

import numpy as np
import pytest

from evprofiler.features import (CATALOG, FEATURE_NAMES, FeatureMatrix,
                                 SelectionError, _longest_run,
                                 anova_f_scores, apply_minmax, chi2_scores,
                                 extract_features, featurize_segments,
                                 fit_minmax, fit_selection,
                                 matrix_from_vectors, read_feature_csv,
                                 select_k_best, series_features,
                                 write_feature_csv)
from evprofiler.ingest import TimeSeries
from evprofiler.tail import SegmentPair


def feature(values, name):
    x = np.asarray(values, dtype=np.float64)
    return series_features(x)[list(n for n, _ in CATALOG).index(name)]


def reference_longest_run(mask):
    """The per-sample loop that run boundaries replaced."""
    best = run = 0
    for hit in mask:
        run = run + 1 if hit else 0
        best = max(best, run)
    return float(best)


def small_matrix(x, labels, names=None):
    x = np.asarray(x, dtype=np.float64)
    names = names or tuple(f"f{i}" for i in range(x.shape[1]))
    ids = tuple(f"s{i}" for i in range(x.shape[0]))
    return FeatureMatrix(ids, tuple(labels), x, tuple(names))


class TestCatalog:
    def test_size_and_order_frozen(self):
        assert len(CATALOG) == 67
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
        vec = extract_features(segment)
        assert vec.values.shape == (134,)
        assert np.all(np.isfinite(vec.values))

    def test_featurize_segments_keeps_input_order(self):
        segments = [SegmentPair(f"S{i}", "EV", TimeSeries(np.full(30, 4.0 + i)),
                                TimeSeries(np.arange(1.0, 41.0)), 40, 70)
                    for i in range(3)]
        matrix = featurize_segments(iter(segments))
        assert matrix.session_ids == ("S0", "S1", "S2")
        np.testing.assert_array_equal(matrix.x[1],
                                      extract_features(segments[1]).values)
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
        from evprofiler.features import series_features_reference
        rng = np.random.default_rng(3)
        cases = [np.zeros(1), np.zeros(5), np.array([2.0]), np.arange(4.0)]
        cases += [rng.normal(0, 3, int(rng.integers(1, 300))) for _ in range(60)]
        for x in cases:
            np.testing.assert_allclose(series_features(x),
                                       series_features_reference(x),
                                       rtol=1e-12, atol=1e-12)

    def test_total_and_matches_reference_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")
        from evprofiler.features import series_features_reference
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
            np.testing.assert_allclose(values, series_features_reference(x),
                                       rtol=1e-12, atol=1e-12)

        check()

    def test_longest_run_equals_per_sample_loop(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(mask=hnp.arrays(np.bool_, st.integers(1, 80)))
        @hypothesis.example(mask=np.ones(9, dtype=bool))
        @hypothesis.example(mask=np.zeros(9, dtype=bool))
        @hypothesis.example(mask=np.array([True]))
        @hypothesis.example(mask=np.array([False]))
        def check(mask):
            assert _longest_run(mask) == reference_longest_run(mask)

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


class TestMinMax:
    def test_affine_map(self):
        m = small_matrix([[2.0], [4.0], [6.0]], ["a", "a", "b"])
        scaler = fit_minmax(m)
        got = apply_minmax(m, scaler)
        np.testing.assert_allclose(got.x[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        m = small_matrix([[3.0], [3.0]], ["a", "b"])
        got = apply_minmax(m, fit_minmax(m))
        np.testing.assert_allclose(got.x[:, 0], [0.0, 0.0])

    def test_test_values_clipped(self):
        train = small_matrix([[2.0], [6.0]], ["a", "b"])
        scaler = fit_minmax(train)
        test = small_matrix([[8.0], [0.0]], ["a", "b"])
        got = apply_minmax(test, scaler)
        np.testing.assert_allclose(got.x[:, 0], [1.0, 0.0])


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
        np.testing.assert_allclose(chi2_scores(m, list(m.labels)), [0.5])

    def test_identical_across_balanced_classes(self):
        m = small_matrix([[0.3], [0.7], [0.3], [0.7]], ["A", "A", "B", "B"])
        np.testing.assert_allclose(chi2_scores(m, list(m.labels)), [0.0],
                                   atol=1e-15)

    def test_all_zero_feature(self):
        m = small_matrix([[0.0], [0.0]], ["A", "B"])
        np.testing.assert_allclose(chi2_scores(m, list(m.labels)), [0.0])

    def test_single_class_is_error(self):
        m = small_matrix([[0.1], [0.2]], ["A", "A"])
        with pytest.raises(SelectionError):
            chi2_scores(m, list(m.labels))

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
            np.testing.assert_allclose(chi2_scores(m, labels),
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
        model1 = fit_selection(train, labels, 4)
        # a perturbed disjoint "test" matrix must not matter
        model2 = fit_selection(train, labels, 4)
        assert model1.selected_names == model2.selected_names

    def test_chi2_path_scales_transform(self):
        x = np.array([[0.0, 10.0], [5.0, 20.0], [10.0, 30.0], [2.0, 12.0]])
        labels = ["A", "A", "B", "B"]
        train = small_matrix(x, labels)
        model = fit_selection(train, labels, 2)
        out = model.transform(train)
        assert out.x.min() >= 0.0 and out.x.max() <= 1.0


class TestMatrixIo:
    def test_csv_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        segments = [SegmentPair(f"S{i}", f"EV{i % 3}",
                                TimeSeries(rng.uniform(1, 30, 40)),
                                TimeSeries(rng.uniform(0, 3, 60)), 60, 100)
                    for i in range(6)]
        matrix = matrix_from_vectors([extract_features(s) for s in segments])
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
        matrix = matrix_from_vectors([extract_features(s) for s in segments])
        path = tmp_path / "features.csv"
        write_feature_csv(matrix, str(path))
        back = read_feature_csv(str(path))
        assert back.session_ids == matrix.session_ids
        assert back.labels == matrix.labels
        np.testing.assert_array_equal(back.x, matrix.x)
        assert path.read_text().splitlines()[1].startswith("plain,")
