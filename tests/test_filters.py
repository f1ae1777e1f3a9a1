"""Filter tests: frozen hand examples, naive-reference equivalence,
bit-exact pins of the median fast paths, and window-filter properties."""

import numpy as np
import pytest

from evprofiler.filters import (FilterParams, delta_series_values,
                                low_pass_values, median_of_sorted,
                                moving_average_values, moving_median_values)


def naive_moving_average(x, n):
    half = n // 2
    out = []
    for t in range(len(x)):
        window = x[max(t - half, 0):min(t + half + 1, len(x))]
        out.append(sum(window) / len(window))
    return np.array(out)


def naive_moving_median(x, n):
    half = n // 2
    out = []
    for t in range(len(x)):
        window = sorted(x[max(t - half, 0):min(t + half + 1, len(x))])
        m = len(window)
        mid = m // 2
        out.append(window[mid] if m % 2 else (window[mid - 1] + window[mid]) / 2)
    return np.array(out)


def numpy_moving_median(x, n):
    """np.median of each truncated window, one call per window."""
    x = np.asarray(x, dtype=np.float64)
    half = n // 2
    return np.array([np.median(x[max(t - half, 0):t + half + 1])
                     for t in range(x.size)])


def _bit_exact_series(st, hnp, max_len=60):
    # ties and -0.0 (rounded to 1 decimal), and any finite value
    return hnp.arrays(np.float64, st.integers(1, max_len), elements=st.one_of(
        st.floats(-3, 3).map(lambda v: round(v, 1)),
        st.floats(allow_nan=False, allow_infinity=False)))


def naive_low_pass(x, alpha):
    out = [x[0]]
    for v in x[1:]:
        out.append(alpha * v + (1 - alpha) * out[-1])
    return np.array(out)


class TestMovingAverage:
    def test_hand_example(self):
        got = moving_average_values([1, 2, 3, 4, 5], 3)
        np.testing.assert_allclose(got, [1.5, 2, 3, 4, 4.5])

    def test_constant_series(self):
        np.testing.assert_allclose(moving_average_values([7, 7, 7, 7], 3),
                                   [7, 7, 7, 7])

    def test_single_spike(self):
        np.testing.assert_allclose(moving_average_values([0, 0, 9, 0, 0], 3),
                                   [0, 3, 3, 3, 0])

    @pytest.mark.parametrize("n", [2, 1, 0, 4])
    def test_bad_window(self, n):
        with pytest.raises(ValueError):
            moving_average_values([1, 2, 3], n)


class TestMovingMedian:
    def test_alternating_with_even_edges(self):
        got = moving_median_values([1, 9, 1, 1, 9, 1], 3)
        np.testing.assert_allclose(got, [5, 1, 1, 1, 1, 5])

    def test_monotone(self):
        np.testing.assert_allclose(moving_median_values([1, 2, 3], 3),
                                   [1.5, 2, 2.5])

    def test_constant(self):
        np.testing.assert_allclose(moving_median_values([4.2] * 6, 5), [4.2] * 6)

    def test_removes_isolated_spike(self):
        x = np.full(30, 5.0)
        x[13] = 50.0
        got = moving_median_values(x, 5)
        np.testing.assert_allclose(got, np.full(30, 5.0))


class TestLowPass:
    def test_alpha_one_is_identity(self):
        x = [3.0, 1.0, 4.0, 1.0, 5.0]
        np.testing.assert_allclose(low_pass_values(x, 1.0), x)

    def test_hand_recurrence(self):
        np.testing.assert_allclose(low_pass_values([0, 10, 0, 0], 0.5),
                                   [0, 5, 2.5, 1.25])

    def test_constant(self):
        np.testing.assert_allclose(low_pass_values([2, 2, 2], 0.3), [2, 2, 2])

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            low_pass_values([1, 2], alpha)


class TestDeltaSeries:
    def test_equal_signals_zero_delta(self):
        pilot = np.full(10, 32.0)
        got = delta_series_values(pilot, pilot.copy(), 3, 10)
        np.testing.assert_allclose(got, np.zeros(10))

    def test_hand_example(self):
        got = delta_series_values([32, 32, 32], [30, 31, 30], 3, 3)
        np.testing.assert_allclose(got, [1.5, 2, 1.5])

    def test_median_suppresses_spike(self):
        got = delta_series_values([32] * 5, [30, 30, 90, 30, 30], 3, 5)
        np.testing.assert_allclose(got, [2, 2, 2, 2, 2])

    def test_output_length_is_cc_end(self):
        got = delta_series_values(np.arange(20.0), np.ones(20), 5, 7)
        assert got.shape == (7,)

    def test_empty_cc_rejected(self):
        with pytest.raises(ValueError):
            delta_series_values([1.0], [1.0], 3, 0)


class TestOracleEquivalence:
    def test_random_series_match_naive(self):
        rng = np.random.default_rng(42)
        for _ in range(150):
            length = int(rng.integers(1, 400))
            n = int(rng.choice(np.arange(3, 102, 2)))
            x = rng.normal(0, 10, length)
            np.testing.assert_allclose(moving_average_values(x, n),
                                       naive_moving_average(list(x), n),
                                       atol=1e-9)
            np.testing.assert_allclose(moving_median_values(x, n),
                                       naive_moving_median(list(x), n),
                                       atol=1e-9)
            alpha = float(rng.uniform(0.05, 1.0))
            np.testing.assert_allclose(low_pass_values(x, alpha),
                                       naive_low_pass(list(x), alpha),
                                       atol=1e-9)


class TestMedianBits:
    """The sorted-window medians against one np.median per window, and the
    delta prefix against a median over the whole current, bit for bit."""

    def test_median_of_sorted_equals_np_median(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(x=_bit_exact_series(st, hnp, 200))
        @hypothesis.example(x=np.array([-0.0]))
        @hypothesis.example(x=np.array([-0.0, -0.0]))
        @hypothesis.example(x=np.array([0.0, -0.0, 1.0]))
        def check(x):
            with np.errstate(over="ignore", invalid="ignore"):
                got = median_of_sorted(np.sort(x))
                want = np.median(x)
            assert got.tobytes() == want.tobytes(), (got, want)

        check()

    def test_moving_median_equals_per_window_np_median(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(x=_bit_exact_series(st, hnp),
                          n=st.integers(1, 10).map(lambda k: 2 * k + 1))
        @hypothesis.example(x=np.array([-0.0, 0.0, -0.0, -0.0]), n=3)
        def check(x, n):
            with np.errstate(over="ignore", invalid="ignore"):
                got = moving_median_values(x, n)
                want = numpy_moving_median(x, n)
            assert got.tobytes() == want.tobytes(), (got, want)

        check()

    def test_delta_prefix_equals_full_length_median(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")

        @st.composite
        def cases(draw):
            current = draw(_bit_exact_series(st, hnp))
            n = draw(st.integers(1, 10).map(lambda k: 2 * k + 1))
            # cc_end within n // 2 of the end, where a window at t < cc_end
            # reaches the last samples, or anywhere before
            near_end = st.integers(max(1, current.size - n // 2), current.size)
            cc_end = draw(st.one_of(near_end, st.integers(1, current.size)))
            pilot = draw(hnp.arrays(np.float64, current.size,
                                    elements=st.floats(-50, 50)))
            return pilot, current, n, cc_end

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(case=cases())
        def check(case):
            pilot, current, n, cc_end = case
            with np.errstate(over="ignore", invalid="ignore"):
                got = delta_series_values(pilot, current, n, cc_end)
                want = pilot[:cc_end] - numpy_moving_median(current, n)[:cc_end]
            assert got.tobytes() == want.tobytes(), (got, want)

        check()


class TestProperties:
    def test_length_preserving_and_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.normal(0, 5, int(rng.integers(1, 300)))
            n = int(rng.choice([3, 5, 9, 21]))
            for filt in (moving_average_values, moving_median_values):
                y = filt(x, n)
                assert y.shape == x.shape
                assert np.all(y >= np.min(x) - 1e-12)
                assert np.all(y <= np.max(x) + 1e-12)

    def test_length_preserving_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(
            x=hnp.arrays(np.float64, st.integers(1, 60),
                         elements=st.floats(allow_nan=False, allow_infinity=False)),
            n=st.integers(1, 15).map(lambda k: 2 * k + 1),
            alpha=st.floats(0.0, 1.0, exclude_min=True))
        def check(x, n, alpha):
            with np.errstate(over="ignore", invalid="ignore"):
                for y in (moving_average_values(x, n), moving_median_values(x, n),
                          low_pass_values(x, alpha)):
                    assert y.shape == x.shape

        check()

    def test_long_runs_are_moving_median_fixed_points(self):
        """A piecewise-constant series whose runs each hold at least
        n // 2 + 1 samples comes back unchanged, so a second pass changes
        nothing: in every window, truncated or not, the run at the centre
        holds more than half the samples. The moving average has no such
        fixed points, and no such property."""
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(data=st.data(), n=st.sampled_from([3, 5, 7, 9, 11]))
        def check(data, n):
            values = st.floats(-1e300, 1e300, exclude_min=True, exclude_max=True)
            runs = data.draw(st.lists(st.tuples(values, st.integers(n // 2 + 1, 2 * n)),
                                      min_size=1, max_size=10))
            x = np.repeat([v for v, _ in runs], [k for _, k in runs])
            once = moving_median_values(x, n)
            assert np.array_equal(once, x)
            assert np.array_equal(moving_median_values(once, n), once)

        check()

    def test_shift_commutes(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            x = rng.normal(0, 5, 100)
            c = float(rng.normal(0, 20))
            for filt in (moving_average_values, moving_median_values):
                np.testing.assert_allclose(filt(x + c, 7), filt(x, 7) + c,
                                           atol=1e-9)


def test_filter_params_validation():
    with pytest.raises(ValueError):
        FilterParams(window=4)
    with pytest.raises(ValueError):
        FilterParams(kind="fft")
    with pytest.raises(ValueError):
        FilterParams(low_pass_alpha=0.0)
    assert FilterParams().window == 5
