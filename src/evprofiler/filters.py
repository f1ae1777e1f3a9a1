"""Noise filters for current time series and the CC-phase delta series.

All window filters use truncated edge windows: near the edges the window is
clipped to valid indices and the divisor (or order statistic) uses the actual
number of in-range samples, so output length always equals input length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import TimeSeries

FILTER_KINDS = ("moving-average", "moving-median", "low-pass")


@dataclass(frozen=True)
class FilterParams:
    """Smoothing configuration for the current signal and the delta series."""

    window: int = 5
    kind: str = "moving-average"
    delta_window: int = 7
    low_pass_alpha: float = 0.3

    def __post_init__(self):
        _check_window(self.window)
        _check_window(self.delta_window)
        if self.kind not in FILTER_KINDS:
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if not 0.0 < self.low_pass_alpha <= 1.0:
            raise ValueError("low_pass_alpha must be in (0, 1]")


def _check_window(n: int) -> None:
    if n < 3 or n % 2 == 0:
        raise ValueError(f"window must be odd and >= 3, got {n}")


def _window_bounds(length: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    half = n // 2
    t = np.arange(length)
    lo = np.maximum(t - half, 0)
    hi = np.minimum(t + half + 1, length)
    return lo, hi


def moving_average_values(values: np.ndarray, n: int) -> np.ndarray:
    """Windowed mean with truncated edges; divisor is the in-range count."""
    _check_window(n)
    x = np.asarray(values, dtype=np.float64)
    lo, hi = _window_bounds(x.size, n)
    csum = np.concatenate(([0.0], np.cumsum(x)))
    return (csum[hi] - csum[lo]) / (hi - lo)


def median_of_sorted(s: np.ndarray) -> np.float64:
    """``np.median`` of an ascending array, by its arithmetic: the mean of
    the one or two middle values. That sum starts from +0.0, so a zero
    median is +0.0 whichever signed zeros sit in the middle."""
    middle = s[(s.size - 1) // 2:s.size // 2 + 1]
    return middle.sum() / middle.size


def moving_median_values(values: np.ndarray, n: int) -> np.ndarray:
    """Windowed median with truncated edges.

    Even-sized edge windows take the mean of the two central order
    statistics (plain median of the window). In a series longer than
    ``n`` the full windows go through one ``np.median`` over their sliding
    view. Each other window is sorted and read by ``median_of_sorted``,
    which gives ``np.median``'s bits without its per-call overhead.
    """
    _check_window(n)
    x = np.asarray(values, dtype=np.float64)
    length = x.size
    half = n // 2
    out = np.empty(length)
    if length > n:
        interior = np.lib.stride_tricks.sliding_window_view(x, n)
        out[half:length - half] = np.median(interior, axis=1)
        edges = (*range(half), *range(length - half, length))
    else:
        edges = range(length)
    for t in edges:
        out[t] = median_of_sorted(np.sort(x[max(t - half, 0):t + half + 1]))
    return out


def low_pass_values(values: np.ndarray, alpha: float) -> np.ndarray:
    """First-order exponential smoothing: y(0)=x(0), y(t)=a*x(t)+(1-a)*y(t-1)."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    x = np.asarray(values, dtype=np.float64)
    out = np.empty_like(x)
    acc = x[0]
    out[0] = acc
    keep = 1.0 - alpha
    for t in range(1, x.size):
        acc = alpha * x[t] + keep * acc
        out[t] = acc
    return out


def smooth_current(series: TimeSeries, params: FilterParams) -> TimeSeries:
    """Apply the configured current filter (moving average on the default path)."""
    if params.kind == "moving-average":
        values = moving_average_values(series.values, params.window)
    elif params.kind == "moving-median":
        values = moving_median_values(series.values, params.window)
    else:
        values = low_pass_values(series.values, params.low_pass_alpha)
    return TimeSeries(values, series.sample_period)


def delta_series_values(pilot: np.ndarray, current: np.ndarray, n: int,
                        cc_end: int) -> np.ndarray:
    """d(t) = pilot(t) - median(current window at t) for t in [0, cc_end).

    The median windows run over the full current series, so windows near
    cc_end may look past it; only array edges truncate. No such window
    reads past ``cc_end + n // 2``, so the median runs over that prefix.
    """
    pilot = np.asarray(pilot, dtype=np.float64)
    current = np.asarray(current, dtype=np.float64)
    if pilot.size != current.size:
        raise ValueError("pilot and current must have equal length")
    if cc_end <= 0:
        raise ValueError("empty CC phase: cc_end must be positive")
    if cc_end > pilot.size:
        raise ValueError("cc_end beyond series length")
    med = moving_median_values(current[:cc_end + n // 2], n)
    return pilot[:cc_end] - med[:cc_end]

