"""CV-phase tail identification and CC/CV segmentation of a charging session.

The filtered current of a completed session ends in a steady zero region.
Working backward from that region the current rises through the decaying CV
tail and flattens onto the CC plateau; the walk below finds where the rise
stops and uses that index both as the tail start and as the end of the CC
phase for the delta series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from .filters import FilterParams, delta_series_values, smooth_current
from .ingest import ChargingSession, Corpus, TimeSeries

REJECTION_CODES = (
    "no-zero-anchor", "tail-too-short", "tail-too-long",
    "delta-too-short", "delta-too-long", "zero-valued-segment", "empty-cc",
)


@dataclass(frozen=True)
class TailParams:
    """Knobs for anchor detection, the backward walk, and segment validation.

    ``epsilon`` is the fluctuation tolerance of the walk: a backward step
    that rises by more than ``epsilon`` resets the non-increase counter, a
    flat-or-falling step increments it, and a rise within (0, epsilon] leaves
    it unchanged. ``t_max`` consecutive non-increasing steps end the walk.
    """

    zero_eps: float = 0.5
    min_zero_run: int = 5
    max_spike_len: int = 3
    epsilon: float = 0.2
    t_max: int = 4
    min_len: int = 20
    max_len: int = 2000

    def __post_init__(self):
        if self.zero_eps < 0:
            raise ValueError("zero_eps must be >= 0")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if not 0 < self.min_len < self.max_len:
            raise ValueError("need 0 < min_len < max_len")
        if self.min_zero_run < 1 or self.max_spike_len < 1:
            raise ValueError("min_zero_run and max_spike_len must be >= 1")


@dataclass(frozen=True)
class RejectionReason:
    code: str
    detail: str = ""

    def __post_init__(self):
        if self.code not in REJECTION_CODES:
            raise ValueError(f"unknown rejection code {self.code!r}")


@dataclass(frozen=True)
class SegmentPair:
    """Extracted tail (CV phase) and delta (CC phase) series for one session."""

    session_id: str
    ev_label: Optional[str]
    tail: TimeSeries
    delta: TimeSeries
    t_start: int
    t_s: int

    def __post_init__(self):
        if not 0 <= self.t_start < self.t_s:
            raise ValueError("need 0 <= t_start < t_s")
        if len(self.tail) != self.t_s - self.t_start:
            raise ValueError("tail length must equal t_s - t_start")
        if len(self.delta) != self.t_start:
            raise ValueError("delta length must equal t_start")


def find_zero_anchor(series: TimeSeries, params: TailParams) -> Optional[int]:
    """Index where the steady terminal zero region begins, or None.

    Scans runs backward from the end; zero runs (values <= zero_eps)
    separated by non-zero spike runs shorter than max_spike_len are merged.
    The merged region must contain at least min_zero_run zero samples.
    """
    x = series.values
    is_zero = x <= params.zero_eps
    t = x.size
    zero_total = 0
    t_s: Optional[int] = None
    while t > 0:
        run_zero = bool(is_zero[t - 1])
        start = t
        while start > 0 and bool(is_zero[start - 1]) == run_zero:
            start -= 1
        run_len = t - start
        if run_zero:
            zero_total += run_len
            t_s = start
        else:
            if run_len >= params.max_spike_len or t_s is None:
                break
        t = start
    if t_s is None or zero_total < params.min_zero_run:
        return None
    return t_s


def extract_tail(series: TimeSeries, t_s: int,
                 params: TailParams) -> tuple[int, TimeSeries]:
    """Walk backward from the zero anchor and return (t_start, tail).

    t_start is one past the last index at which the non-increase counter was
    zero; the tail is series[t_start:t_s].
    """
    if t_s <= 0:
        raise ValueError("empty tail: zero anchor at or before index 0")
    x = series.values
    counter = 0
    last_zero = t_s - 1
    for t in range(t_s - 1, 0, -1):
        step = x[t - 1] - x[t]
        if step > params.epsilon:
            counter = 0
        elif step <= 0:
            counter += 1
        if counter == 0:
            last_zero = t - 1
        if counter >= params.t_max:
            break
    t_start = last_zero + 1
    return t_start, TimeSeries(x[t_start:t_s], series.sample_period)


def validate_segments(tail: TimeSeries, delta: TimeSeries,
                      params: TailParams) -> Optional[RejectionReason]:
    """Bounds and non-triviality checks; None means accept."""
    if len(tail) < params.min_len:
        return RejectionReason("tail-too-short", f"{len(tail)} < {params.min_len}")
    if len(tail) > params.max_len:
        return RejectionReason("tail-too-long", f"{len(tail)} > {params.max_len}")
    if len(delta) < params.min_len:
        return RejectionReason("delta-too-short", f"{len(delta)} < {params.min_len}")
    if len(delta) > params.max_len:
        return RejectionReason("delta-too-long", f"{len(delta)} > {params.max_len}")
    if np.max(np.abs(tail.values)) <= params.zero_eps:
        return RejectionReason("zero-valued-segment", "tail within zero_eps of 0")
    if np.max(np.abs(delta.values)) <= params.zero_eps:
        return RejectionReason("zero-valued-segment", "delta within zero_eps of 0")
    return None


def segment_session(session: ChargingSession,
                    filter_params: Optional[FilterParams] = None,
                    tail_params: Optional[TailParams] = None,
                    ) -> Union[SegmentPair, RejectionReason]:
    """Full per-session segmentation: filter, anchor, walk, delta, validate."""
    filter_params = filter_params or FilterParams()
    tail_params = tail_params or TailParams()
    smoothed = smooth_current(session.current, filter_params)
    t_s = find_zero_anchor(smoothed, tail_params)
    if t_s is None:
        return RejectionReason("no-zero-anchor", "no terminal zero region")
    if t_s < 1:
        return RejectionReason("no-zero-anchor", "zero region starts at index 0")
    t_start, tail = extract_tail(smoothed, t_s, tail_params)
    if t_start == 0:
        return RejectionReason("empty-cc", "no CC phase before the tail")
    if t_start >= t_s:
        return RejectionReason("tail-too-short", "walk found no rising region")
    delta_values = delta_series_values(
        session.pilot.values, session.current.values,
        filter_params.delta_window, cc_end=t_start)
    delta = TimeSeries(delta_values, session.current.sample_period)
    reason = validate_segments(tail, delta, tail_params)
    if reason is not None:
        return reason
    return SegmentPair(
        session_id=session.session_id,
        ev_label=session.ev_label,
        tail=tail,
        delta=delta,
        t_start=t_start,
        t_s=t_s,
    )


def segment_corpus(corpus: Corpus,
                   filter_params: Optional[FilterParams] = None,
                   tail_params: Optional[TailParams] = None,
                   ) -> tuple[Iterator[SegmentPair], list[tuple[str, RejectionReason]]]:
    """Segment every session in corpus order; returns (segments, rejects).

    ``segments`` is a one-pass iterator, so callers need not hold every
    segment at once. ``rejects`` gets a (session_id, RejectionReason) pair per session
    that fails, and is complete once ``segments`` is exhausted.
    """
    rejects: list[tuple[str, RejectionReason]] = []

    def accepted() -> Iterator[SegmentPair]:
        for session in corpus.sessions:
            result = segment_session(session, filter_params, tail_params)
            if isinstance(result, SegmentPair):
                yield result
            else:
                rejects.append((session.session_id, result))

    return accepted(), rejects
