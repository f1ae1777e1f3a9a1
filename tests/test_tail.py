"""Tail identification tests: anchor scan, backward walk, validation, and
planted-boundary recovery on synthetic sessions."""

import numpy as np
import pytest

from evprofiler.filters import FilterParams, smooth_current
from evprofiler.ingest import TimeSeries
from evprofiler.synth import (SynthOptions, generate_corpus,
                              generate_signature, planted_boundaries)
from evprofiler.tail import (RejectionReason, SegmentPair, TailParams,
                             extract_tail, find_zero_anchor, segment_corpus,
                             segment_session, validate_segments)


def params(**overrides):
    return TailParams(**overrides)


class TestFindZeroAnchor:
    def test_plain_trailing_zeros(self):
        ts = TimeSeries(np.array([5, 4, 3, 2, 1, 0, 0, 0, 0], dtype=float))
        assert find_zero_anchor(ts, params(zero_eps=0.01, min_zero_run=3)) == 5

    def test_spike_between_zero_runs_is_merged(self):
        ts = TimeSeries(np.array([5, 4, 0, 0, 2, 0, 0, 0, 0], dtype=float))
        got = find_zero_anchor(ts, params(max_spike_len=2, min_zero_run=3))
        assert got == 2

    def test_no_zeros(self):
        ts = TimeSeries(np.array([5, 4, 3, 2, 1], dtype=float))
        assert find_zero_anchor(ts, params()) is None

    def test_long_spike_stops_merge(self):
        ts = TimeSeries(np.array([0, 0, 0, 3, 3, 3, 0, 0, 0, 0, 0], dtype=float))
        got = find_zero_anchor(ts, params(max_spike_len=3, min_zero_run=3))
        assert got == 6

    def test_too_few_zero_samples(self):
        ts = TimeSeries(np.array([5, 4, 3, 0, 0], dtype=float))
        assert find_zero_anchor(ts, params(min_zero_run=5)) is None

    def test_trailing_nonzero_blip_means_no_anchor(self):
        # the merge rule covers spikes between zero runs, not a nonzero end
        ts = TimeSeries(np.array([5, 4, 3, 0, 0, 0, 0, 0, 2], dtype=float))
        assert find_zero_anchor(ts, params(max_spike_len=2, min_zero_run=3)) is None


class TestExtractTail:
    def test_walk_stops_in_plateau(self):
        # plateau of 32s then a strict 5 A/sample decay to zero
        series = np.concatenate([np.full(50, 32.0),
                                 np.arange(30.0, 0.0, -5.0),
                                 np.zeros(10)])
        ts = TimeSeries(series)
        tp = params(epsilon=0.2, t_max=3)
        t_s = find_zero_anchor(ts, tp)
        t_start, tail = extract_tail(ts, t_s, tp)
        assert abs(t_start - 50) <= 3
        assert len(tail) == t_s - t_start

    def test_no_plateau_reaches_start(self):
        series = np.concatenate([np.arange(100.0, 0.0, -1.0), np.zeros(8)])
        ts = TimeSeries(series)
        tp = params(epsilon=0.2, t_max=3)
        t_start, _ = extract_tail(ts, find_zero_anchor(ts, tp), tp)
        assert t_start <= 1

    def test_short_spike_is_tolerated(self):
        decay = np.arange(60.0, 0.0, -1.0)
        decay[30:32] += 20.0  # 2-sample spike inside the tail
        series = np.concatenate([np.full(40, 62.0), decay, np.zeros(8)])
        ts = TimeSeries(series)
        tp = params(epsilon=0.2, t_max=3)
        t_start, _ = extract_tail(ts, find_zero_anchor(ts, tp), tp)
        assert abs(t_start - 40) <= 3

    def test_zero_anchor_at_origin_rejected(self):
        with pytest.raises(ValueError):
            extract_tail(TimeSeries(np.zeros(5)), 0, params())

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        series = np.concatenate([np.full(30, 20.0),
                                 20 * np.exp(-0.1 * np.arange(40)),
                                 np.zeros(10)]) + rng.normal(0, 0.05, 80)
        series = np.abs(series)
        ts = TimeSeries(series)
        tp = params()
        t_s = find_zero_anchor(ts, tp)
        assert t_s is not None
        results = {extract_tail(ts, t_s, tp) [0] for _ in range(5)}
        assert len(results) == 1


class TestValidateSegments:
    def make(self, tail_len=150, delta_len=200, tail_value=5.0, delta_value=2.0):
        return (TimeSeries(np.full(tail_len, tail_value)),
                TimeSeries(np.full(delta_len, delta_value)))

    def test_accept(self):
        tail, delta = self.make()
        assert validate_segments(tail, delta, params()) is None

    def test_tail_too_short(self):
        tail, delta = self.make(tail_len=10)
        got = validate_segments(tail, delta, params())
        assert got.code == "tail-too-short"

    def test_zero_valued_delta(self):
        tail, delta = self.make(delta_value=0.0, delta_len=100)
        got = validate_segments(tail, delta, params())
        assert got.code == "zero-valued-segment"

    def test_too_long(self):
        tail, delta = self.make(tail_len=2500)
        assert validate_segments(tail, delta, params()).code == "tail-too-long"

    def test_rejection_code_enum_is_closed(self):
        with pytest.raises(ValueError):
            RejectionReason("bogus-code")


class TestSegmentSession:
    def test_synthetic_boundary_recovery(self):
        corpus = generate_corpus(5, 4, seed=21,
                                 options=SynthOptions(noise_sigma=0.0))
        tp = params()
        for s in corpus.sessions:
            i = int(s.ev_label.split("-")[1])
            sig = generate_signature(i, 21, "well-separated")
            onset, z0 = planted_boundaries(sig, len(s.current))
            got = segment_session(s, FilterParams(), tp)
            assert isinstance(got, SegmentPair)
            assert abs(got.t_start - onset) <= tp.t_max
            assert abs(got.t_s - z0) <= 1
            assert got.ev_label == s.ev_label
            assert len(got.delta) == got.t_start

    def test_identically_zero_current(self):
        from evprofiler.ingest import ChargingSession
        session = ChargingSession("Z", "EV", "ST", "t",
                                  TimeSeries(np.full(300, 32.0)),
                                  TimeSeries(np.zeros(300)))
        got = segment_session(session)
        assert isinstance(got, RejectionReason)
        assert got.code in ("no-zero-anchor", "zero-valued-segment")

    def test_truncated_session_rejected(self):
        corpus = generate_corpus(3, 3, seed=9,
                                 options=SynthOptions(truncate_prob=1.0))
        for s in corpus.sessions:
            got = segment_session(s)
            assert isinstance(got, RejectionReason)

    def test_accepted_invariants(self):
        corpus = generate_corpus(8, 5, seed=33)
        tp = params()
        for s in corpus.sessions:
            got = segment_session(s, FilterParams(), tp)
            assert isinstance(got, SegmentPair)
            assert 0 < got.t_start < got.t_s <= len(s.current)
            assert len(got.tail) > 0 and len(got.delta) > 0
            # terminal region of the smoothed current is near zero
            smoothed = smooth_current(s.current, FilterParams())
            assert np.all(smoothed.values[got.t_s:] <= tp.zero_eps + 1e-9)


class TestSegmentCorpus:
    def test_same_outcomes_as_segment_session_in_corpus_order(self):
        corpus = generate_corpus(3, 4, seed=21,
                                 options=SynthOptions(truncate_prob=0.5))
        want = [(s.session_id, segment_session(s)) for s in corpus.sessions]
        segments, rejects = segment_corpus(corpus)
        assert rejects == []  # filled only as segments are consumed
        got = [(seg.session_id, seg.t_start, seg.t_s) for seg in segments]
        assert got == [(sid, r.t_start, r.t_s) for sid, r in want
                       if isinstance(r, SegmentPair)]
        assert rejects == [(sid, r) for sid, r in want
                           if isinstance(r, RejectionReason)]
        assert got and rejects


class TestPlantedBoundaryRecovery:
    def test_noiseless_recovery_rate(self):
        corpus = generate_corpus(20, 5, seed=77,
                                 options=SynthOptions(noise_sigma=0.0))
        fp, tp = FilterParams(), params()
        for s in corpus.sessions:
            i = int(s.ev_label.split("-")[1])
            sig = generate_signature(i, 77, "well-separated")
            onset, z0 = planted_boundaries(sig, len(s.current))
            smoothed = smooth_current(s.current, fp)
            t_s = find_zero_anchor(smoothed, tp)
            t_start, _ = extract_tail(smoothed, t_s, tp)
            assert abs(t_s - z0) <= 1
            assert abs(t_start - onset) <= tp.t_max

    def test_spike_injection_shifts_t_start_boundedly(self):
        base = np.concatenate([np.full(60, 25.0),
                               25 * np.exp(-0.05 * np.arange(60)),
                               np.zeros(12)])
        tp = params(epsilon=0.2, t_max=4, max_spike_len=3)
        ts = TimeSeries(base)
        t_s = find_zero_anchor(ts, tp)
        base_start, _ = extract_tail(ts, t_s, tp)
        rng = np.random.default_rng(5)
        for _ in range(20):
            spiked = base.copy()
            n_spikes = int(rng.integers(1, 4))
            for _ in range(n_spikes):
                pos = int(rng.integers(62, 95))
                width = int(rng.integers(1, 3))
                spiked[pos:pos + width] += 8.0
            ts2 = TimeSeries(spiked)
            t_s2 = find_zero_anchor(ts2, tp)
            got, _ = extract_tail(ts2, t_s2, tp)
            assert abs(got - base_start) <= n_spikes * (tp.t_max + 2 * 2)
