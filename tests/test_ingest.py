"""Ingestion tests: parsing rules, admission filters, round-trips."""

import json

import numpy as np
import pytest

from evprofiler.ingest import (ChargingSession, Corpus, ParseError,
                               Provenance, TimeSeries, apply_primary_filters,
                               parse_sessions, write_sessions)


def record(sid="S1", user="EV7", points=120, period=4.0, **overrides):
    rec = {"sessionID": sid, "userID": user, "stationID": "CT-01",
           "connectionTime": "2021-03-01T09:00:00",
           "samplePeriodSec": period,
           "pilotSignal": [32.0] * points,
           "chargingCurrent": [30.0] * points}
    rec.update(overrides)
    return rec


def jsonl(*records):
    return "\n".join(json.dumps(r) for r in records) + "\n"


def session(sid, label, points=120):
    return ChargingSession(sid, label, "ST", "2021-01-01T00:00:00",
                           TimeSeries(np.full(points, 32.0)),
                           TimeSeries(np.full(points, 30.0)))


class TestTimeSeries:
    def test_invariants(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([]))
        with pytest.raises(ValueError):
            TimeSeries(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            TimeSeries(np.array([1.0]), sample_period=0.0)

    def test_values_are_immutable(self):
        ts = TimeSeries(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ts.values[0] = 5.0


class TestParseSessions:
    def test_single_record(self):
        corpus = parse_sessions(jsonl(record()), "acn-json")
        assert len(corpus) == 1
        s = corpus.sessions[0]
        assert s.ev_label == "EV7"
        assert len(s.pilot) == 120
        assert s.pilot.sample_period == 4.0

    def test_missing_pilot_dropped_and_counted(self):
        rec = record()
        del rec["pilotSignal"]
        corpus = parse_sessions(jsonl(rec, record(sid="S2")), "acn-json")
        assert len(corpus) == 1
        assert corpus.provenance.dropped_missing_field == 1

    def test_duplicate_session_id_fatal(self):
        text = jsonl(record(sid="S1"), record(sid="S1"))
        with pytest.raises(ParseError):
            parse_sessions(text, "acn-json")
        # more than five duplicated ids, given out of order: the message
        # lists the first five in sorted order
        sids = ["S7", "S3", "S9", "S1", "S5", "S3", "S2", "S8", "S1", "S9",
                "S6", "S5", "S7", "S4", "S2", "S8", "S6", "S7"]
        with pytest.raises(ParseError) as info:
            parse_sessions(jsonl(*(record(sid=s) for s in sids)), "acn-json")
        assert str(info.value) == \
            "duplicate session_id(s): ['S1', 'S2', 'S3', 'S5', 'S6']"

    def test_negative_current_clamped(self):
        rec = record(chargingCurrent=[1.0, -0.5, 2.0] + [3.0] * 117)
        corpus = parse_sessions(jsonl(rec), "acn-json")
        assert corpus.sessions[0].current.values[1] == 0.0
        assert corpus.provenance.clamped_negative == 1

    def test_mismatched_lengths_truncated(self):
        rec = record(pilotSignal=[32.0] * 10, chargingCurrent=[30.0] * 8)
        corpus = parse_sessions(jsonl(rec), "acn-json")
        assert len(corpus.sessions[0].pilot) == 8
        assert corpus.provenance.truncated_mismatched == 1

    def test_null_user_id_means_unlabeled(self):
        corpus = parse_sessions(jsonl(record(user=None)), "acn-json")
        assert corpus.sessions[0].ev_label is None

    def test_invalid_json_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_sessions(jsonl(record()) + "{broken\n", "acn-json")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_sessions("", "xml")


class TestCsvFormat:
    def test_round_trip_matches_json(self, tmp_path):
        corpus = parse_sessions(jsonl(record(), record(sid="S2", user=None)),
                                "acn-json")
        path = tmp_path / "corpus.csv"
        write_sessions(corpus, str(path), "csv")
        back = parse_sessions(str(path), "csv")
        assert len(back) == 2
        for a, b in zip(corpus.sessions, back.sessions):
            assert a.session_id == b.session_id
            assert a.ev_label == b.ev_label
            np.testing.assert_array_equal(a.pilot.values, b.pilot.values)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ParseError):
            parse_sessions(str(path), "csv")


class TestJsonRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        sessions = []
        for i in range(5):
            values = rng.normal(10, 3, 150)
            sessions.append(ChargingSession(
                f"S{i}", f"EV{i % 2}", "ST", "2021-01-01T00:00:00",
                TimeSeries(values), TimeSeries(np.abs(values))))
        corpus = Corpus(tuple(sessions), Provenance("test"))
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        write_sessions(corpus, str(p1))
        back = parse_sessions(str(p1), "acn-json")
        write_sessions(back, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        for a, b in zip(corpus.sessions, back.sessions):
            np.testing.assert_array_equal(a.pilot.values, b.pilot.values)
            np.testing.assert_array_equal(a.current.values, b.current.values)


class TestPrimaryFilters:
    def test_short_sessions_dropped_then_quota(self):
        sessions = [session(f"A{i}", "A", 120) for i in range(10)]
        sessions += [session(f"A-short{i}", "A", 80) for i in range(2)]
        corpus = Corpus(tuple(sessions))
        out = apply_primary_filters(corpus)
        assert len(out) == 10
        assert all(len(s.pilot) >= 100 for s in out.sessions)

    def test_nine_sessions_removed(self):
        corpus = Corpus(tuple(session(f"B{i}", "B") for i in range(9)))
        assert len(apply_primary_filters(corpus)) == 0

    def test_identity_when_all_qualify(self):
        corpus = Corpus(tuple(session(f"C{i}", "C") for i in range(12)))
        out = apply_primary_filters(corpus)
        assert [s.session_id for s in out.sessions] == \
            [s.session_id for s in corpus.sessions]

    def test_unlabeled_sessions_dropped(self):
        sessions = [session(f"D{i}", "D") for i in range(10)]
        sessions.append(session("X", None))
        out = apply_primary_filters(Corpus(tuple(sessions)))
        assert all(s.ev_label == "D" for s in out.sessions)

    def test_idempotent_on_random_corpora(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            sessions = []
            for ev in range(int(rng.integers(1, 6))):
                for k in range(int(rng.integers(1, 15))):
                    points = int(rng.integers(50, 200))
                    sessions.append(session(f"T{trial}-{ev}-{k}", f"EV{ev}",
                                            points))
            corpus = Corpus(tuple(sessions))
            once = apply_primary_filters(corpus)
            twice = apply_primary_filters(once)
            assert [s.session_id for s in once.sessions] == \
                [s.session_id for s in twice.sessions]
