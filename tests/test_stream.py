"""Streamed ingest and extract: one record at a time, outputs equal to the
whole-corpus library path, and no output left behind by a failed run."""

import json
import os
import tempfile

import pytest

import evprofiler.ingest as ingest
import evprofiler.tail as tail
from evprofiler.cli import main
from evprofiler.ingest import (Corpus, apply_primary_filters, parse_sessions,
                               write_sessions)
from evprofiler.synth import SynthOptions, generate_corpus


def record(sid, user="EV1", points=120, **overrides):
    rec = {"sessionID": sid, "userID": user, "stationID": "CT-01",
           "connectionTime": "2021-03-01T09:00:00", "samplePeriodSec": 1.0,
           "pilotSignal": [32.0] * points, "chargingCurrent": [30.0] * points}
    rec.update(overrides)
    return rec


def write_jsonl(path, records, newline="\n"):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(json.dumps(r) + newline for r in records))


def counts(directory, stage):
    with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)["counts"][stage]


def ingest_cli(src, out, fmt="acn-json", *extra):
    return main(["ingest", "--input", str(src), "--format", fmt,
                 "--out", str(out), *extra])


def extract_cli(src, out, rejects=None):
    extra = ["--rejects", str(rejects)] if rejects else []
    return main(["extract", "--sessions", str(src), "--out", str(out), *extra])


@pytest.fixture(scope="module")
def raw(tmp_path_factory):
    """A small synthetic export: 3 EVs x 12 sessions, some truncated."""
    path = tmp_path_factory.mktemp("raw") / "raw.jsonl"
    corpus = generate_corpus(3, 12, 4, SynthOptions(truncate_prob=0.3))
    write_sessions(corpus, str(path), "acn-json")
    return path


class TestOneRecordAtATime:
    def test_extract_segments_each_session_before_parsing_the_next(
            self, raw, tmp_path, monkeypatch):
        events = []
        parse = ingest._session_from_record
        segment = tail.segment_session

        def parse_recorded(rec, where, stats):
            events.append(("parse", rec["sessionID"]))
            return parse(rec, where, stats)

        def segment_recorded(session, *args, **kwargs):
            events.append(("segment", session.session_id))
            return segment(session, *args, **kwargs)

        monkeypatch.setattr(ingest, "_session_from_record", parse_recorded)
        monkeypatch.setattr(tail, "segment_session", segment_recorded)
        assert extract_cli(raw, tmp_path / "segments.jsonl") == 0
        ids = [json.loads(line)["sessionID"]
               for line in raw.read_text().splitlines()]
        assert events == [(step, sid) for sid in ids
                          for step in ("parse", "segment")]

    def test_ingest_builds_no_corpus(self, raw, tmp_path, monkeypatch):
        want = tmp_path / "want.jsonl"
        write_sessions(apply_primary_filters(parse_sessions(str(raw), "acn-json")),
                       str(want))

        def refuse(self):
            raise AssertionError("ingest built a Corpus")

        monkeypatch.setattr(Corpus, "__post_init__", refuse)
        out = tmp_path / "corpus.jsonl"
        assert ingest_cli(raw, out) == 0
        assert out.read_bytes() == want.read_bytes()


class TestFailedRunLeavesNoOutput:
    @pytest.mark.parametrize("stage", ["ingest", "extract"])
    def test_duplicate_id_on_the_last_line(self, tmp_path, capsys, stage):
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [record(f"S{i}") for i in range(12)] + [record("S3")])
        out = tmp_path / "out.jsonl"
        if stage == "ingest":
            code = ingest_cli(src, out)
        else:
            code = extract_cli(src, out, tmp_path / "rejects.csv")
        assert code == 1
        assert capsys.readouterr().err == \
            "error: ParseError: duplicate session_id(s): ['S3']\n"
        assert sorted(os.listdir(tmp_path)) == ["in.jsonl"]

    def test_a_failed_run_keeps_the_previous_output(self, tmp_path):
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [record("S1"), record("S1")])
        out = tmp_path / "out.jsonl"
        out.write_text("previous\n")
        assert extract_cli(src, out) == 1
        assert out.read_text() == "previous\n"
        assert sorted(os.listdir(tmp_path)) == ["in.jsonl", "out.jsonl"]

    @pytest.mark.parametrize("ok", [True, False])
    def test_a_file_named_like_a_temporary_output_is_left_alone(
            self, tmp_path, ok):
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [record(f"S{i}") for i in range(12)]
                    + ([] if ok else [record("S0")]))
        out = tmp_path / "out.jsonl"
        mine = tmp_path / "out.jsonl.tmp"
        mine.write_text("mine\n")
        assert ingest_cli(src, out) == (0 if ok else 1)
        assert mine.read_text() == "mine\n"
        if ok:  # the permissions of a file made by open()
            assert out.stat().st_mode == mine.stat().st_mode
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["in.jsonl", "out.jsonl.tmp"] + (["out.jsonl", "manifest.json"]
                                             if ok else []))


class TestUndecodableBytes:
    """A file that is not UTF-8 is a ParseError naming it, exit 1."""

    def expect(self, capsys, path):
        assert capsys.readouterr().err == \
            f"error: ParseError: {path}: not UTF-8 text (invalid start byte)\n"

    @pytest.fixture
    def undecodable(self, tmp_path, raw):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"\xff\xfe" + raw.read_bytes())
        return path

    def test_ingest(self, tmp_path, capsys, undecodable):
        assert ingest_cli(undecodable, tmp_path / "corpus.jsonl") == 1
        self.expect(capsys, undecodable)
        assert sorted(os.listdir(tmp_path)) == ["bad.jsonl"]

    def test_extract(self, tmp_path, capsys, undecodable):
        assert extract_cli(undecodable, tmp_path / "segments.jsonl") == 1
        self.expect(capsys, undecodable)
        assert sorted(os.listdir(tmp_path)) == ["bad.jsonl"]

    def test_featurize(self, tmp_path, capsys, undecodable):
        code = main(["featurize", "--segments", str(undecodable),
                     "--out", str(tmp_path / "features.csv")])
        assert code == 1
        self.expect(capsys, undecodable)
        assert sorted(os.listdir(tmp_path)) == ["bad.jsonl"]

    def test_bad_bytes_after_good_records(self, tmp_path, capsys, raw):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(raw.read_bytes() + b"\xff\n")
        assert ingest_cli(path, tmp_path / "corpus.jsonl") == 1
        self.expect(capsys, path)


class TestLineEndingsAndFormats:
    def test_csv_and_crlf_inputs_give_the_same_outputs(self, tmp_path, raw):
        corpus = parse_sessions(str(raw), "acn-json")
        text = raw.read_text()
        inputs = {"lf": (raw, "acn-json"),
                  "crlf": (tmp_path / "crlf.jsonl", "acn-json"),
                  "csv": (tmp_path / "raw.csv", "csv")}
        inputs["crlf"][0].write_bytes(text.replace("\n", "\r\n").encode())
        write_sessions(corpus, str(inputs["csv"][0]), "csv")
        results = {}
        for name, (src, fmt) in inputs.items():
            d = tmp_path / name
            d.mkdir()
            assert ingest_cli(src, d / "corpus.jsonl", fmt,
                              "--min-sessions", "5") == 0
            results[name] = ((d / "corpus.jsonl").read_bytes(),
                             counts(d, "ingest"))
        assert results["crlf"] == results["lf"]
        assert results["csv"] == results["lf"]
        assert results["lf"][1]["kept"] > 0

        # extract reads a CRLF corpus as it reads the LF one
        lf = tmp_path / "lf"
        (lf / "crlf.jsonl").write_bytes(
            (lf / "corpus.jsonl").read_bytes().replace(b"\n", b"\r\n"))
        outputs = []
        for name in ("corpus.jsonl", "crlf.jsonl"):
            d = tmp_path / f"extract-{name}"
            d.mkdir()
            assert extract_cli(lf / name, d / "segments.jsonl",
                               d / "rejects.csv") == 0
            outputs.append(((d / "segments.jsonl").read_bytes(),
                            (d / "rejects.csv").read_bytes(),
                            counts(d, "extract")))
        assert outputs[0] == outputs[1]
        assert outputs[0][2]["accepted"] > 0 and outputs[0][2]["rejected"] > 0


class TestAdmissionRules:
    def test_stream_equals_library_path(self):
        """Random per-EV session counts and series lengths around
        ``min_points`` and ``min_sessions``, with dropped, truncated, clamped
        and unlabeled records: ``apply_primary_filters`` is idempotent, and
        the streamed ``ingest`` writes the bytes and counts of the library
        path."""
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        kinds = ("ok", "ok", "drop", "truncate", "clamp", "unlabeled")

        @hypothesis.settings(max_examples=80, deadline=None)
        @hypothesis.given(data=st.data(), min_points=st.integers(2, 6),
                          min_sessions=st.integers(1, 4))
        def check(data, min_points, min_sessions):
            per_ev = data.draw(st.lists(st.integers(0, min_sessions + 2),
                                        min_size=1, max_size=4))
            owners = [ev for ev, n in enumerate(per_ev) for _ in range(n)]
            owners = data.draw(st.permutations(owners))
            records = []
            for i, ev in enumerate(owners):
                n = data.draw(st.integers(max(1, min_points - 2), min_points + 2))
                current = data.draw(st.lists(
                    st.floats(-5, 40, allow_nan=False), min_size=n, max_size=n))
                kind = data.draw(st.sampled_from(kinds))
                rec = record(f"S{i}", f"EV{ev}", n, chargingCurrent=current)
                if kind == "drop":
                    del rec[data.draw(st.sampled_from(
                        ["sessionID", "pilotSignal", "chargingCurrent"]))]
                elif kind == "truncate":
                    rec["pilotSignal"] = [32.0] * (n + data.draw(st.integers(1, 3)))
                elif kind == "clamp":
                    rec["chargingCurrent"][0] = -1.5
                elif kind == "unlabeled":
                    rec["userID"] = data.draw(st.sampled_from([None, ""]))
                records.append(rec)

            with tempfile.TemporaryDirectory() as tmp:
                src = os.path.join(tmp, "raw.jsonl")
                write_jsonl(src, records)
                corpus = parse_sessions(src, "acn-json")
                once = apply_primary_filters(corpus, min_points, min_sessions)
                twice = apply_primary_filters(once, min_points, min_sessions)
                assert [s.session_id for s in twice] == \
                    [s.session_id for s in once]
                want = os.path.join(tmp, "want.jsonl")
                write_sessions(once, want)

                out = os.path.join(tmp, "out", "corpus.jsonl")
                os.mkdir(os.path.dirname(out))
                assert ingest_cli(src, out, "acn-json",
                                  "--min-points", str(min_points),
                                  "--min-sessions", str(min_sessions)) == 0
                with open(out, "rb") as a, open(want, "rb") as b:
                    assert a.read() == b.read()
                prov = corpus.provenance
                assert counts(os.path.dirname(out), "ingest") == {
                    "parsed": len(corpus), "kept": len(once),
                    "evs": len(once.labels()),
                    "dropped_missing_field": prov.dropped_missing_field,
                    "truncated_mismatched": prov.truncated_mismatched,
                    "clamped_negative": prov.clamped_negative}
                assert sorted(os.listdir(os.path.dirname(out))) == \
                    ["corpus.jsonl", "manifest.json"]

        check()
