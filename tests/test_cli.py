"""CLI tests: stage wiring, exit codes, manifests, reports, determinism."""

import json
import os
import subprocess
import sys

import pytest

from evprofiler.cli import main
from evprofiler.config import parse_config_file, ConfigError


def run_cli(*args):
    return main(list(args))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A tiny synthetic corpus pushed through synth -> ingest -> extract ->
    featurize once; several tests read from it."""
    root = tmp_path_factory.mktemp("pipeline")
    paths = {
        "raw": str(root / "raw" / "raw.jsonl"),
        "corpus": str(root / "corpus" / "corpus.jsonl"),
        "segments": str(root / "segments" / "segments.jsonl"),
        "rejects": str(root / "segments" / "rejects.csv"),
        "features": str(root / "features" / "features.csv"),
        "exp": str(root / "exp"),
    }
    for p in paths.values():
        os.makedirs(os.path.dirname(p) if os.path.splitext(p)[1] else p,
                    exist_ok=True)
    assert run_cli("synth", "--evs", "4", "--sessions", "14", "--seed", "5",
                   "--out", paths["raw"]) == 0
    assert run_cli("ingest", "--input", paths["raw"], "--format", "acn-json",
                   "--min-sessions", "10", "--out", paths["corpus"]) == 0
    assert run_cli("extract", "--sessions", paths["corpus"],
                   "--out", paths["segments"], "--rejects", paths["rejects"]) == 0
    assert run_cli("featurize", "--segments", paths["segments"],
                   "--out", paths["features"]) == 0
    return paths


@pytest.fixture(scope="module")
def experiment_dir(pipeline):
    """A one-cell multiclass run over the pipeline's features, for
    ``report``."""
    assert run_cli("experiment", "multiclass", "--features",
                   pipeline["features"], "--classifiers", "dt", "--reps", "1",
                   "--out", pipeline["exp"]) == 0
    return pipeline["exp"]


ONE_PROCESS_STAGES = ("synth", "ingest", "extract", "featurize", "report")


def stage_args(stage, pipeline, experiment_dir, out):
    """A run of ``stage`` on the pipeline's files whose manifest goes into
    the directory ``out``."""
    return {
        "synth": ["synth", "--evs", "2", "--sessions", "3",
                  "--out", str(out / "raw.jsonl")],
        "ingest": ["ingest", "--input", pipeline["raw"], "--format",
                   "acn-json", "--out", str(out / "corpus.jsonl")],
        "extract": ["extract", "--sessions", pipeline["corpus"],
                    "--out", str(out / "segments.jsonl")],
        "featurize": ["featurize", "--segments", pipeline["segments"],
                      "--out", str(out / "features.csv")],
        "experiment": ["experiment", "multiclass", "--features",
                       pipeline["features"], "--classifiers", "dt",
                       "--reps", "1", "--out", str(out)],
        "report": ["report", "--in", experiment_dir, "--out", str(out)],
    }[stage]


class TestStageOptions:
    """Each stage accepts only the options it reads: ``--workers`` is the
    experiment suites' process count and the other stages take only 1;
    ``extract`` alone takes ``--config``."""

    @pytest.mark.parametrize("stage", ONE_PROCESS_STAGES + ("experiment",))
    def test_manifest_times_the_stage(self, pipeline, experiment_dir,
                                      tmp_path, stage):
        # --workers 1 as the benchmark passes it to every stage
        out = tmp_path / "out"
        args = stage_args(stage, pipeline, experiment_dir, out)
        assert run_cli(*args, "--seed", "3", "--workers", "1") == 0
        timings = json.loads((out / "manifest.json").read_text())["timings"]
        assert list(timings) == [stage]
        assert isinstance(timings[stage], float) and timings[stage] >= 0

    @pytest.mark.parametrize("workers", ["0", "2"])
    @pytest.mark.parametrize("stage", ONE_PROCESS_STAGES)
    def test_one_process_stage_refuses_other_workers(
            self, pipeline, experiment_dir, tmp_path, capsys, stage, workers):
        out = tmp_path / "out"
        args = stage_args(stage, pipeline, experiment_dir, out)
        with pytest.raises(SystemExit) as exc:
            run_cli(*args, "--workers", workers)
        assert exc.value.code == 2
        assert "argument --workers: invalid choice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["synth", "ingest", "featurize",
                                       "experiment", "report"])
    def test_config_is_extracts_alone(self, pipeline, experiment_dir,
                                      tmp_path, capsys, stage):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tail.min_len = 10\n")
        out = tmp_path / "out"
        args = stage_args(stage, pipeline, experiment_dir, out)
        with pytest.raises(SystemExit) as exc:
            run_cli(*args, "--config", str(cfg))
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not out.exists()

    def test_extract_records_its_config(self, pipeline, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("filter.window = 7\ntail.min_len = 10\n")
        out = tmp_path / "out"
        args = stage_args("extract", pipeline, None, out)
        assert run_cli(*args, "--config", str(cfg)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == {"filter.window": 7, "tail.min_len": 10}

    def test_missing_config_is_1(self, pipeline, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        args = stage_args("extract", pipeline, None, tmp_path / "out")
        assert run_cli(*args, "--config", str(missing)) == 1
        assert (f"error: DomainError: config file not found: {missing}"
                in capsys.readouterr().err)


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark is dropped: the input reads as the
    same file without it."""

    @staticmethod
    def _with_and_without_bom(tmp_path, fmt):
        import codecs

        from evprofiler.ingest import write_sessions
        from evprofiler.synth import SynthOptions, generate_corpus

        plain = tmp_path / "plain.in"
        corpus = generate_corpus(2, 4, 9, SynthOptions(truncate_prob=0.5))
        write_sessions(corpus, str(plain), fmt)
        bom = tmp_path / "bom.in"
        bom.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        return plain, bom

    @pytest.mark.parametrize("fmt", ["acn-json", "csv"])
    def test_ingest(self, tmp_path, fmt):
        outputs = []
        for path in self._with_and_without_bom(tmp_path, fmt):
            out = tmp_path / path.stem / "corpus.jsonl"
            assert run_cli("ingest", "--input", str(path), "--format", fmt,
                           "--min-sessions", "1", "--out", str(out)) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] and outputs[0] == outputs[1]

    def test_extract(self, tmp_path):
        outputs = []
        for path in self._with_and_without_bom(tmp_path, "acn-json"):
            out = tmp_path / path.stem
            assert run_cli("extract", "--sessions", str(path),
                           "--out", str(out / "segments.jsonl"),
                           "--rejects", str(out / "rejects.csv")) == 0
            outputs.append(((out / "segments.jsonl").read_bytes(),
                            (out / "rejects.csv").read_bytes()))
        assert outputs[0][0] and outputs[0][1].count(b"\n") > 1
        assert outputs[0] == outputs[1]


class TestCutOffByteOrderMark:
    """A file holding only the first bytes of a byte-order mark is not UTF-8
    text: exit 1, and nothing written."""

    @pytest.mark.parametrize("content", [b"\xef", b"\xef\xbb"],
                             ids=["1-byte", "2-byte"])
    @pytest.mark.parametrize("stage", ["ingest-acn-json", "ingest-csv",
                                       "extract"])
    def test_is_1(self, tmp_path, capsys, content, stage):
        path = tmp_path / "cut.in"
        path.write_bytes(content)
        if stage == "extract":
            args = ["extract", "--sessions", str(path),
                    "--out", str(tmp_path / "segments.jsonl")]
        else:
            args = ["ingest", "--input", str(path),
                    "--format", stage.removeprefix("ingest-"),
                    "--out", str(tmp_path / "corpus.jsonl")]
        assert run_cli(*args) == 1
        assert capsys.readouterr().err == (f"error: ParseError: {path}: "
                                           "not UTF-8 text (unexpected end "
                                           "of data)\n")
        assert os.listdir(tmp_path) == ["cut.in"]


class TestStages:
    def test_synth_output_and_manifest(self, pipeline):
        lines = open(pipeline["raw"]).read().splitlines()
        assert len(lines) == 56
        manifest = json.load(open(os.path.join(
            os.path.dirname(pipeline["raw"]), "manifest.json")))
        assert manifest["command"] == "synth"
        assert manifest["counts"]["synth"]["sessions"] == 56
        assert "synth" in manifest["timings"]

    def test_ingest_manifest_counts(self, pipeline):
        manifest = json.load(open(os.path.join(
            os.path.dirname(pipeline["corpus"]), "manifest.json")))
        assert manifest["counts"]["ingest"]["kept"] == 56
        assert manifest["inputs"]  # input digest recorded

    def test_extract_writes_segments_and_rejects(self, pipeline):
        segments = open(pipeline["segments"]).read().splitlines()
        assert len(segments) == 56
        first = json.loads(segments[0])
        assert first["tStart"] < first["tS"]
        assert len(first["delta"]) == first["tStart"]
        assert open(pipeline["rejects"]).readline().startswith("session_id,")

    def test_rejects_keep_commas_and_quotes(self, tmp_path):
        import csv
        import dataclasses

        from evprofiler.ingest import Corpus, write_sessions
        from evprofiler.synth import SynthOptions, generate_corpus

        corpus = generate_corpus(1, 3, 2, SynthOptions(truncate_prob=1.0))
        ids = ['a,b', 'say "hi"', 'plain']
        sessions = [dataclasses.replace(s, session_id=sid)
                    for s, sid in zip(corpus.sessions, ids)]
        raw = str(tmp_path / "raw.jsonl")
        write_sessions(Corpus(tuple(sessions)), raw, "acn-json")
        rejects = str(tmp_path / "rejects.csv")
        assert run_cli("extract", "--sessions", raw, "--out",
                       str(tmp_path / "seg.jsonl"), "--rejects", rejects) == 0
        with open(rejects, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["session_id", "code", "detail"]
        assert [r[0] for r in rows[1:]] == ids
        assert all(len(r) == 3 for r in rows)

    def test_extract_manifest_counts_rejections_per_code(self, tmp_path):
        import csv
        from collections import Counter

        from evprofiler.tail import REJECTION_CODES

        raw = str(tmp_path / "raw.jsonl")
        rejects = str(tmp_path / "out" / "rejects.csv")
        assert run_cli("synth", "--evs", "2", "--sessions", "8", "--seed", "3",
                       "--truncate-prob", "0.5", "--out", raw) == 0
        os.makedirs(os.path.dirname(rejects))
        assert run_cli("extract", "--sessions", raw, "--out",
                       str(tmp_path / "out" / "seg.jsonl"),
                       "--rejects", rejects) == 0
        counts = json.load(open(tmp_path / "out" / "manifest.json"))["counts"]["extract"]
        by_code = counts["rejected_by_code"]
        assert counts["rejected"] > 0
        assert set(by_code) <= set(REJECTION_CODES)
        assert sum(by_code.values()) == counts["rejected"]
        with open(rejects, newline="", encoding="utf-8") as fh:
            written = Counter(row["code"] for row in csv.DictReader(fh))
        assert {c: n for c, n in by_code.items() if n} == dict(written)

    def test_featurize_writes_matrix(self, pipeline):
        header = open(pipeline["features"]).readline().strip().split(",")
        assert header[:2] == ["session_id", "ev_label"]
        assert len(header) == 2 + 134

    def test_experiment_and_report(self, pipeline, tmp_path):
        out = str(tmp_path / "exp")
        assert run_cli("experiment", "binary", "--features", pipeline["features"],
                       "--values", "1", "--classifiers", "dt", "--reps", "1",
                       "--min-target", "10", "--seed", "3", "--out", out) == 0
        assert os.path.exists(os.path.join(out, "cells.csv"))
        assert run_cli("report", "--in", out) == 0
        pivot = open(os.path.join(out, "f1_vs_balance.csv")).read().splitlines()
        assert pivot[0] == "balance_mode,balance_value,classifier,mean_f1,std_f1"
        assert len(pivot) == 2

    def test_report_rewrites_the_experiments_summary_md(self, pipeline,
                                                        tmp_path):
        # report summarizes the cells it reads back as experiment did
        out = str(tmp_path / "exp")
        assert run_cli("experiment", "binary", "--features", pipeline["features"],
                       "--values", "1,2", "--classifiers", "dt,knn",
                       "--reps", "2", "--min-target", "10", "--seed", "4",
                       "--out", out) == 0
        summary_md = os.path.join(out, "summary.md")
        written = open(summary_md, "rb").read()
        os.remove(summary_md)
        assert run_cli("report", "--in", out) == 0
        assert written.count(b"\n## ") == 2
        assert open(summary_md, "rb").read() == written

    def test_multiclass_default_nof_keeps_every_column_without_warning(
            self, pipeline, tmp_path):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("experiment", "multiclass", "--features",
                           pipeline["features"], "--classifiers", "dt",
                           "--reps", "1", "--out", str(tmp_path / "exp")) == 0

    def test_report_without_cells_fails(self, tmp_path):
        assert run_cli("report", "--in", str(tmp_path)) == 1

    def test_report_empty_cells_fails(self, tmp_path):
        path = tmp_path / "cells.csv"
        path.write_text("suite,group,target_ev,repetition,classifier,"
                        "best_params,accuracy,macro_f1,positive_f1,"
                        "n_train,n_test,status,error\n")
        assert run_cli("report", "--in", str(tmp_path)) == 1


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_in_clean_process(**preset):
    """The three BLAS thread variables, and whether numpy was loaded, right
    after ``import evprofiler`` in a fresh interpreter whose environment
    holds none of them except ``preset``. A fresh process, because this
    one loaded numpy long ago."""
    import evprofiler
    src = os.path.dirname(os.path.dirname(os.path.abspath(evprofiler.__file__)))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    probe = ("import json, os, sys; import evprofiler; "
             f"print(json.dumps([{{v: os.environ.get(v) for v in {BLAS_THREAD_VARS!r}}}, "
             "'numpy' in sys.modules]))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


class TestBlasThreads:
    def test_import_defaults_one_thread_before_numpy(self):
        values, numpy_loaded = _import_in_clean_process()
        assert values == {v: "1" for v in BLAS_THREAD_VARS}
        assert not numpy_loaded

    def test_user_values_are_kept(self):
        values, _ = _import_in_clean_process(OMP_NUM_THREADS="3")
        assert values == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3",
                          "MKL_NUM_THREADS": "1"}


class TestExitCodes:
    def test_usage_error_is_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "evprofiler.cli", "experiment", "binary"],
            capture_output=True, text=True)
        assert result.returncode == 2

    def test_unknown_command_is_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "evprofiler.cli", "frobnicate"],
            capture_output=True, text=True)
        assert result.returncode == 2

    def test_domain_error_is_1(self, tmp_path):
        missing = str(tmp_path / "nope.jsonl")
        assert run_cli("extract", "--sessions", missing,
                       "--out", str(tmp_path / "o.jsonl")) == 1

    @pytest.mark.parametrize("content", ["", "session_id,ev_label,f0\n"],
                             ids=["empty", "header-only"])
    def test_feature_file_without_rows_is_1(self, tmp_path, capsys, content):
        path = tmp_path / "features.csv"
        path.write_text(content)
        assert run_cli("experiment", "multiclass", "--features", str(path),
                       "--out", str(tmp_path / "exp")) == 1
        err = capsys.readouterr().err
        assert f"error: ValueError: {path}: no feature rows" in err

    def test_trailing_blank_line_is_skipped(self, pipeline, tmp_path):
        blank = tmp_path / "features.csv"
        blank.write_text(open(pipeline["features"]).read() + "\n")
        cells = []
        for name, features in (("plain", pipeline["features"]), ("blank", blank)):
            out = tmp_path / name
            assert run_cli("experiment", "multiclass", "--features", str(features),
                           "--classifiers", "dt", "--reps", "1",
                           "--out", str(out)) == 0
            cells.append((out / "cells.csv").read_bytes())
        assert cells[0] == cells[1]

    def test_short_feature_row_is_1_without_traceback(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("session_id,ev_label,f0,f1\nS1,A,0.5,1.0\nS2,B,0.5\n")
        result = subprocess.run(
            [sys.executable, "-m", "evprofiler.cli", "experiment", "multiclass",
             "--features", str(path), "--out", str(tmp_path / "exp")],
            capture_output=True, text=True)
        assert result.returncode == 1
        assert result.stderr.startswith(
            f"error: ValueError: {path}: line 3 has 3 cells, the header has 4")
        assert "Traceback" not in result.stderr

    def test_nof_below_one_is_1(self, pipeline, tmp_path, capsys):
        out = tmp_path / "exp"
        assert run_cli("experiment", "multiclass", "--features",
                       pipeline["features"], "--classifiers", "dt",
                       "--nof", "0", "--reps", "1", "--out", str(out)) == 1
        assert "error: ValueError: nof must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_workers_below_one_is_1(self, pipeline, tmp_path, capsys):
        # not a quiet in-process run on one core
        out = tmp_path / "exp"
        assert run_cli("experiment", "multiclass", "--features",
                       pipeline["features"], "--classifiers", "dt",
                       "--workers", "0", "--reps", "1", "--out", str(out)) == 1
        assert "error: ValueError: workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["binary", "--values", "7", "--min-target", "10"],
         "ValueError: balance value 7.0 must be in [1, 5]"),
        (["binary", "--balance", "q", "--values", "0.5", "--min-target", "10"],
         "ValueError: balance value 0.5 must be in [1, 5]"),
        (["distribution", "--shape", "uniform", "--bins", "0"],
         "ValueError: bins must be >= 1"),
        (["distribution", "--shape", "uniform", "--per-bin", "0"],
         "ValueError: per_bin must be >= 1"),
        (["distribution", "--shape", "normal", "--n-evs", "0"],
         "ValueError: n_evs must be >= 1"),
        (["grid", "--evs", "0", "--samples", "8"],
         "SubsampleError: n_evs and samples_per_ev must be >= 1, got 0 and 8"),
        (["grid", "--evs", "2", "--samples", "0"],
         "SubsampleError: n_evs and samples_per_ev must be >= 1, got 2 and 0"),
        (["binary", "--values", "1,3,1", "--min-target", "10"],
         "ValueError: balance values repeat: (1.0, 3.0, 1.0)"),
        (["grid", "--evs", "2,2", "--samples", "8"],
         "DomainError: --evs values repeat: 2,2"),
        (["grid", "--evs", "2", "--samples", "8,8"],
         "DomainError: --samples values repeat: 8,8"),
        (["multiclass", "--classifiers", "knn,knn"],
         "ValueError: classifier families repeat: ('knn', 'knn')"),
        (["multiclass", "--classifiers", "rf,random-forest"],
         "ValueError: classifier families repeat: "
         "('random-forest', 'random-forest')"),
    ], ids=["binary-value-7", "binary-q-value-0.5", "bins-0", "per-bin-0",
            "normal-n-evs-0", "grid-evs-0", "grid-samples-0",
            "binary-values-repeat", "grid-evs-repeat", "grid-samples-repeat",
            "classifiers-repeat", "classifier-aliases-repeat"])
    def test_bad_suite_argument_is_1_before_any_cell(self, pipeline, tmp_path,
                                                     capsys, args, message):
        out = tmp_path / "exp"
        assert run_cli("experiment", *args, "--features", pipeline["features"],
                       "--out", str(out)) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (out / "cells.csv").exists()

    @pytest.mark.parametrize("args", [
        ["binary", "--min-target", "10"], ["multiclass"],
        ["grid", "--evs", "2", "--samples", "8"],
        ["distribution", "--shape", "uniform"],
    ], ids=["binary", "multiclass", "grid", "distribution"])
    def test_negative_seed_is_1_before_any_cell(self, pipeline, tmp_path,
                                                capsys, args):
        out = tmp_path / "exp"
        assert run_cli("experiment", *args, "--features", pipeline["features"],
                       "--seed", "-1", "--out", str(out)) == 1
        assert ("error: ValueError: expected non-negative integer"
                in capsys.readouterr().err)
        assert not (out / "cells.csv").exists()

    def test_out_of_range_segment_is_1_without_traceback(self, tmp_path):
        segments = tmp_path / "segments.jsonl"
        segments.write_text(json.dumps({
            "sessionID": "S", "evLabel": "EV", "tStart": 2, "tS": 5,
            "tail": [1e80, 0.0, 1e80], "delta": [1.0, 2.0]}) + "\n")
        out = tmp_path / "features.csv"
        result = subprocess.run(
            [sys.executable, "-m", "evprofiler.cli", "featurize",
             "--segments", str(segments), "--out", str(out)],
            capture_output=True, text=True)
        assert result.returncode == 1
        assert result.stderr.startswith("error: ValueError: ")
        assert "Traceback" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("lines, message", [
        (['{"sessionID": "a"}'], "line 2: missing field 'tail'"),
        (["{broken"], "line 2: invalid JSON (Expecting property name "
                      "enclosed in double quotes)"),
        (["", "[1, 2]"], "line 3: expected a JSON object"),
        (['{"sessionID": "a", "tail": [1.0, null], "delta": [1.0], '
          '"tStart": 1, "tS": 3}'],
         "line 2: time series values must all be finite"),
    ], ids=["missing-field", "broken-json", "not-an-object", "null-value"])
    def test_bad_segments_line_is_1_without_traceback(self, pipeline, tmp_path,
                                                      capsys, lines, message):
        # one good segment line, then the lines under test
        segments = tmp_path / "segments.jsonl"
        good = open(pipeline["segments"]).readline()
        segments.write_text(good + "\n".join(lines) + "\n")
        out = tmp_path / "features.csv"
        code = run_cli("featurize", "--segments", str(segments), "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: ValueError: {segments}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["ingest", "extract"])
    @pytest.mark.parametrize("lines, message", [
        (["{broken"], "line 2: invalid JSON (Expecting property name "
                      "enclosed in double quotes)"),
        (["", "[1, 2]"], "line 3: expected a JSON object"),
        (['{"sessionID": "b", "pilotSignal": [1.0], "chargingCurrent": "x"}'],
         "line 2: bad numeric list (a str, not a JSON array)"),
    ], ids=["broken-json", "not-an-object", "bad-series"])
    def test_bad_session_line_names_the_file(self, pipeline, tmp_path, capsys,
                                             stage, lines, message):
        # one good session line, then the lines under test
        sessions = tmp_path / "sessions.jsonl"
        good = open(pipeline["corpus"]).readline()
        sessions.write_text(good + "\n".join(lines) + "\n")
        out = tmp_path / "out.jsonl"
        args = (["ingest", "--input", str(sessions), "--format", "acn-json"]
                if stage == "ingest" else ["extract", "--sessions", str(sessions)])
        assert run_cli(*args, "--out", str(out)) == 1
        assert capsys.readouterr().err == \
            f"error: ParseError: {sessions}: {message}\n"
        assert not out.exists()

    def test_bad_csv_row_names_the_file(self, tmp_path, capsys):
        from evprofiler.ingest import CSV_HEADER

        raw = tmp_path / "raw.csv"
        raw.write_text(",".join(CSV_HEADER) + "\n"
                       + "S1,EV1,ST,t0,1.0,1.0;abc,1.0;2.0\n")
        assert run_cli("ingest", "--input", str(raw), "--format", "csv",
                       "--out", str(tmp_path / "corpus.jsonl")) == 1
        assert capsys.readouterr().err.startswith(
            f"error: ParseError: {raw}: row 2: bad numeric list")

    @pytest.mark.parametrize("stage", ["synth", "ingest", "extract", "featurize"])
    def test_missing_out_directory_is_created(self, pipeline, tmp_path, stage):
        """Every stage makes the directory of its --out, and extract that of
        its --rejects, as experiment makes its --out; the outputs equal
        those written into existing directories."""
        out = tmp_path / "new" / "dir" / "out"
        args = {
            "synth": ["synth", "--evs", "4", "--sessions", "14", "--seed", "5"],
            "ingest": ["ingest", "--input", pipeline["raw"], "--format",
                       "acn-json", "--min-sessions", "10"],
            "extract": ["extract", "--sessions", pipeline["corpus"],
                        "--rejects", str(tmp_path / "other" / "rejects.csv")],
            "featurize": ["featurize", "--segments", pipeline["segments"]],
        }[stage]
        want = {"synth": "raw", "ingest": "corpus", "extract": "segments",
                "featurize": "features"}[stage]
        assert run_cli(*args, "--out", str(out)) == 0
        assert out.read_bytes() == open(pipeline[want], "rb").read()
        assert sorted(os.listdir(out.parent)) == ["manifest.json", "out"]
        if stage == "extract":
            assert ((tmp_path / "other" / "rejects.csv").read_bytes()
                    == open(pipeline["rejects"], "rb").read())

    def test_synth_streams_the_corpus_bytes(self, tmp_path, monkeypatch):
        """synth writes each session as it is made, the bytes that
        write_sessions gives for generate_corpus, and never builds the
        corpus."""
        from evprofiler import cli, synth
        from evprofiler.ingest import write_sessions

        options = synth.SynthOptions("overlapping", truncate_prob=0.3)
        want = tmp_path / "want.jsonl"
        write_sessions(synth.generate_corpus(5, 7, 11, options), str(want))
        monkeypatch.setattr(synth, "generate_corpus", None)
        out = tmp_path / "raw.jsonl"
        assert run_cli("synth", "--evs", "5", "--sessions", "7", "--seed", "11",
                       "--separation", "overlapping", "--truncate-prob", "0.3",
                       "--out", str(out)) == 0
        assert out.read_bytes() == want.read_bytes()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["counts"]["synth"] == {"sessions": 35, "evs": 5}
        assert not hasattr(cli, "generate_corpus")

    def test_output_file_without_extension(self, tmp_path):
        out = tmp_path / "raw"
        assert run_cli("synth", "--evs", "2", "--sessions", "2",
                       "--out", str(out)) == 0
        assert out.is_file()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "synth"


class TestDeterminism:
    def test_pipeline_rerun_is_byte_identical(self, tmp_path):
        outputs = {}
        for tag in ("a", "b"):
            d = tmp_path / tag
            d.mkdir()
            raw = str(d / "raw.jsonl")
            segs = str(d / "segments.jsonl")
            feats = str(d / "features.csv")
            exp = str(d / "exp")
            assert run_cli("synth", "--evs", "3", "--sessions", "12",
                           "--seed", "11", "--out", raw) == 0
            assert run_cli("extract", "--sessions", raw, "--out", segs) == 0
            assert run_cli("featurize", "--segments", segs, "--out", feats) == 0
            assert run_cli("experiment", "multiclass", "--features", feats,
                           "--size", "complete", "--classifiers", "dt",
                           "--reps", "2", "--seed", "4", "--out", exp) == 0
            outputs[tag] = {
                "raw": open(raw, "rb").read(),
                "segments": open(segs, "rb").read(),
                "features": open(feats, "rb").read(),
                "cells": open(os.path.join(exp, "cells.csv"), "rb").read(),
                "summary": open(os.path.join(exp, "summary.csv"), "rb").read(),
            }
        assert outputs["a"] == outputs["b"]


class TestConfigFile:
    def test_parse_and_apply(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# smoothing\nfilter.window = 7\ntail.min_len = 10\n")
        values = parse_config_file(str(cfg))
        assert values == {"filter.window": 7, "tail.min_len": 10}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frob.nication = 3\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(cfg))

    @pytest.mark.parametrize("key", ["tail.zero_eps", "tail.epsilon"])
    def test_nan_tail_tolerance_is_1(self, tmp_path, capsys, key):
        # with zero_eps = nan every session would be rejected as
        # no-zero-anchor, silently
        sessions = tmp_path / "sessions.jsonl"
        sessions.write_text("")
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(f"{key} = nan\n")
        assert run_cli("extract", "--sessions", str(sessions), "--out",
                       str(tmp_path / "segments.jsonl"), "--config", str(cfg)) == 1
        assert f"{key.split('.')[1]} must be" in capsys.readouterr().err

    def test_extract_honors_config(self, tmp_path):
        raw = str(tmp_path / "raw.jsonl")
        assert run_cli("synth", "--evs", "2", "--sessions", "6", "--seed", "2",
                       "--out", raw) == 0
        cfg = tmp_path / "strict.cfg"
        cfg.write_text("tail.min_len = 1900\n")  # rejects everything
        segs = str(tmp_path / "segments.jsonl")
        assert run_cli("extract", "--sessions", raw, "--out", segs,
                       "--config", str(cfg)) == 0
        assert open(segs).read() == ""
