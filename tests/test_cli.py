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
