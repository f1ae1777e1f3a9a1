"""Generator tests: determinism, signature separation, session shape."""

import numpy as np
import pytest

from evprofiler.ingest import Corpus
from evprofiler.synth import (LAMBDA_GRID, LENGTH_BOUNDS, SynthOptions,
                              SyntheticSignature, TERMINATION_CURRENT,
                              generate_corpus, generate_session,
                              generate_signature, planted_boundaries)


class TestGenerateSignature:
    def test_deterministic(self):
        a = generate_signature(4, seed=9)
        b = generate_signature(4, seed=9)
        assert a == b

    def test_seed_changes_assignment(self):
        a = generate_signature(4, seed=9)
        b = generate_signature(4, seed=10)
        assert a != b

    def test_well_separated_decay_rates_distinct(self):
        lams = [generate_signature(i, seed=1).decay_rate for i in range(25)]
        step = LAMBDA_GRID[1] - LAMBDA_GRID[0]
        for i in range(25):
            for j in range(i + 1, 25):
                assert abs(lams[i] - lams[j]) >= step - 1e-12

    def test_overlapping_has_close_pair_by_pigeonhole(self):
        gaps = sorted(generate_signature(i, seed=2, separation="overlapping").cc_gap
                      for i in range(100))
        noise = generate_signature(0, seed=2, separation="overlapping").noise_sigma
        closest = min(b - a for a, b in zip(gaps, gaps[1:]))
        assert closest <= noise

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            SyntheticSignature(16.0, 17.0, 0.05, 12, 1.0, 0.1, 0.7)
        with pytest.raises(ValueError):
            SyntheticSignature(16.0, 2.0, 0.05, 12, 1.0, 0.1, 0.5)


class TestGenerateSession:
    def test_noiseless_shape(self):
        sig = SyntheticSignature(32.0, 2.0, 0.05, 19, 1.2, 0.0, 0.7)
        session = generate_session(sig, 1, length=600)
        onset, z0 = planted_boundaries(sig, 600)
        current = session.current.values
        np.testing.assert_allclose(current[:onset], 30.0)
        assert np.all(current[z0:] == 0.0)
        assert np.all(current[onset:z0] > 0.0)
        np.testing.assert_allclose(session.pilot.values, 32.0)

    def test_decay_is_exponential_between_spikes(self):
        sig = SyntheticSignature(24.0, 1.0, 0.04, 1000, 0.0, 0.0, 0.6)
        session = generate_session(sig, 3, length=700)
        onset, z0 = planted_boundaries(sig, 700)
        t = np.arange(onset, z0)
        expected = 23.0 * np.exp(-0.04 * (t - onset))
        np.testing.assert_allclose(session.current.values[onset:z0], expected)

    def test_same_signature_same_plateau_across_seeds(self):
        sig = generate_signature(2, seed=5)
        s1 = generate_session(sig, 100, length=800)
        s2 = generate_session(sig, 200, length=800)
        onset, _ = planted_boundaries(sig, 800)
        plateau = sig.pilot_level - sig.cc_gap
        for s in (s1, s2):
            assert abs(np.mean(s.current.values[:onset]) - plateau) < 0.02
        assert not np.array_equal(s1.current.values, s2.current.values)

    def test_truncated_session_has_no_zero_region(self):
        sig = generate_signature(0, seed=5)
        session = generate_session(sig, 7, length=800, truncate_prob=1.0)
        onset, _ = planted_boundaries(sig, 800)
        assert len(session.current) < onset
        assert np.all(session.current.values > 1.0)

    def test_min_length_enforced(self):
        sig = generate_signature(0, seed=5)
        with pytest.raises(ValueError):
            generate_session(sig, 1, length=100)

    def test_termination_cutoff_respected(self):
        sig = SyntheticSignature(32.0, 2.0, 0.05, 1000, 0.0, 0.0, 0.7)
        session = generate_session(sig, 1, length=600)
        _, z0 = planted_boundaries(sig, 600)
        assert session.current.values[z0 - 1] >= TERMINATION_CURRENT
        assert session.current.values[z0] == 0.0


class TestGenerateCorpus:
    def test_counts_and_labels(self):
        corpus = generate_corpus(25, 50, seed=13)
        assert len(corpus) == 1250
        assert len({s.ev_label for s in corpus if s.ev_label}) == 25

    def test_regeneration_is_identical(self, tmp_path):
        from evprofiler.ingest import write_sessions
        a = generate_corpus(4, 6, seed=99)
        b = generate_corpus(4, 6, seed=99)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_sessions(a, str(pa))
        write_sessions(b, str(pb))
        assert pa.read_bytes() == pb.read_bytes()

    def test_lengths_within_bounds(self):
        lo, hi = LENGTH_BOUNDS
        corpus = generate_corpus(3, 10, seed=1)
        lengths = {len(s.current) for s in corpus.sessions}
        assert all(lo <= n <= hi for n in lengths)
        assert len(lengths) > 1

    def test_truncation_rate_binomial(self):
        from evprofiler.tail import segment_session, SegmentPair
        corpus = generate_corpus(25, 50, seed=5,
                                 options=SynthOptions(truncate_prob=0.1))
        rejected = sum(1 for s in corpus.sessions
                       if not isinstance(segment_session(s), SegmentPair))
        # Binomial(1250, 0.1): mean 125, std ~10.6; allow 4 sigma
        assert 82 <= rejected <= 168

    def test_corpus_type(self):
        assert isinstance(generate_corpus(2, 2, seed=0), Corpus)


class TestSeparabilityMonotonicity:
    def test_well_separated_at_least_as_accurate_as_overlapping(self):
        import warnings
        from evprofiler.experiments import (ExperimentConfig, multiclass_jobs,
                                            run_cells)
        from evprofiler.features import featurize_corpus

        grids = {"random-forest": {"n_estimators": [10], "max_depth": [None]}}
        scores = {}
        for separation in ("well-separated", "overlapping"):
            corpus = generate_corpus(
                30, 12, seed=55, options=SynthOptions(separation=separation))
            features, _ = featurize_corpus(corpus)
            config = ExperimentConfig(
                families=("random-forest",), grids=grids,
                nof=134, repetitions=2, master_seed=55)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cells = run_cells(config, features, multiclass_jobs(
                    config, features, "multiclass", range(features.n_rows)))
            scores[separation] = np.mean([c.accuracy for c in cells])
        assert scores["well-separated"] >= scores["overlapping"] - 1e-9
        assert scores["well-separated"] >= 0.9
