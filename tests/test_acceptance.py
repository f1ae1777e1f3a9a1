"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 10 (real ACN
export) is skipped unless EVPROFILER_ACN_EXPORT points at an acn-json file.
"""

import os
import time
import warnings

import numpy as np
import pytest

from evprofiler.experiments import (ExperimentConfig, binary_jobs,
                                    multiclass_jobs, run_cells,
                                    grid_rows, build_binary_dataset)
from evprofiler.features import FeatureMatrix, chi2_scores, featurize_corpus
from evprofiler.filters import (FilterParams, low_pass_values,
                                moving_average_values, moving_median_values,
                                smooth_current)
from evprofiler.ingest import apply_primary_filters, parse_sessions
from evprofiler.synth import (SynthOptions, generate_corpus,
                              generate_signature, planted_boundaries)
from evprofiler.tail import TailParams, extract_tail, find_zero_anchor

RF_GRID = {"random-forest": {"n_estimators": [10], "max_depth": [None]}}


def ok(criterion: str, detail: str) -> None:
    print(f"\n[acceptance] PASS {criterion}: {detail}")


def quiet(func, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return func(*args, **kwargs)


# ---------------------------------------------------------------------------
# criterion 1: filter oracle equivalence

def naive_moving_average(x, n):
    half = n // 2
    return [sum(x[max(t - half, 0):min(t + half + 1, len(x))])
            / (min(t + half + 1, len(x)) - max(t - half, 0))
            for t in range(len(x))]


def naive_moving_median(x, n):
    half = n // 2
    out = []
    for t in range(len(x)):
        w = sorted(x[max(t - half, 0):min(t + half + 1, len(x))])
        m, mid = len(w), len(w) // 2
        out.append(w[mid] if m % 2 else (w[mid - 1] + w[mid]) / 2)
    return out


def naive_low_pass(x, alpha):
    out = [x[0]]
    for v in x[1:]:
        out.append(alpha * v + (1 - alpha) * out[-1])
    return out


def test_criterion_1_filter_oracles():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    for _ in range(1000):
        length = int(rng.integers(1, 5001))
        n = int(rng.choice(np.arange(3, 102, 2)))
        alpha = float(rng.uniform(0.05, 1.0))
        x = rng.normal(0, 10, length)
        xl = x.tolist()
        np.testing.assert_allclose(moving_average_values(x, n),
                                   naive_moving_average(xl, n), atol=1e-9)
        np.testing.assert_allclose(moving_median_values(x, n),
                                   naive_moving_median(xl, n), atol=1e-9)
        np.testing.assert_allclose(low_pass_values(x, alpha),
                                   naive_low_pass(xl, alpha), atol=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"filter oracle run took {elapsed:.1f}s (budget 30s)"
    ok("criterion 1", f"3 filters x 1000 series within 1e-9 in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: hand-computed selection statistics

def _matrix(x, labels):
    x = np.asarray(x, dtype=np.float64)
    return FeatureMatrix(tuple(f"s{i}" for i in range(x.shape[0])),
                         tuple(labels), x,
                         tuple(f"f{i}" for i in range(x.shape[1])))


def test_criterion_2_selection_statistics():
    from test_features import anova_f_scores, naive_anova_f, naive_chi2
    m = _matrix([[1.0], [0.5], [0.0], [0.5]], ["A", "A", "B", "B"])
    np.testing.assert_allclose(chi2_scores(m.x, list(m.labels)), [0.5])
    m = _matrix([[1.0], [2.0], [3.0], [4.0]], ["A", "A", "B", "B"])
    np.testing.assert_allclose(anova_f_scores(m, list(m.labels)), [8.0])

    rng = np.random.default_rng(2)
    checked = 0
    while checked < 200:
        n = int(rng.integers(4, 25))
        d = int(rng.integers(1, 10))
        labels = [f"C{rng.integers(3)}" for _ in range(n)]
        if len(set(labels)) < 2 or len(set(labels)) == n:
            continue
        x = rng.uniform(0, 1, (n, d))
        m = _matrix(x, labels)
        np.testing.assert_allclose(chi2_scores(m.x, labels),
                                   naive_chi2(x, labels), atol=1e-9)
        np.testing.assert_allclose(anova_f_scores(m, labels),
                                   naive_anova_f(x, labels),
                                   rtol=1e-9, atol=1e-9)
        checked += 1
    ok("criterion 2", "chi2=0.5 and F=8 exact; 200 random matrices within 1e-9")


# ---------------------------------------------------------------------------
# criterion 3: planted tail recovery

def _recovery_rate(seed, noise_sigma, filter_params, bound_extra):
    options = SynthOptions(noise_sigma=noise_sigma)
    corpus = generate_corpus(50, 10, seed=seed, options=options)
    tail_params = TailParams()
    hits_start = hits_anchor = 0
    for session in corpus.sessions:
        index = int(session.ev_label.split("-")[1])
        signature = generate_signature(index, seed, "well-separated")
        onset, zero_onset = planted_boundaries(signature, len(session.current))
        smoothed = smooth_current(session.current, filter_params)
        t_s = find_zero_anchor(smoothed, tail_params)
        assert t_s is not None, f"{session.session_id}: no zero anchor"
        t_start, _ = extract_tail(smoothed, t_s, tail_params)
        if abs(t_start - onset) <= tail_params.t_max + bound_extra:
            hits_start += 1
        if abs(t_s - zero_onset) <= 1:
            hits_anchor += 1
    return hits_start / 500.0, hits_anchor / 500.0


def test_criterion_3_tail_recovery():
    start = time.perf_counter()
    rate_start, rate_anchor = _recovery_rate(77, 0.0, FilterParams(), 0)
    assert rate_start == 1.0, f"noiseless t_start recovery {rate_start:.3f} < 1.0"
    assert rate_anchor == 1.0, f"noiseless t_s recovery {rate_anchor:.3f} < 1.0"
    # noisy arm: sigma 0.2 A with noise-matched smoothing (window 9); bound
    # t_max + 5 per the generator's planted-boundary contract
    noisy_rate, _ = _recovery_rate(78, 0.2, FilterParams(window=9), 5)
    assert noisy_rate >= 0.95, f"noisy t_start recovery {noisy_rate:.3f} < 0.95"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"tail recovery took {elapsed:.1f}s (budget 60s)"
    ok("criterion 3", f"noiseless 100%, noisy {noisy_rate:.1%} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: planted-signature multi-class accuracy

def test_criterion_4_multiclass_accuracy():
    start = time.perf_counter()
    corpus = generate_corpus(25, 50, seed=100)
    features, rejects = featurize_corpus(corpus)
    assert not rejects, f"{len(rejects)} sessions unexpectedly rejected"
    config = ExperimentConfig(families=("random-forest",),
                              grids=RF_GRID, nof=200, repetitions=2,
                              master_seed=100)
    report = quiet(run_cells, config, features,
                   multiclass_jobs(config, features, "multiclass",
                                   range(features.n_rows)))
    mean_accuracy = float(np.mean([c.accuracy for c in report.cells]))
    elapsed = time.perf_counter() - start
    assert mean_accuracy >= 0.90, f"RF accuracy {mean_accuracy:.3f} < 0.90"
    assert elapsed < 300.0, f"criterion 4 took {elapsed:.1f}s (budget 300s)"
    ok("criterion 4",
       f"25 EVs x 50 sessions RF accuracy {mean_accuracy:.3f} in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criteria 5 and 6: scaling trends

def _fixed_grid_accuracy(features, n_evs, samples_per_ev, seed):
    config = ExperimentConfig(families=("random-forest",),
                              grids=RF_GRID, nof=200,
                              repetitions=1, master_seed=seed)
    jobs = multiclass_jobs(config, features, "fixed-grid",
                           grid_rows(features, n_evs, samples_per_ev, seed),
                           n_evs=n_evs, samples_per_ev=samples_per_ev)
    report = quiet(run_cells, config, features, jobs)
    cell = report.cells[0]
    assert cell.status == "ok", cell.error
    return cell.accuracy


def _assert_trend(points, direction, tolerance=0.03):
    for (ka, va), (kb, vb) in zip(points, points[1:]):
        if direction == "non-increasing":
            assert vb <= va + tolerance, \
                f"{ka}->{kb}: {va:.3f} -> {vb:.3f} rises beyond {tolerance}"
        else:
            assert vb >= va - tolerance, \
                f"{ka}->{kb}: {va:.3f} -> {vb:.3f} drops beyond {tolerance}"


def test_criterion_5_class_count_trend():
    seeds = [200, 201, 202, 203, 204]
    sizes = (25, 75, 140)
    scores = {n: [] for n in sizes}
    for seed in seeds:
        corpus = generate_corpus(140, 25, seed=seed)
        features, _ = featurize_corpus(corpus)
        for n_evs in sizes:
            scores[n_evs].append(_fixed_grid_accuracy(features, n_evs, 25, seed))
    means = [(n, float(np.mean(scores[n]))) for n in sizes]
    _assert_trend(means, "non-increasing")
    ok("criterion 5", "accuracy by class count " +
       ", ".join(f"{n}: {v:.3f}" for n, v in means))


def test_criterion_6_samples_per_class_trend():
    seeds = [300, 301, 302, 303, 304]
    sweep = (10, 25, 50, 75)
    scores = {s: [] for s in sweep}
    for seed in seeds:
        corpus = generate_corpus(100, 80, seed=seed)
        features, _ = featurize_corpus(corpus)
        for samples in sweep:
            scores[samples].append(_fixed_grid_accuracy(features, 100,
                                                        samples, seed))
    means = [(s, float(np.mean(scores[s]))) for s in sweep]
    _assert_trend(means, "non-decreasing")
    ok("criterion 6", "accuracy by samples/EV " +
       ", ".join(f"{s}: {v:.3f}" for s, v in means))


# ---------------------------------------------------------------------------
# criterion 7: Q' robustness trend + exact balance ratios

def test_criterion_7_q_prime_trend():
    corpus = generate_corpus(6, 60, seed=400)
    features, _ = featurize_corpus(corpus)

    # exact ratio audit over every (EV, Q') pair
    for target in sorted(set(features.labels)):
        n_t = features.labels.count(target)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):
            labels = build_binary_dataset(
                features, target, ExperimentConfig(balance_mode="q-prime"),
                value, np.random.SeedSequence([400, int(value)]),
                features.by_label()).labels
            assert labels.count("target") == n_t
            assert labels.count("other") == int(value * n_t)

    config = ExperimentConfig(families=("random-forest",),
                              grids=RF_GRID, nof=100,
                              balance_values=(1.0, 2.0, 3.0, 4.0, 5.0),
                              min_target_samples=50, repetitions=5,
                              master_seed=400)
    report = quiet(run_cells, config, features, binary_jobs(config, features))
    assert all(c.status == "ok" for c in report.cells)
    f1_by_value = {row.group["balance_value"]: row.mean
                   for row in report.summary if row.metric == "positive_f1"}
    points = sorted(f1_by_value.items())
    assert f1_by_value[1.0] >= 0.9, f"Q'=1 F1 {f1_by_value[1.0]:.3f} < 0.9"
    _assert_trend(points, "non-increasing")
    ok("criterion 7", "mean F1 by Q' " +
       ", ".join(f"{q:.0f}: {v:.3f}" for q, v in points))


# ---------------------------------------------------------------------------
# criterion 8: no test-set leakage

def test_criterion_8_no_leakage(cell_recorder):
    # cell_recorder (conftest.py) reads the real arguments of the stages
    # run_cell fits: selection's rows and the array grid search trains on
    corpus = generate_corpus(5, 56, seed=500)
    features, _ = featurize_corpus(corpus)

    config = ExperimentConfig(families=("random-forest",),
                              grids=RF_GRID, nof=50, repetitions=3,
                              master_seed=500)
    quiet(run_cells, config, features,
          multiclass_jobs(config, features, "multiclass",
                          range(features.n_rows)))
    config = ExperimentConfig(families=("random-forest",),
                              grids=RF_GRID, nof=50, balance_values=(1.0, 2.0),
                              min_target_samples=50, repetitions=2,
                              master_seed=501)
    quiet(run_cells, config, features, binary_jobs(config, features))

    cells = cell_recorder.cells
    violations = cell_recorder.violations()
    fits = sum(len(cell["fits"]) for cell in cells)
    expected_stages = {"selection", "grid-search:random-forest"}
    seen_stages = {stage for cell in cells for stage, _ in cell["fits"]}
    assert expected_stages <= seen_stages
    assert violations == 0, (f"{violations} fit stages saw held-out rows "
                             "or an array transform did not return")
    ok("criterion 8",
       f"{fits} fit stages across {len(cells)} cells, 0 violations")


# ---------------------------------------------------------------------------
# criterion 9: byte-identical reports across worker counts

def test_criterion_9_determinism_across_workers(tmp_path):
    from evprofiler.cli import main as cli_main

    digests = []
    for tag, workers in (("w1", "1"), ("w2", "2")):
        base = tmp_path / tag
        base.mkdir()
        raw = str(base / "raw.jsonl")
        segments = str(base / "segments.jsonl")
        feats = str(base / "features.csv")
        exp_mc = str(base / "exp_mc")
        exp_bin = str(base / "exp_bin")
        assert cli_main(["synth", "--evs", "4", "--sessions", "52",
                         "--seed", "600", "--out", raw]) == 0
        assert cli_main(["extract", "--sessions", raw, "--out", segments]) == 0
        assert cli_main(["featurize", "--segments", segments,
                         "--out", feats]) == 0
        assert cli_main(["experiment", "multiclass", "--features", feats,
                         "--size", "complete", "--classifiers", "rf,dt",
                         "--reps", "2", "--seed", "601", "--workers", workers,
                         "--out", exp_mc]) == 0
        assert cli_main(["experiment", "binary", "--features", feats,
                         "--values", "1,2", "--classifiers", "rf",
                         "--reps", "2", "--seed", "602", "--workers", workers,
                         "--out", exp_bin]) == 0
        blob = {}
        for path in (raw, segments, feats,
                     os.path.join(exp_mc, "cells.csv"),
                     os.path.join(exp_mc, "summary.csv"),
                     os.path.join(exp_mc, "summary.md"),
                     os.path.join(exp_bin, "cells.csv"),
                     os.path.join(exp_bin, "summary.csv"),
                     os.path.join(exp_bin, "summary.md")):
            with open(path, "rb") as fh:
                blob[os.path.relpath(path, base)] = fh.read()
        digests.append(blob)
    # manifests are excluded: they carry wall-clock timings by contract
    assert digests[0] == digests[1]
    ok("criterion 9",
       f"{len(digests[0])} artifacts byte-identical across worker counts")


# ---------------------------------------------------------------------------
# criterion 10 (optional): operator-supplied ACN export

def test_criterion_10_acn_track():
    path = os.environ.get("EVPROFILER_ACN_EXPORT")
    if not path:
        pytest.skip("EVPROFILER_ACN_EXPORT not set; ACN track skipped")
    corpus = parse_sessions(path, "acn-json")
    filtered = apply_primary_filters(corpus, min_points=100, min_sessions=10)
    n_evs = len({s.ev_label for s in filtered if s.ev_label})
    n_sessions = len(filtered)
    assert abs(n_evs - 530) <= 0.05 * 530, f"{n_evs} EVs vs 530 +/- 5%"
    assert abs(n_sessions - 25032) <= 0.05 * 25032, \
        f"{n_sessions} sessions vs 25032 +/- 5%"
    ok("criterion 10", f"ACN export: {n_evs} EVs / {n_sessions} sessions")
