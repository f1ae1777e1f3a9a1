"""Experiment harness tests: balancing arithmetic, sub-sampling shapes,
aggregation math, leakage audit, and determinism across worker counts.

``reference_negatives`` is the round-robin loop that ``build_binary_dataset``
replaced with one ordering; both must draw the same negatives in the same
order."""

import statistics
from collections import Counter

import numpy as np
import pytest

from evprofiler.experiments import (BalanceError, CellJob, CellResult,
                                    DistributionError, ExperimentConfig,
                                    LeakageError, SIZE_PRESETS,
                                    SubsampleError, binary_jobs,
                                    build_binary_dataset, grid_rows,
                                    multiclass_jobs, run_cell, run_cells,
                                    subsample_distribution,
                                    subsample_multiclass, summarize_cells)
from evprofiler.features import FEATURE_NAMES, FeatureMatrix


def tiny_config(**overrides):
    defaults = dict(
        families=("random-forest",),
        grids={"random-forest": {"n_estimators": [10], "max_depth": [None]},
               "decision-tree": {"max_depth": [6]},
               "knn": {"n_neighbors": [3]}},
        nof=20, repetitions=2, master_seed=3,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def run_multiclass(config, features):
    return run_cells(config, features,
                     multiclass_jobs(config, features, "multiclass",
                                     range(features.n_rows)))


def reference_negatives(features, target_ev, needed, seed):
    """The negatives of ``build_binary_dataset`` as the old loop drew them:
    one row from the front of each pool in turn until ``needed``."""
    by_label = features.by_label()
    rng = np.random.default_rng(seed)
    others = sorted(ev for ev in by_label if ev != target_ev)
    pools = []
    for j in list(rng.permutation(len(others))):
        rows = np.array(by_label[others[j]])
        rng.shuffle(rows)
        pools.append(list(rows))
    negatives = []
    while len(negatives) < needed:
        for pool in pools:
            if pool and len(negatives) < needed:
                negatives.append(pool.pop(0))
    return negatives


class TestBuildBinaryDataset:
    def test_q_prime_three(self, feature_matrix_builder):
        features = feature_matrix_builder({"T": 50, "U": 80, "V": 80, "W": 80})
        labels = build_binary_dataset(
            features, "T", ExperimentConfig(), 3.0, seed=0,
            by_label=features.by_label()).labels
        assert labels.count("target") == 50
        assert labels.count("other") == 150

    def test_legacy_q_five(self, feature_matrix_builder):
        features = feature_matrix_builder({"T": 50, "U": 30, "V": 30})
        labels = build_binary_dataset(
            features, "T", ExperimentConfig(balance_mode="q"), 5.0, seed=0,
            by_label=features.by_label()).labels
        assert labels.count("other") == 10

    def test_boundary_q_one_equals_q_prime_one(self, feature_matrix_builder):
        features = feature_matrix_builder({"T": 50, "U": 40, "V": 40})
        for mode in ("q", "q-prime"):
            labels = build_binary_dataset(
                features, "T", ExperimentConfig(balance_mode=mode), 1.0,
                seed=1, by_label=features.by_label()).labels
            assert labels.count("target") == 50
            assert labels.count("other") == 50

    def test_positive_rows_are_exactly_target_rows(self, feature_matrix_builder):
        features = feature_matrix_builder({"T": 55, "U": 70, "V": 70})
        matrix = build_binary_dataset(
            features, "T", ExperimentConfig(), 2.0, seed=2,
            by_label=features.by_label())
        positives = {sid for sid, lab in zip(matrix.session_ids, matrix.labels)
                     if lab == "target"}
        assert positives == {sid for sid, ev in zip(features.session_ids,
                                                    features.labels)
                             if ev == "T"}

    def test_negatives_spread_across_evs(self, feature_matrix_builder):
        features = feature_matrix_builder({"T": 50, "U": 100, "V": 100, "W": 100})
        matrix = build_binary_dataset(
            features, "T", ExperimentConfig(), 1.0, seed=3,
            by_label=features.by_label())
        negative_evs = {sid.split("-")[0] for sid, lab
                        in zip(matrix.session_ids, matrix.labels) if lab == "other"}
        assert negative_evs == {"U", "V", "W"}

    def test_negatives_equal_the_round_robin_loop(self, feature_matrix_builder):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(pools=st.lists(st.integers(1, 12), min_size=1,
                                         max_size=8),
                          n_target=st.integers(1, 12),
                          value=st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0, 5.0]),
                          mode=st.sampled_from(["q", "q-prime"]),
                          seed=st.integers(0, 2**32 - 1))
        # needed == available: single-row pools, then uneven pools
        @hypothesis.example(pools=[1, 1, 1], n_target=3, value=1.0,
                            mode="q-prime", seed=0)
        @hypothesis.example(pools=[5, 1, 3], n_target=3, value=3.0,
                            mode="q-prime", seed=1)
        @hypothesis.example(pools=[1, 7], n_target=4, value=2.0,
                            mode="q-prime", seed=2)
        def check(pools, n_target, value, mode, seed):
            features = feature_matrix_builder(
                {"T": n_target, **{f"EV{i}": c for i, c in enumerate(pools)}})
            config = ExperimentConfig(balance_mode=mode, min_target_samples=1)
            needed = (int(value * n_target) if mode == "q-prime"
                      else int(n_target / value))
            hypothesis.assume(needed <= sum(pools))
            dataset = build_binary_dataset(features, "T", config, value, seed,
                                           features.by_label())
            rows = (features.by_label()["T"]
                    + reference_negatives(features, "T", needed, seed))
            assert dataset.session_ids == features.take(rows).session_ids

        check()

    def test_insufficient_pool_is_error(self, feature_matrix_builder):
        features = feature_matrix_builder({"T": 60, "U": 20})
        with pytest.raises(BalanceError, match="pool"):
            build_binary_dataset(features, "T", ExperimentConfig(), 5.0,
                                 seed=0, by_label=features.by_label())

    def test_small_target_is_error(self, feature_matrix_builder):
        features = feature_matrix_builder({"T": 10, "U": 100})
        with pytest.raises(BalanceError):
            build_binary_dataset(features, "T", ExperimentConfig(), 1.0,
                                 seed=0, by_label=features.by_label())

    def test_value_range_validated(self):
        with pytest.raises(ValueError, match=r"7.0 must be in \[1, 5\]"):
            ExperimentConfig(balance_values=(1.0, 7.0))
        with pytest.raises(ValueError, match="unknown balance mode"):
            ExperimentConfig(balance_mode="p")

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ExperimentConfig(workers=workers)

    @pytest.mark.parametrize("grid, message", [
        (None, "no hyper-parameter grid for 'knn'"),
        ({"n_neighbours": [3]},
         r"unknown hyperparameters for knn: \['n_neighbours'\]"),
        ({"n_neighbors": []}, "the knn grid has an empty value list"),
    ], ids=["missing-family", "misspelt-name", "empty-values"])
    def test_every_family_grid_is_checked(self, grid, message):
        # the random-forest grid alone is fine; knn's fails before any cell
        grids = {"random-forest": {"n_estimators": [10]}}
        if grid is not None:
            grids["knn"] = grid
        ExperimentConfig(families=("random-forest",), grids=grids)
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(families=("random-forest", "knn"), grids=grids)


class TestSubsampleMulticlass:
    def test_small_preset(self, feature_matrix_builder):
        features = feature_matrix_builder({f"EV{i:03d}": 10 + i % 7
                                           for i in range(60)})
        subset = features.take(subsample_multiclass(features, "small", seed=0))
        assert len(set(subset.labels)) == 25
        by = subset.by_label()
        full = features.by_label()
        for ev, rows in by.items():
            assert len(rows) == len(full[ev])

    def test_complete_is_identity(self, feature_matrix_builder):
        features = feature_matrix_builder({"A": 12, "B": 13})
        rows = subsample_multiclass(features, "complete", seed=0)
        assert features.take(rows).session_ids == features.session_ids

    def test_complete_is_every_row_in_order(self, feature_matrix_builder):
        features = feature_matrix_builder({"B": 3, "A": 12, "C": 1})
        rows = subsample_multiclass(features, "complete", seed=7)
        assert rows == list(range(features.n_rows))

    def test_fixed_grid_exact_counts(self, feature_matrix_builder):
        features = feature_matrix_builder({f"EV{i:03d}": 12 for i in range(60)})
        subset = features.take(grid_rows(features, 50, 10, seed=1))
        assert subset.n_rows == 500
        assert len(set(subset.labels)) == 50
        assert all(len(rows) == 10 for rows in subset.by_label().values())

    def test_deficit_is_error(self, feature_matrix_builder):
        counts = {f"EV{i:03d}": 80 for i in range(150)}
        counts.update({f"XV{i:03d}": 30 for i in range(20)})
        features = feature_matrix_builder(counts)
        with pytest.raises(SubsampleError, match="150"):
            grid_rows(features, 200, 75, seed=0)

    def test_sampling_without_replacement(self, feature_matrix_builder):
        features = feature_matrix_builder({f"EV{i}": 15 for i in range(10)})
        subset = features.take(grid_rows(features, 5, 8, seed=2))
        assert len(set(subset.session_ids)) == subset.n_rows

    def test_reproducible(self, feature_matrix_builder):
        features = feature_matrix_builder({f"EV{i}": 15 for i in range(10)})
        a = grid_rows(features, 5, 8, seed=9)
        b = grid_rows(features, 5, 8, seed=9)
        assert a == b


class TestSubsampleDistribution:
    def layout(self):
        # session counts cover 10..129 three times over, so every uniform
        # bin has eligible EVs at or above its midpoint
        return {f"EV{i:03d}": 10 + i % 120 for i in range(360)}

    def test_normal_exact_ev_count_and_unimodal(self, feature_matrix_builder):
        features = feature_matrix_builder(self.layout())
        subset = features.take(subsample_distribution(
            features, "normal", 0, n_evs=119, bins=20, per_bin=6))
        per_ev = sorted(len(r) for r in subset.by_label().values())
        assert len(per_ev) == 119
        hist, _ = np.histogram(per_ev, bins=8)
        peak = int(np.argmax(hist))
        assert 0 < peak < len(hist) - 1
        assert all(hist[i] <= hist[i + 1] for i in range(peak))
        assert all(hist[i] >= hist[i + 1] for i in range(peak, len(hist) - 1))

    def test_uniform_exact_bin_occupancy(self, feature_matrix_builder):
        features = feature_matrix_builder(self.layout())
        rows = subsample_distribution(features, "uniform", 1, n_evs=119,
                                      bins=20, per_bin=6)
        assert len(set(features.take(rows).labels)) == 120

    def test_unfillable_bin_reports_deficit(self, feature_matrix_builder):
        features = feature_matrix_builder({"A": 10, "B": 10, "C": 100})
        with pytest.raises(DistributionError, match="bin"):
            subsample_distribution(features, "uniform", 0, n_evs=119,
                                   bins=10, per_bin=2)

    def test_uniform_equal_counts_use_one_bin_per_ev(self, feature_matrix_builder):
        # every EV has the largest count, so each is eligible for the last
        # bin only and bin 0 cannot be filled
        features = feature_matrix_builder({f"EV{i}": 20 for i in range(6)})
        with pytest.raises(DistributionError, match="bin 0 .*0/1"):
            subsample_distribution(features, "uniform", 5, n_evs=119,
                                   bins=2, per_bin=1)
        subset = features.take(subsample_distribution(
            features, "uniform", 5, n_evs=119, bins=1, per_bin=2))
        assert len(subset.by_label()) == 2
        assert len(set(subset.session_ids)) == subset.n_rows == 40

    @pytest.mark.parametrize("seed", range(4))
    def test_uniform_draws_distinct_evs_and_sessions(self, feature_matrix_builder,
                                                     seed):
        rng = np.random.default_rng(seed)
        counts = {f"EV{i:02d}": int(c)
                  for i, c in enumerate(rng.integers(10, 40, 30))}
        features = feature_matrix_builder(counts)
        subset = features.take(subsample_distribution(
            features, "uniform", seed, n_evs=119, bins=2, per_bin=3))
        assert len(subset.by_label()) == 6
        assert len(set(subset.session_ids)) == subset.n_rows

    def test_normal_infeasible_target(self, feature_matrix_builder):
        # mean 5 and sigma 1.25 give targets 6, 5, 4: no EV has 6 rows
        features = feature_matrix_builder({"A": 5, "B": 5, "C": 5})
        with pytest.raises(DistributionError):
            subsample_distribution(features, "normal", 0, n_evs=3, bins=20,
                                   per_bin=6)


class TestSubsamplerProperties:
    """Over random sessions-per-EV layouts every sub-sampler returns distinct
    rows of the matrix and trims each EV to exactly its target, or raises
    only ``SubsampleError`` / ``DistributionError`` when it cannot fill the
    request."""

    @staticmethod
    def rows_per_ev(features, rows):
        assert len(set(rows)) == len(rows)
        assert all(0 <= i < features.n_rows for i in rows)
        return Counter(features.labels[i] for i in rows)

    @pytest.mark.parametrize("sample", [
        lambda f, seed: subsample_multiclass(f, "small", seed),
        lambda f, seed: subsample_multiclass(f, "complete", seed),
        lambda f, seed: grid_rows(f, 20, 12, seed),
        lambda f, seed: subsample_distribution(f, "normal", seed, n_evs=5,
                                               bins=20, per_bin=6),
        lambda f, seed: subsample_distribution(f, "uniform", seed, n_evs=119,
                                               bins=3, per_bin=2),
    ], ids=["small", "complete", "grid", "normal", "uniform"])
    def test_rows_are_distinct_in_range_ints(self, feature_matrix_builder,
                                             sample):
        features = feature_matrix_builder({f"EV{i:02d}": 10 + i % 9
                                           for i in range(40)})
        for seed in range(3):
            rows = sample(features, seed)
            assert rows and all(type(i) is int for i in rows)
            self.rows_per_ev(features, rows)

    def test_grid_rows(self, feature_matrix_builder):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(counts=st.lists(st.integers(1, 30), min_size=1,
                                          max_size=25),
                          n_evs=st.integers(1, 12), samples=st.integers(1, 30),
                          seed=st.integers(0, 2**32 - 1))
        def check(counts, n_evs, samples, seed):
            counts = {f"EV{i:03d}": c for i, c in enumerate(counts)}
            features = feature_matrix_builder(counts)
            eligible = sum(c >= samples for c in counts.values())
            try:
                rows = grid_rows(features, n_evs, samples, seed)
            except SubsampleError:
                assert eligible < n_evs
                return
            per_ev = self.rows_per_ev(features, rows)
            assert len(per_ev) == n_evs
            assert set(per_ev.values()) == {samples}

        check()

    def test_size_presets(self, feature_matrix_builder):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(data=st.data(), size=st.sampled_from(list(SIZE_PRESETS)),
                          seed=st.integers(0, 2**32 - 1))
        def check(data, size, seed):
            # EV counts around the preset's, so both outcomes occur
            preset = SIZE_PRESETS[size] or 1
            n = data.draw(st.integers(max(1, preset - 3), preset + 20))
            counts = data.draw(st.lists(st.integers(1, 8), min_size=n,
                                        max_size=n))
            counts = {f"EV{i:03d}": c for i, c in enumerate(counts)}
            features = feature_matrix_builder(counts)
            wanted = SIZE_PRESETS[size] or len(counts)
            try:
                rows = subsample_multiclass(features, size, seed)
            except SubsampleError:
                assert wanted > len(counts)
                return
            per_ev = self.rows_per_ev(features, rows)
            assert len(per_ev) == wanted
            assert all(per_ev[ev] == counts[ev] for ev in per_ev)

        check()

    def test_normal_shape(self, feature_matrix_builder):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(counts=st.lists(st.integers(1, 40), min_size=1,
                                          max_size=40),
                          n_evs=st.integers(1, 15),
                          seed=st.integers(0, 2**32 - 1))
        def check(counts, n_evs, seed):
            counts = {f"EV{i:03d}": c for i, c in enumerate(counts)}
            features = feature_matrix_builder(counts)
            try:
                rows = subsample_distribution(features, "normal", seed,
                                              n_evs=n_evs, bins=20, per_bin=6)
            except DistributionError:
                return
            # targets: the quantiles (i + 0.5) / n_evs of Normal(mean, sigma),
            # mean the mean count per EV and sigma max(mean / 4, 1)
            mean = statistics.mean(counts.values())
            dist = statistics.NormalDist(mean, max(mean / 4, 1))
            targets = [max(1, round(dist.inv_cdf((i + 0.5) / n_evs)))
                       for i in range(n_evs)]
            per_ev = self.rows_per_ev(features, rows)
            assert sorted(per_ev.values()) == sorted(targets)
            assert all(per_ev[ev] <= counts[ev] for ev in per_ev)

        check()

    def test_uniform_shape(self, feature_matrix_builder):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(counts=st.lists(st.integers(1, 40), min_size=1,
                                          max_size=40),
                          bins=st.integers(1, 4), per_bin=st.integers(1, 3),
                          seed=st.integers(0, 2**32 - 1))
        def check(counts, bins, per_bin, seed):
            counts = {f"EV{i:03d}": c for i, c in enumerate(counts)}
            features = feature_matrix_builder(counts)
            try:
                rows = subsample_distribution(features, "uniform", seed,
                                              n_evs=119, bins=bins,
                                              per_bin=per_bin)
            except DistributionError:
                return
            # the half-open bins [lo + b w, lo + (b + 1) w), the last one
            # also holding the largest count
            lo, hi = min(counts.values()), max(counts.values())
            width = max((hi - lo) / bins, 1e-9)
            edges = [(lo + b * width, lo + (b + 1) * width) for b in range(bins)]
            per_ev = self.rows_per_ev(features, rows)
            homes = {}
            for ev in per_ev:
                c = counts[ev]
                home = [b for b, (b_lo, b_hi) in enumerate(edges)
                        if (b == bins - 1 if c == hi else b_lo <= c < b_hi)]
                assert len(home) == 1
                homes[ev] = home[0]
                b_lo, b_hi = edges[home[0]]
                assert per_ev[ev] == max(1, int((b_lo + b_hi) / 2.0)) <= c
            assert Counter(homes.values()) == dict.fromkeys(range(bins), per_bin)

        check()


class TestSuites:
    def test_binary_suite_shape_and_ratios(self, feature_matrix_builder):
        features = feature_matrix_builder(
            {"T": 60, "U": 60, "V": 60, "W": 60}, seed=5)
        config = tiny_config(balance_values=(1.0, 2.0), repetitions=2,
                             min_target_samples=50)
        cells = run_cells(config, features, binary_jobs(config, features))
        # 4 EVs x 2 values x 2 reps x 1 family
        assert len(cells) == 16
        assert all(c.status == "ok" for c in cells)
        assert all(c.positive_f1 is not None for c in cells)
        values = {c.group["balance_value"] for c in cells}
        assert values == {1.0, 2.0}

    def test_binary_cells_share_one_label_index(self, feature_matrix_builder,
                                                monkeypatch):
        # built once for the job list and once per worker, never per cell
        features = feature_matrix_builder(
            {"T": 60, "U": 60, "V": 60, "W": 60}, seed=5)
        by_label, calls = FeatureMatrix.by_label, []
        monkeypatch.setattr(FeatureMatrix, "by_label",
                            lambda self: calls.append(self) or by_label(self))
        for reps in (1, 3):
            config = tiny_config(families=("knn",), balance_values=(1.0, 2.0),
                                 repetitions=reps, min_target_samples=50)
            calls.clear()
            cells = run_cells(config, features, binary_jobs(config, features))
            assert len(cells) == 8 * reps
            assert len(calls) == 2

    def test_binary_suite_needs_two_qualifying(self, feature_matrix_builder):
        features = feature_matrix_builder({"T": 60, "U": 10})
        with pytest.raises(BalanceError):
            binary_jobs(tiny_config(), features)

    def test_multiclass_suite_runs(self, feature_matrix_builder):
        features = feature_matrix_builder({f"EV{i}": 12 for i in range(5)},
                                          seed=6)
        cells = run_multiclass(tiny_config(), features)
        assert len(cells) == 2
        assert all(c.accuracy > 0.9 for c in cells)

    def test_failed_cells_are_visible_not_dropped(self, feature_matrix_builder):
        features = feature_matrix_builder({"T": 60, "U": 51, "V": 51}, seed=7)
        # Q'=5 needs 300 negatives; only 102 available -> every cell fails
        config = tiny_config(balance_values=(5.0,), repetitions=1)
        cells = run_cells(config, features, binary_jobs(config, features))
        assert len(cells) == 3
        assert all(c.status == "failed" for c in cells)
        assert all("pool" in c.error for c in cells)

    def test_failed_cv_fold_fails_the_cell(self):
        # T keeps one training row, so CV fold 0 trains on "other" alone
        rng = np.random.default_rng(0)
        labels = ("T",) * 2 + ("U",) * 12 + ("V",) * 12
        features = FeatureMatrix(tuple(f"s{i}" for i in range(26)), labels,
                                 rng.random((26, len(FEATURE_NAMES))))
        config = ExperimentConfig(families=("knn",), min_target_samples=2,
                                  balance_values=(5.0,), repetitions=1)
        cells = run_cells(config, features, binary_jobs(config, features))
        cell, = [c for c in cells if c.target_ev == "T"]
        assert cell.status == "failed"
        assert cell.error.startswith("CV fold 0: need at least two classes")
        assert cell.best_params == {}

    def test_worker_counts_do_not_change_results(self, feature_matrix_builder):
        features = feature_matrix_builder({f"EV{i}": 12 for i in range(4)},
                                          seed=8)
        r1 = run_multiclass(tiny_config(workers=1), features)
        r2 = run_multiclass(tiny_config(workers=3), features)
        assert r1 == r2


class TestNoLeakageAudit:
    """``cell_recorder`` (conftest.py) reads the real arguments of the
    stages ``run_cell`` fits."""

    def test_fit_stages_only_see_training_rows(self, feature_matrix_builder,
                                               cell_recorder):
        features = feature_matrix_builder({f"EV{i}": 14 for i in range(4)},
                                          seed=9)
        config = tiny_config(repetitions=2)
        assert run_multiclass(config, features)
        cells = cell_recorder.cells
        assert len(cells) == config.repetitions
        stages = {s for cell in cells for s, _ in cell["fits"]}
        assert {"selection", "grid-search:random-forest"} <= stages
        assert cell_recorder.violations() == 0
        # every fitted stage saw a strict subset of rows; whatever it saw
        # must never overlap the held-out 20%
        all_ids = set(features.session_ids)
        for cell in cells:
            held_out = cell["held-out"]
            assert len(held_out) >= len(all_ids) // 10
            for stage, ids in cell["fits"]:
                assert ids < all_ids
                assert ids == all_ids - held_out

    def test_binary_audit(self, feature_matrix_builder, cell_recorder):
        features = feature_matrix_builder({"T": 55, "U": 55, "V": 55}, seed=10)
        config = tiny_config(balance_values=(1.0,), repetitions=1)
        run_cells(config, features, binary_jobs(config, features))
        assert cell_recorder.cells
        assert cell_recorder.violations() == 0
        for cell in cell_recorder.cells:
            assert len(cell["dataset"]) == len(set(cell["dataset"]))
            assert len(cell["fits"]) == 2

    def test_repeated_session_fails_the_cell(self, feature_matrix_builder):
        features = feature_matrix_builder({f"EV{i}": 12 for i in range(4)},
                                          seed=11)
        config = tiny_config(repetitions=1)
        rows = list(range(features.n_rows)) + [5]
        cells = run_cells(config, features,
                          multiclass_jobs(config, features, "multiclass", rows))
        assert [c.status for c in cells] == ["failed"]
        assert cells[0].error == (
            "1 session id(s) repeat in one cell, first 'EV0-0005'")
        dataset = features.take(rows)
        with pytest.raises(LeakageError):
            run_cell(CellJob({}, "", 0), dataset, config,
                     np.random.SeedSequence(0))


class TestAggregation:
    def cell(self, value, rep=0, classifier="rf", group=None, status="ok"):
        return CellResult(group or {"suite": "x"}, "", rep, classifier, {},
                          value, value, None, 10, 3, status=status)

    def test_mean_and_population_std(self):
        cells = [self.cell(0.8, rep=0), self.cell(0.9, rep=1)]
        rows = summarize_cells(cells)
        acc = next(r for r in rows if r.metric == "accuracy")
        assert acc.mean == pytest.approx(0.85)
        assert acc.std == pytest.approx(0.05)

    def test_single_run(self):
        rows = summarize_cells([self.cell(0.7)])
        acc = next(r for r in rows if r.metric == "accuracy")
        assert acc.mean == pytest.approx(0.7) and acc.std == 0.0

    def test_mean_over_evs_then_reps(self):
        # rep 0 has two EV cells (0.2, 0.4 -> 0.3), rep 1 has one (0.9)
        cells = [
            CellResult({"suite": "b"}, "E1", 0, "rf", {}, 0.2, 0.2, 0.2, 1, 1),
            CellResult({"suite": "b"}, "E2", 0, "rf", {}, 0.4, 0.4, 0.4, 1, 1),
            CellResult({"suite": "b"}, "E1", 1, "rf", {}, 0.9, 0.9, 0.9, 1, 1),
        ]
        acc = next(r for r in summarize_cells(cells) if r.metric == "accuracy")
        assert acc.mean == pytest.approx((0.3 + 0.9) / 2)

    def test_failed_cells_excluded_from_mean_but_counted(self):
        cells = [self.cell(0.8), self.cell(0.0, rep=1, status="failed")]
        acc = next(r for r in summarize_cells(cells) if r.metric == "accuracy")
        assert acc.mean == pytest.approx(0.8)
        assert acc.n_failed == 1
