"""Experiment harness tests: balancing arithmetic, sub-sampling shapes,
aggregation math, leakage audit, and determinism across worker counts."""

import numpy as np
import pytest

from evprofiler.experiments import (BalanceConfig, BalanceError, CellResult,
                                    DistributionError, DistributionParams,
                                    ExperimentConfig, SubsampleError,
                                    build_binary_dataset, run_binary_suite,
                                    run_multiclass_suite,
                                    subsample_distribution,
                                    subsample_multiclass, summarize_cells)


def tiny_config(**overrides):
    defaults = dict(
        suite="multiclass",
        families=("random-forest",),
        grids={"random-forest": {"n_estimators": [10], "max_depth": [None]},
               "decision-tree": {"max_depth": [6]},
               "knn": {"n_neighbors": [3]}},
        nof=20, repetitions=2, master_seed=3, cv_folds=2,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestBuildBinaryDataset:
    def test_q_prime_three(self, feature_matrix_builder):
        features = feature_matrix_builder({"T": 50, "U": 80, "V": 80, "W": 80})
        matrix, labels = build_binary_dataset(
            features, "T", BalanceConfig("q-prime", 3.0), seed=0)
        assert labels.count("target") == 50
        assert labels.count("other") == 150

    def test_legacy_q_five(self, feature_matrix_builder):
        features = feature_matrix_builder({"T": 50, "U": 30, "V": 30})
        matrix, labels = build_binary_dataset(
            features, "T", BalanceConfig("q", 5.0), seed=0)
        assert labels.count("other") == 10

    def test_boundary_q_one_equals_q_prime_one(self, feature_matrix_builder):
        features = feature_matrix_builder({"T": 50, "U": 40, "V": 40})
        for mode in ("q", "q-prime"):
            _, labels = build_binary_dataset(
                features, "T", BalanceConfig(mode, 1.0), seed=1)
            assert labels.count("target") == 50
            assert labels.count("other") == 50

    def test_positive_rows_are_exactly_target_rows(self, feature_matrix_builder):
        features = feature_matrix_builder({"T": 55, "U": 70, "V": 70})
        matrix, labels = build_binary_dataset(
            features, "T", BalanceConfig("q-prime", 2.0), seed=2)
        positives = {sid for sid, lab in zip(matrix.session_ids, labels)
                     if lab == "target"}
        assert positives == {sid for sid, ev in zip(features.session_ids,
                                                    features.labels)
                             if ev == "T"}

    def test_negatives_spread_across_evs(self, feature_matrix_builder):
        features = feature_matrix_builder({"T": 50, "U": 100, "V": 100, "W": 100})
        matrix, labels = build_binary_dataset(
            features, "T", BalanceConfig("q-prime", 1.0), seed=3)
        negative_evs = {sid.split("-")[0] for sid, lab
                        in zip(matrix.session_ids, labels) if lab == "other"}
        assert negative_evs == {"U", "V", "W"}

    def test_insufficient_pool_is_error(self, feature_matrix_builder):
        features = feature_matrix_builder({"T": 60, "U": 20})
        with pytest.raises(BalanceError, match="pool"):
            build_binary_dataset(features, "T",
                                 BalanceConfig("q-prime", 5.0), seed=0)

    def test_small_target_is_error(self, feature_matrix_builder):
        features = feature_matrix_builder({"T": 10, "U": 100})
        with pytest.raises(BalanceError):
            build_binary_dataset(features, "T", BalanceConfig(), seed=0)

    def test_value_range_validated(self):
        with pytest.raises(ValueError):
            BalanceConfig("q-prime", 7.0)


class TestSubsampleMulticlass:
    def test_small_preset(self, feature_matrix_builder):
        features = feature_matrix_builder({f"EV{i:03d}": 10 + i % 7
                                           for i in range(60)})
        subset = subsample_multiclass(features, "small", seed=0)
        assert len(set(subset.labels)) == 25
        by = subset.by_label()
        full = features.by_label()
        for ev, rows in by.items():
            assert len(rows) == len(full[ev])

    def test_complete_is_identity(self, feature_matrix_builder):
        features = feature_matrix_builder({"A": 12, "B": 13})
        subset = subsample_multiclass(features, "complete", seed=0)
        assert subset.session_ids == features.session_ids

    def test_fixed_grid_exact_counts(self, feature_matrix_builder):
        features = feature_matrix_builder({f"EV{i:03d}": 12 for i in range(60)})
        subset = subsample_multiclass(features, (50, 10), seed=1)
        assert subset.n_rows == 500
        assert len(set(subset.labels)) == 50
        assert all(len(rows) == 10 for rows in subset.by_label().values())

    def test_deficit_is_error(self, feature_matrix_builder):
        counts = {f"EV{i:03d}": 80 for i in range(150)}
        counts.update({f"XV{i:03d}": 30 for i in range(20)})
        features = feature_matrix_builder(counts)
        with pytest.raises(SubsampleError, match="150"):
            subsample_multiclass(features, (200, 75), seed=0)

    def test_sampling_without_replacement(self, feature_matrix_builder):
        features = feature_matrix_builder({f"EV{i}": 15 for i in range(10)})
        subset = subsample_multiclass(features, (5, 8), seed=2)
        assert len(set(subset.session_ids)) == subset.n_rows

    def test_reproducible(self, feature_matrix_builder):
        features = feature_matrix_builder({f"EV{i}": 15 for i in range(10)})
        a = subsample_multiclass(features, (5, 8), seed=9)
        b = subsample_multiclass(features, (5, 8), seed=9)
        assert a.session_ids == b.session_ids


class TestSubsampleDistribution:
    def layout(self):
        # session counts cover 10..129 three times over, so every uniform
        # bin has eligible EVs at or above its midpoint
        return {f"EV{i:03d}": 10 + i % 120 for i in range(360)}

    def test_normal_exact_ev_count_and_unimodal(self, feature_matrix_builder):
        features = feature_matrix_builder(self.layout())
        params = DistributionParams(n_evs=119, mean=50, sigma=12)
        subset = subsample_distribution(features, "normal", params, seed=0)
        per_ev = sorted(len(r) for r in subset.by_label().values())
        assert len(per_ev) == 119
        hist, _ = np.histogram(per_ev, bins=8)
        peak = int(np.argmax(hist))
        assert 0 < peak < len(hist) - 1
        assert all(hist[i] <= hist[i + 1] for i in range(peak))
        assert all(hist[i] >= hist[i + 1] for i in range(peak, len(hist) - 1))

    def test_sigma_zero_degenerates_to_fixed(self, feature_matrix_builder):
        features = feature_matrix_builder(self.layout())
        params = DistributionParams(n_evs=20, mean=40, sigma=0)
        subset = subsample_distribution(features, "normal", params, seed=0)
        assert all(len(r) == 40 for r in subset.by_label().values())

    def test_uniform_exact_bin_occupancy(self, feature_matrix_builder):
        features = feature_matrix_builder(self.layout())
        params = DistributionParams(bins=20, per_bin=6)
        subset = subsample_distribution(features, "uniform", params, seed=1)
        assert len(subset.by_label()) == 120

    def test_unfillable_bin_reports_deficit(self, feature_matrix_builder):
        features = feature_matrix_builder({"A": 10, "B": 10, "C": 100})
        params = DistributionParams(bins=10, per_bin=2)
        with pytest.raises(DistributionError, match="bin"):
            subsample_distribution(features, "uniform", params, seed=0)

    def test_normal_infeasible_target(self, feature_matrix_builder):
        features = feature_matrix_builder({"A": 5, "B": 5, "C": 5})
        params = DistributionParams(n_evs=3, mean=50, sigma=1)
        with pytest.raises(DistributionError):
            subsample_distribution(features, "normal", params, seed=0)


class TestSuites:
    def test_binary_suite_shape_and_ratios(self, feature_matrix_builder):
        features = feature_matrix_builder(
            {"T": 60, "U": 60, "V": 60, "W": 60}, seed=5)
        config = tiny_config(suite="binary", balance_values=(1.0, 2.0),
                             repetitions=2, min_target_samples=50)
        report = run_binary_suite(config, features)
        # 4 EVs x 2 values x 2 reps x 1 family
        assert len(report.cells) == 16
        assert all(c.status == "ok" for c in report.cells)
        assert all(c.positive_f1 is not None for c in report.cells)
        values = {c.group["balance_value"] for c in report.cells}
        assert values == {1.0, 2.0}

    def test_binary_suite_needs_two_qualifying(self, feature_matrix_builder):
        features = feature_matrix_builder({"T": 60, "U": 10})
        with pytest.raises(BalanceError):
            run_binary_suite(tiny_config(suite="binary"), features)

    def test_multiclass_suite_runs(self, feature_matrix_builder):
        features = feature_matrix_builder({f"EV{i}": 12 for i in range(5)},
                                          seed=6)
        report = run_multiclass_suite(tiny_config(), features)
        assert len(report.cells) == 2
        assert all(c.accuracy > 0.9 for c in report.cells)

    def test_failed_cells_are_visible_not_dropped(self, feature_matrix_builder):
        features = feature_matrix_builder({"T": 60, "U": 51, "V": 51}, seed=7)
        # Q'=5 needs 300 negatives; only 102 available -> every cell fails
        config = tiny_config(suite="binary", balance_values=(5.0,),
                             repetitions=1)
        report = run_binary_suite(config, features)
        assert len(report.cells) == 3
        assert all(c.status == "failed" for c in report.cells)
        assert all("pool" in c.error for c in report.cells)

    def test_worker_counts_do_not_change_results(self, feature_matrix_builder):
        features = feature_matrix_builder({f"EV{i}": 12 for i in range(4)},
                                          seed=8)
        r1 = run_multiclass_suite(tiny_config(workers=1), features)
        r2 = run_multiclass_suite(tiny_config(workers=3), features)
        assert r1 == r2


class TestNoLeakageAudit:
    def test_fit_stages_only_see_training_rows(self, feature_matrix_builder):
        features = feature_matrix_builder({f"EV{i}": 14 for i in range(4)},
                                          seed=9)
        seen: list[tuple[str, tuple[str, ...]]] = []
        config = tiny_config(repetitions=2)
        report = run_multiclass_suite(config, features,
                                      audit=lambda stage, ids: seen.append((stage, ids)))
        assert report.cells
        assert seen
        stages = {s for s, _ in seen}
        assert {"scaler", "selection"} <= stages
        # every audited stage saw a strict subset of rows; whatever it saw
        # must never overlap the held-out 20%
        all_ids = set(features.session_ids)
        for stage, ids in seen:
            train_ids = set(ids)
            assert train_ids < all_ids
            held_out = all_ids - train_ids
            assert len(held_out) >= len(all_ids) // 10
            assert not train_ids & held_out

    def test_binary_audit(self, feature_matrix_builder):
        features = feature_matrix_builder({"T": 55, "U": 55, "V": 55}, seed=10)
        seen = []
        config = tiny_config(suite="binary", balance_values=(1.0,),
                             repetitions=1)
        run_binary_suite(config, features,
                         audit=lambda stage, ids: seen.append((stage, ids)))
        assert seen
        for stage, ids in seen:
            assert len(ids) == len(set(ids))


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
