"""Classifier, split, grid-search, and metrics tests."""


import numpy as np
import pytest

from evprofiler.learn import (_DEFAULTS, DEFAULT_GRIDS, ClassifierSpec,
                              SplitError, TrainingError, _class_codes,
                              expand_grid, grid_search, predict,
                              score_predictions, stratified_kfold,
                              stratified_split, train)

from test_grid_sharing import model_document


def column(values):
    return np.array(values, dtype=np.float64).reshape(-1, 1)


class TestClassifierSpec:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            ClassifierSpec("svm")

    def test_unknown_hyperparameter(self):
        with pytest.raises(ValueError):
            ClassifierSpec("knn", {"kernel": "rbf"})

    def test_bad_values(self):
        with pytest.raises(ValueError):
            ClassifierSpec("knn", {"metric": "chebyshev"})
        with pytest.raises(ValueError):
            ClassifierSpec("random-forest", {"n_estimators": 0})

    def test_default_grids_name_exactly_the_legal_parameters(self):
        assert ({family: set(grid) for family, grid in DEFAULT_GRIDS.items()}
                == {family: set(params) for family, params in _DEFAULTS.items()})


class TestClassCodes:
    def test_codes_round_trip_any_text(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        # st.text() draws NUL, empty and astral-plane labels
        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.example(labels=["a\x00", "b", "a"])
        @hypothesis.given(labels=st.lists(st.text()))
        def check(labels):
            classes, y = _class_codes(labels)
            assert classes == sorted(set(labels))
            assert y.dtype == np.int64 and y.size == len(labels)
            assert all(classes[c] == label for c, label in zip(y.tolist(), labels))

        check()

    def test_nul_terminated_labels_survive_predict(self):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(0.0, 0.1, (10, 3)),
                       rng.normal(10.0, 0.1, (10, 3))])
        labels = ["EV1\x00"] * 10 + ["EV2"] * 10
        model = train(ClassifierSpec("knn", {"n_neighbors": 1}), x, labels)
        predicted = predict(model, x)
        assert list(predicted) == labels
        assert score_predictions(labels, predicted).accuracy == 1.0


class TestKnn:
    def test_nearest_neighbor(self):
        model = train(ClassifierSpec("knn", {"n_neighbors": 1}),
                      column([0.0, 10.0]), ["A", "B"])
        assert predict(model, column([1.0]))[0] == "A"

    def test_majority_vote(self):
        model = train(ClassifierSpec("knn", {"n_neighbors": 3}),
                      column([0.0, 1.0, 10.0]), ["A", "A", "B"])
        assert predict(model, column([2.0]))[0] == "A"

    def test_exact_match_dominates_distance_weights(self):
        x = column([0.0, 0.1, 0.2, 5.0])
        y = ["B", "B", "B", "A"]
        model = train(ClassifierSpec(
            "knn", {"n_neighbors": 4, "weights": "distance"}), x, y)
        assert predict(model, column([5.0]))[0] == "A"

    def test_vote_tie_takes_lexicographically_smallest(self):
        model = train(ClassifierSpec("knn", {"n_neighbors": 2}),
                      column([0.0, 2.0]), ["B", "A"])
        assert predict(model, column([1.0]))[0] == "A"

    def test_k_equals_n_uniform_predicts_majority(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (9, 3))
        y = ["A"] * 5 + ["B"] * 4
        model = train(ClassifierSpec("knn", {"n_neighbors": 9}), x, y)
        queries = rng.normal(0, 5, (20, 3))
        assert all(p == "A" for p in predict(model, queries))

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "cosine"])
    def test_metrics_run_and_are_deterministic(self, metric):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (30, 4))
        y = ["A" if v[0] > 0 else "B" for v in x]
        model = train(ClassifierSpec("knn", {"metric": metric}), x, y)
        q = rng.normal(0, 1, (10, 4))
        np.testing.assert_array_equal(predict(model, q), predict(model, q))

    def test_cosine_zero_vector_is_distance_one(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        model = train(ClassifierSpec(
            "knn", {"n_neighbors": 1, "metric": "cosine"}), x, ["Z", "P"])
        # query parallel to the nonzero row: distance 0 to P, 1 to Z
        assert predict(model, np.array([[2.0, 2.0]]))[0] == "P"


class TestDecisionTree:
    def test_depth_one_separates_two_blobs(self):
        x = column([0.0, 1.0, 10.0, 11.0])
        y = ["A", "A", "B", "B"]
        model = train(ClassifierSpec("decision-tree", {"max_depth": 1}), x, y)
        assert model.tree.feature == 0
        assert 1.0 < model.tree.threshold < 10.0
        assert list(predict(model, x)) == y

    def test_unlimited_depth_fits_distinct_rows_perfectly(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (40, 5))
        y = [f"C{rng.integers(4)}" for _ in range(40)]
        if len(set(y)) < 2:
            y[0] = "C9"
        model = train(ClassifierSpec("decision-tree"), x, y)
        assert list(predict(model, x)) == y

    def test_entropy_criterion(self):
        x = column([0.0, 1.0, 10.0, 11.0])
        y = ["A", "A", "B", "B"]
        model = train(ClassifierSpec("decision-tree",
                                     {"criterion": "entropy"}), x, y)
        assert list(predict(model, x)) == y

    def test_single_class_is_training_error(self):
        with pytest.raises(TrainingError):
            train(ClassifierSpec("decision-tree"), column([1.0, 2.0]), ["A", "A"])


class TestRandomForest:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, (60, 8))
        y = ["A" if v[0] + v[1] > 0 else "B" for v in x]
        spec = ClassifierSpec("random-forest", {"n_estimators": 10})
        probe = rng.normal(0, 1, (30, 8))
        a = predict(train(spec, x, y, seed=42), probe)
        b = predict(train(spec, x, y, seed=42), probe)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_forest(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, (60, 8))
        y = ["A" if v[0] > 0 else "B" for v in x]
        spec = ClassifierSpec("random-forest", {"n_estimators": 5})
        m1 = train(spec, x, y, seed=1)
        m2 = train(spec, x, y, seed=2)
        assert model_document(m1)["forest"] != model_document(m2)["forest"]

    def test_single_tree_full_features_equals_tree_on_bootstrap(self):
        # with 2 columns, ceil(sqrt(2)) = 2 candidates already cover every
        # feature, so the forest draws nothing from its RNG after the rows
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, (50, 2))
        y = ["A" if v[0] + 0.5 * v[1] > 0 else "B" for v in x]
        seed = 7
        forest = train(ClassifierSpec("random-forest", {"n_estimators": 1}),
                       x, y, seed=seed)
        tree_seed = np.random.SeedSequence(seed).spawn(1)[0]
        rows = np.random.default_rng(tree_seed).integers(0, 50, size=50)
        tree = train(ClassifierSpec("decision-tree"),
                     x[rows], [y[i] for i in rows], seed=seed)
        assert model_document(forest)["forest"][0] == model_document(tree)["tree"]
        probe = rng.normal(0, 1, (40, 2))
        np.testing.assert_array_equal(predict(forest, probe),
                                      predict(tree, probe))

    def test_tie_between_trees_is_lexicographic(self):
        # two stumps voting A and B must resolve to A
        from evprofiler.learn import TrainedModel, _TreeNode
        model = TrainedModel(ClassifierSpec("random-forest"), ("A", "B"), 0)
        model.forest = [_TreeNode(label=0), _TreeNode(label=1)]
        assert predict(model, np.zeros((1, 2)))[0] == "A"


class TestStratifiedSplit:
    def test_exact_proportions(self):
        labels = ["A"] * 10 + ["B"] * 10
        train_idx, test_idx = stratified_split(labels, seed=0)
        test_labels = [labels[i] for i in test_idx]
        assert len(test_idx) == 4
        assert test_labels.count("A") == 2 and test_labels.count("B") == 2
        assert len(np.intersect1d(train_idx, test_idx)) == 0
        assert len(train_idx) + len(test_idx) == 20

    def test_rounding_rule(self):
        labels = ["A"] * 7 + ["B"] * 13
        _, test_idx = stratified_split(labels, seed=1)
        test_labels = [labels[i] for i in test_idx]
        assert test_labels.count("A") == 1   # round(1.4) = 1
        assert test_labels.count("B") == 3   # round(2.6) = 3

    def test_seeds_give_different_partitions_of_same_size(self):
        labels = ["A"] * 20 + ["B"] * 20
        a = stratified_split(labels, seed=1)
        b = stratified_split(labels, seed=2)
        assert len(a[1]) == len(b[1])
        assert list(a[1]) != list(b[1])

    def test_singleton_class_is_error(self):
        with pytest.raises(SplitError):
            stratified_split(["A", "B", "B"], seed=0)


class TestStratifiedKfold:
    def test_even_division(self):
        labels = ["A"] * 10 + ["B"] * 10
        folds = stratified_kfold(labels, seed=0)
        for fold in folds:
            fold_labels = [labels[i] for i in fold]
            assert fold_labels.count("A") == 2 and fold_labels.count("B") == 2

    def test_remainder_spreading(self):
        labels = ["A"] * 11
        folds = stratified_kfold(labels, seed=0)
        sizes = sorted(len(f) for f in folds)
        assert sizes == [2, 2, 2, 2, 3]

    def test_folds_partition_rows(self):
        labels = [f"C{i % 3}" for i in range(17)]
        folds = stratified_kfold(labels, seed=3)
        joined = np.concatenate(folds)
        assert sorted(joined) == list(range(17))


class TestMetrics:
    def test_hand_confusion(self):
        # TP=2, FP=1, FN=1 for the positive class; N has TP=1, FP=1, FN=1
        scores = score_predictions(["P", "P", "P", "N", "N"],
                                   ["P", "P", "N", "P", "N"], positive_label="P")
        assert scores.accuracy == pytest.approx(3 / 5)
        assert scores.positive_f1 == pytest.approx(2 / 3)
        assert scores.macro_f1 == pytest.approx((2 / 3 + 1 / 2) / 2)

    def test_perfect_predictions(self):
        scores = score_predictions(["A", "B"], ["A", "B"])
        assert scores.accuracy == 1.0 and scores.macro_f1 == 1.0
        assert scores.positive_f1 is None

    def test_degenerate_single_prediction_class(self):
        y, p = ["A", "A", "B", "B"], ["A"] * 4
        assert score_predictions(y, p).accuracy == 0.5
        assert score_predictions(y, p, "A").positive_f1 == pytest.approx(2 / 3)
        assert score_predictions(y, p, "B").positive_f1 == 0.0
        assert score_predictions(y, p).macro_f1 == pytest.approx(1 / 3)

    def test_accuracy_equals_trace_over_total(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            y = [f"C{rng.integers(3)}" for _ in range(n)]
            p = [f"C{rng.integers(4)}" for _ in range(n)]
            scores = score_predictions(y, p)
            assert scores.accuracy == pytest.approx(
                sum(a == b for a, b in zip(y, p)) / n)

    def test_unseen_test_label_gets_confusion_row(self):
        # X is never predicted: its F1 of 0 still counts in the macro mean
        scores = score_predictions(["A", "B", "X"], ["A", "B", "A"])
        assert scores.accuracy == pytest.approx(2 / 3)
        assert scores.macro_f1 == pytest.approx((2 / 3 + 1 + 0) / 3)


class TestGridSearch:
    def _blobs(self, n=40, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 0.3, (n, 3))
        y = []
        for i in range(n):
            if i % 2:
                x[i, 0] += 5.0
                y.append("B")
            else:
                y.append("A")
        return x, y

    def test_single_combination_wins(self):
        x, y = self._blobs()
        result = grid_search("decision-tree", {"max_depth": [6]}, x, y)
        assert result.best_spec.hyperparameters == {"max_depth": 6}

    def test_perfect_combination_beats_degenerate(self):
        x, y = self._blobs()
        grid = {"n_neighbors": [1, 39]}
        result = grid_search("knn", grid, x, y, seed=1)
        assert result.best_spec.hyperparameters["n_neighbors"] == 1
        means = [np.mean(row) for row in result.scores]
        assert means[0] > means[1]

    def test_full_knn_grid_has_42_combinations(self):
        specs = expand_grid("knn", DEFAULT_GRIDS["knn"])
        assert len(specs) == 42
        assert len({repr(s) for s in specs}) == 42

    def test_best_spec_always_inside_grid(self):
        x, y = self._blobs(seed=2)
        grid = {"criterion": ["gini", "entropy"], "max_depth": [None, 6]}
        result = grid_search("decision-tree", grid, x, y, seed=2)
        assert result.best_spec in expand_grid("decision-tree", grid)

    def test_empty_grid_is_error(self):
        with pytest.raises(ValueError):
            grid_search("knn", {}, *self._blobs())


class TestCvTable:
    def test_table_shape(self):
        rng = np.random.default_rng(12)
        x = rng.normal(0, 1, (30, 3))
        x[:15, 0] += 1.5  # overlapping classes, so scores vary
        y = ["A"] * 15 + ["B"] * 15
        depths = (1, None)
        result = grid_search("decision-tree", {"max_depth": list(depths)}, x, y)
        assert result.scores.shape == (2, 5)  # 2 combos x 5 folds
        # row i, column j: combination i trained without fold j, scored on it
        rows = np.arange(len(y))
        for j, fold in enumerate(stratified_kfold(y, 0)):
            train_rows = np.setdiff1d(rows, fold)
            for i, depth in enumerate(depths):
                model = train(ClassifierSpec("decision-tree", {"max_depth": depth}),
                              x[train_rows], [y[r] for r in train_rows])
                predicted = predict(model, x[fold])
                want = score_predictions([y[r] for r in fold], predicted).accuracy
                assert result.scores[i, j] == want
        # the order is visible: rows differ, and so do some folds
        assert not np.array_equal(result.scores[0], result.scores[1])
        assert len({tuple(col) for col in result.scores.T}) > 1
