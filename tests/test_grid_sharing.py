"""The shared-fit grid search is pinned to the per-combination loop it
replaced.

``oracle_grid_search`` fits every grid combination on every fold on its own
and predicts with the per-row kNN vote and the tree-by-tree forest vote. The
shared search must give the same CV table, the same chosen spec and the
same refitted model, compared through ``model_document``.
"""

import json
import warnings

import numpy as np
import pytest

import evprofiler.learn as learn
from evprofiler.learn import (DEFAULT_GRIDS, ClassifierSpec, CvCell,
                              GridSearchResult, TrainingError, expand_grid,
                              grid_search, predict, score_predictions,
                              stratified_kfold, train)


# ---------------------------------------------------------------------------
# structural model document

def _node_document(node):
    if node.feature == learn._LEAF:
        return {"label": node.label}
    return {"feature": node.feature, "threshold": node.threshold,
            "left": _node_document(node.left), "right": _node_document(node.right)}


def model_document(model):
    """JSON-ready dump of everything a trained model holds; models with
    equal documents predict alike on every input."""
    doc = {"family": model.spec.family,
           "hyperparameters": model.spec.hyperparameters,
           "classes": list(model.classes), "seed": model.seed}
    if model.knn_x is not None:
        doc["neighbors"] = {"x": model.knn_x.tolist(), "y": model.knn_y.tolist()}
    if model.tree is not None:
        doc["tree"] = _node_document(model.tree)
    if model.forest is not None:
        doc["forest"] = [_node_document(t) for t in model.forest]
    return doc


# ---------------------------------------------------------------------------
# the per-combination oracle

def oracle_predict(model, x):
    x = np.asarray(x, dtype=np.float64)
    n_classes = len(model.classes)
    if model.spec.family == "knn":
        if x.shape[1] != model.knn_x.shape[1]:
            raise ValueError("query columns do not match the training matrix")
        hp = model.spec.hyperparameters
        k = min(hp.get("n_neighbors", 5), model.knn_x.shape[0])
        dist = learn._distances(hp.get("metric", "euclidean"), x, model.knn_x)
        nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
        codes = np.empty(x.shape[0], dtype=np.int64)
        weighted = hp.get("weights", "uniform") == "distance"
        for i in range(x.shape[0]):
            nd = dist[i, nearest[i]]
            ny = model.knn_y[nearest[i]]
            if weighted:
                exact = nd == 0.0
                if exact.any():
                    votes = np.bincount(ny[exact], minlength=n_classes).astype(float)
                else:
                    votes = np.bincount(ny, weights=1.0 / nd, minlength=n_classes)
            else:
                votes = np.bincount(ny, minlength=n_classes).astype(float)
            codes[i] = int(np.argmax(votes))
    elif model.spec.family == "decision-tree":
        codes = learn._tree_predict(model.tree, x)
    else:
        votes = np.zeros((x.shape[0], n_classes), dtype=np.int64)
        for tree in model.forest:
            votes[np.arange(x.shape[0]), learn._tree_predict(tree, x)] += 1
        codes = np.argmax(votes, axis=1)
    return np.array([model.classes[c] for c in codes])


def oracle_grid_search(family, grid, x, labels, k=5, scoring="accuracy",
                       seed=0, positive_label=None):
    specs = expand_grid(family, grid)
    x = np.asarray(x, dtype=np.float64)
    labels = list(labels)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        folds = stratified_kfold(labels, k, seed)
    all_rows = np.arange(len(labels))
    mode = "binary" if scoring == "f1-positive" else "multiclass"
    table = []
    best_spec, best_mean = None, -np.inf
    for spec in specs:
        scores = []
        failed = False
        for fold_id, fold in enumerate(folds):
            if fold.size == 0:
                continue
            train_rows = np.setdiff1d(all_rows, fold)
            try:
                model = learn.train(spec, x[train_rows],
                                    [labels[i] for i in train_rows], seed)
            except TrainingError as exc:
                table.append(CvCell(spec, fold_id, -np.inf, str(exc)))
                failed = True
                break
            predicted = oracle_predict(model, x[fold])
            report = score_predictions([labels[i] for i in fold],
                                       list(predicted), mode, positive_label)
            score = (report.positive_f1 if scoring == "f1-positive"
                     else report.accuracy)
            table.append(CvCell(spec, fold_id, score))
            scores.append(score)
        mean = -np.inf if failed or not scores else float(np.mean(scores))
        if mean > best_mean:
            best_mean, best_spec = mean, spec
    if best_spec is None or not np.isfinite(best_mean):
        best_spec = specs[0]
    model = learn.train(best_spec, x, labels, seed)
    return GridSearchResult(best_spec, model, best_mean, tuple(table))


# ---------------------------------------------------------------------------
# data

def overlapping(n_per_class=12, n_classes=3, d=5, seed=0):
    """Classes whose means differ by less than their noise, so combinations
    score differently."""
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for c in range(n_classes):
        rows.append(rng.normal(0.6 * c, 1.0, (n_per_class, d)))
        labels += [f"EV{c}"] * n_per_class
    return np.vstack(rows), labels


def binary(seed=0):
    x, labels = overlapping(n_per_class=14, n_classes=2, d=4, seed=seed)
    return x, ["target" if l == "EV0" else "other" for l in labels]


def with_duplicates(seed=0):
    """Rows repeated, mostly under another label: queries then sit at exact
    distance zero from rows of both classes, the later class more often."""
    x, labels = overlapping(n_per_class=10, n_classes=2, d=3, seed=seed)
    x = np.vstack([x, x[:6], x[:6], x[:6], x[10:14]])
    labels = labels + ["EV1"] * 18 + ["EV0"] * 4
    return x, labels


def assert_same_search(family, grid, x, labels, **kwargs):
    got = grid_search(family, grid, x, labels, **kwargs)
    want = oracle_grid_search(family, grid, x, labels, **kwargs)
    assert got.table == want.table
    assert got.best_spec == want.best_spec
    assert got.best_score == want.best_score
    assert (json.dumps(model_document(got.model), sort_keys=True)
            == json.dumps(model_document(want.model), sort_keys=True))
    return got


SCORINGS = [("accuracy", {}),
            ("f1-positive", {"positive_label": "target"})]


# ---------------------------------------------------------------------------
# tests

@pytest.mark.parametrize("family", ["knn", "decision-tree", "random-forest"])
@pytest.mark.parametrize("scoring,extra", SCORINGS)
def test_default_grids_match_oracle(family, scoring, extra):
    x, labels = overlapping(seed=1) if scoring == "accuracy" else binary(seed=2)
    result = assert_same_search(family, DEFAULT_GRIDS[family], x,
                                labels, scoring=scoring, seed=3, **extra)
    scores = {cell.score for cell in result.table}
    assert len(scores) > 1  # the data tells combinations apart


AWKWARD_GRIDS = [
    # reversed key order
    ("knn", {"weights": ["distance", "uniform"], "metric": ["cosine", "manhattan"],
             "n_neighbors": [7, 1, 3]}),
    ("decision-tree", {"max_depth": [10, None, 2], "criterion": ["entropy", "gini"]}),
    ("random-forest", {"max_depth": [4, None], "n_estimators": [7, 2, 12]}),
    # omitted keys take their defaults
    ("knn", {"n_neighbors": [1, 4]}),
    ("knn", {"metric": ["manhattan"]}),
    ("decision-tree", {"max_depth": [1, 3]}),
    ("decision-tree", {"criterion": ["entropy"]}),
    ("random-forest", {"n_estimators": [3, 11]}),
    ("random-forest", {"max_depth": [2, None]}),
    # more neighbours than training rows
    ("knn", {"n_neighbors": [5, 100, 1000], "weights": ["uniform", "distance"]}),
    # depth caps deeper than the full tree
    ("decision-tree", {"criterion": ["gini", "entropy"], "max_depth": [1, 60, None]}),
    ("random-forest", {"n_estimators": [4, 9], "max_depth": [60, 1]}),
    # repeated grid values
    ("random-forest", {"n_estimators": [6, 6, 3], "max_depth": [3, 3]}),
]


@pytest.mark.parametrize("family,grid", AWKWARD_GRIDS)
def test_awkward_grids_match_oracle(family, grid):
    x, labels = overlapping(n_per_class=9, seed=4)
    assert_same_search(family, grid, x, labels, seed=5)


@pytest.mark.parametrize("metric", ["euclidean", "manhattan", "cosine"])
def test_exact_zero_distances_match_oracle(metric):
    x, labels = with_duplicates(seed=6)
    grid = {"n_neighbors": [1, 2, 3, 5, 9], "metric": [metric],
            "weights": ["distance", "uniform"]}
    assert_same_search("knn", grid, x, labels, seed=7)


@pytest.mark.parametrize("family,hp", [
    ("knn", {"n_neighbors": 4, "weights": "distance"}),
    ("knn", {"n_neighbors": 6, "metric": "cosine"}),
    ("knn", {"n_neighbors": 50, "metric": "manhattan", "weights": "distance"}),
    ("random-forest", {"n_estimators": 8, "max_depth": 3}),
])
def test_predict_matches_oracle(family, hp):
    x, labels = with_duplicates(seed=8)
    model = train(ClassifierSpec(family, hp), x, labels, seed=9)
    probe = np.vstack([x, np.random.default_rng(10).normal(0, 1, (25, 3))])
    np.testing.assert_array_equal(predict(model, probe),
                                  oracle_predict(model, probe))


@pytest.mark.parametrize("depth", [1, 2, 3, 5, 50])
@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_depth_capped_prediction_equals_capped_tree(depth, criterion):
    x, labels = overlapping(seed=11)
    full = train(ClassifierSpec("decision-tree", {"criterion": criterion}), x, labels)
    capped = train(ClassifierSpec("decision-tree",
                                  {"criterion": criterion, "max_depth": depth}),
                   x, labels)
    probe = np.random.default_rng(12).normal(0.6, 1.2, (60, x.shape[1]))
    np.testing.assert_array_equal(learn._tree_predict(full.tree, probe, depth),
                                  learn._tree_predict(capped.tree, probe))


def test_failed_criterion_scores_neg_inf_and_other_wins(monkeypatch):
    original = learn.train

    def no_gini(spec, *args, **kwargs):
        if spec.hyperparameters.get("criterion", "gini") == "gini":
            raise TrainingError("gini unavailable")
        return original(spec, *args, **kwargs)

    monkeypatch.setattr(learn, "train", no_gini)
    x, labels = overlapping(seed=13)
    result = assert_same_search("decision-tree",
                                DEFAULT_GRIDS["decision-tree"], x, labels)
    gini = [c for c in result.table if c.spec.hyperparameters["criterion"] == "gini"]
    assert len(gini) == 4  # one failed fold per combination, later folds skipped
    assert all(c.score == -np.inf and c.error == "gini unavailable" for c in gini)
    assert result.best_spec.hyperparameters["criterion"] == "entropy"
    assert np.isfinite(result.best_score)


def test_shared_fits_per_fold(monkeypatch):
    fits = []
    original = learn.train

    def counting(spec, *args, **kwargs):
        fits.append(spec)
        return original(spec, *args, **kwargs)

    monkeypatch.setattr(learn, "train", counting)
    x, labels = overlapping(seed=14)
    learn.grid_search("random-forest", DEFAULT_GRIDS["random-forest"], x, labels)
    assert len(fits) == 6 * 5 + 1  # one 50-tree forest per depth per fold
    assert all(s.hyperparameters["n_estimators"] == 50 for s in fits[:-1])
    fits.clear()
    learn.grid_search("decision-tree", DEFAULT_GRIDS["decision-tree"], x, labels)
    assert len(fits) == 2 * 5 + 1
    assert all(s.hyperparameters["max_depth"] is None for s in fits[:-1])


def test_column_mismatch_propagates(monkeypatch):
    original = learn.train

    def narrow(spec, x, *args, **kwargs):
        return original(spec, x[:, :1], *args, **kwargs)

    monkeypatch.setattr(learn, "train", narrow)
    x, labels = overlapping(seed=15)
    with pytest.raises(ValueError, match="query columns"):
        learn.grid_search("knn", {"n_neighbors": [3]}, x, labels)
