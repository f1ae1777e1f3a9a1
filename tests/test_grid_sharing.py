"""The shared-fit grid search is pinned to the per-combination loop it
replaced.

``oracle_grid_search`` fits every grid combination on every fold on its own,
predicts with the per-row kNN vote and the tree-by-tree forest vote, and
scores label strings with ``reference_scores``, the per-row confusion loop.
The shared search must give the same specs x folds score array, the same
chosen spec and the same refitted model, compared through
``model_document``, or fail with the same ``TrainingError`` when a CV fold
cannot be fitted.

``reference_manhattan`` is the per-row Manhattan loop that blocked
distances replaced; the oracle ranks with it and a full stable ``argsort``,
so the top-K ranking, the blocks and their sharing between CV folds are all
pinned to the code they replaced. A kNN search votes every fold and metric
in one pass over the search's class codes; a property pins it to each
fold's own vote on its training rows' codes, and oracle cases cover folds
whose training rows lack a class and folds that clip k differently.

``reference_best_split`` is the per-feature split search that the one-pass
search replaced; ``learn._segment_splits`` must pick the same (feature,
threshold) for every segment of a set of nodes scored together, so both grow
the same trees.

``tree_oracles`` keeps the one-node code that lockstep growth replaced: the
depth-first stack grower, its one-node split search and the per-tree
predictor. ``learn._grow_trees`` must grow the same trees as the stack
grower, tree by tree, down to each root's reach and each generator's state,
with and without guides, caps and bootstrap repeats, and
``learn._tree_predict`` must route rows as the per-tree predictor does.
``reference_grow_tree`` is the grower that row indices replaced: each node
held a copy of every column of its rows.

``reference_grow_forest`` is the forest grower that per-index tree seeds
replaced: tree t drew from ``SeedSequence(seed).spawn(n)[t]``. ``train``
must grow the same forests.

The forest search keeps one lineage per (fold, tree index) and walks the
depth caps from the largest down. A cap above the reach of a lineage's
latest tree keeps that tree, and a cap that cuts it regrows it, guided by
that tree; each cap grows every fold's regrowths in one lockstep growth
over the search matrix. The walk order, the regrowths and the tree and
predict counts are pinned per fold, each fold's forest at each cap is
pinned to ``train`` on the fold's rows, and the reach argument and the
guided regrowth each to a property test. ``tree_oracles`` keeps the
per-fold search that search-level growth replaced, and its tree-by-tree
vote; the search-level predictor and the cumulative vote must give the
same codes, also where a fold lacks a class, where folds differ in size,
and where the search matrix's ranks take wider split keys than a fold's.
The decision-tree search grows every fold over the search matrix too, on
the fold's own class codes; the per-spec oracle pins it where a fold's
training rows lack classes under entropy and where its ranks take wider
split keys than a fold's.

Each forest tree reads its bootstrap rows and candidates from a draw stream
that one search shares across caps and across folds with as many training
rows. A stream's entries are pinned to the sorted ``choice`` calls of a new
generator, the shared search to the per-spec oracle, and the draws of a
search to the stack grower's: each (training size, tree, node) is drawn
once, and each (training size, tree) generator derived once.
"""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import evprofiler.learn as learn
from evprofiler.learn import (DEFAULT_GRIDS, ClassifierSpec,
                              GridSearchResult, Scores, TrainingError,
                              expand_grid, grid_search, predict,
                              score_predictions, stratified_kfold, train)

from tree_oracles import (fold_by_fold_forest, forest_votes, node_best_split,
                          reference_entropy, stack_grow_tree,
                          stack_tree_predict)


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

def reference_scores(y_true, y_pred, positive_label=None):
    """Scores from a label confusion matrix filled row by row."""
    labels = tuple(sorted(set(y_true) | set(y_pred)))
    lookup = {l: i for i, l in enumerate(labels)}
    confusion = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        confusion[lookup[t], lookup[p]] += 1
    accuracy = float(np.trace(confusion) / confusion.sum())
    f1 = {}
    for i, lab in enumerate(labels):
        tp = confusion[i, i]
        p_den = confusion[:, i].sum()
        r_den = confusion[i, :].sum()
        p = tp / p_den if p_den else 0.0
        r = tp / r_den if r_den else 0.0
        f1[lab] = float(2 * p * r / (p + r)) if (p + r) else 0.0
    macro = float(np.mean([f1[l] for l in labels]))
    positive = None if positive_label is None else f1.get(positive_label, 0.0)
    return Scores(accuracy, macro, positive)


def reference_manhattan(queries, train_x):
    """Manhattan distances one query row at a time."""
    out = np.empty((queries.shape[0], train_x.shape[0]))
    for i, row in enumerate(queries):
        out[i] = np.sum(np.abs(train_x - row), axis=1)
    return out


def oracle_predict(model, x):
    x = np.asarray(x, dtype=np.float64)
    n_classes = len(model.classes)
    if model.spec.family == "knn":
        if x.shape[1] != model.knn_x.shape[1]:
            raise ValueError("query columns do not match the training matrix")
        hp = model.spec.hyperparameters
        k = min(hp.get("n_neighbors", 5), model.knn_x.shape[0])
        metric = hp.get("metric", "euclidean")
        dist = (reference_manhattan(x, model.knn_x) if metric == "manhattan"
                else learn._distances(metric, x, model.knn_x))
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
        codes = stack_tree_predict(model.tree, x)
    else:
        votes = np.zeros((x.shape[0], n_classes), dtype=np.int64)
        for tree in model.forest:
            votes[np.arange(x.shape[0]), stack_tree_predict(tree, x)] += 1
        codes = np.argmax(votes, axis=1)
    return np.array([model.classes[c] for c in codes])


def oracle_grid_search(family, grid, x, labels, k=5, seed=0,
                       positive_label=None):
    specs = expand_grid(family, grid)
    x = np.asarray(x, dtype=np.float64)
    labels = list(labels)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        folds = [f for f in stratified_kfold(labels, k, seed) if f.size]
    all_rows = np.arange(len(labels))
    table = []
    best_spec, best_mean = None, -np.inf
    for spec in specs:
        scores = []
        for fold_id, fold in enumerate(folds):
            train_rows = np.setdiff1d(all_rows, fold)
            try:
                model = learn.train(spec, x[train_rows],
                                    [labels[i] for i in train_rows], seed)
            except TrainingError as exc:
                raise TrainingError(f"CV fold {fold_id}: {exc}") from exc
            predicted = oracle_predict(model, x[fold])
            fold_scores = reference_scores([labels[i] for i in fold],
                                           list(predicted), positive_label)
            scores.append(fold_scores.accuracy if positive_label is None
                          else fold_scores.positive_f1)
        table.append(scores)
        mean = float(np.mean(scores))
        if mean > best_mean:
            best_mean, best_spec = mean, spec
    model = learn.train(best_spec, x, labels, seed)
    return GridSearchResult(best_spec, model, np.array(table))


# ---------------------------------------------------------------------------
# the per-feature split search

def _cumcount(codes):
    """Per-position count of earlier occurrences of the same code."""
    m = codes.size
    order = np.argsort(codes, kind="stable")
    grouped = codes[order]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    lengths = np.diff(np.r_[starts, m])
    within = np.arange(m) - np.repeat(starts, lengths)
    out = np.empty(m, dtype=np.int64)
    out[order] = within
    return out


def _gini_cut_costs(y_sorted, cut, m):
    # weighted gini = (m - sum_c l_c^2/p - sum_c r_c^2/(m-p)) / m, built from
    # prefix identities: adding a class-c sample bumps sum l^2 by 2*count+1.
    totals = np.bincount(y_sorted)
    left_sq = np.cumsum(2 * _cumcount(y_sorted) + 1)
    left_dot = np.cumsum(totals[y_sorted])  # sum_c total_c * left_c
    t2 = float(np.sum(totals.astype(np.float64) ** 2))
    p = (cut + 1).astype(np.float64)
    a = left_sq[cut].astype(np.float64)
    right_sq = t2 - 2.0 * left_dot[cut] + a
    return (m - a / p - right_sq / (m - p)) / m


def _entropy_cut_costs(y_sorted, cut, m, n_classes):
    onehot = np.zeros((m, n_classes))
    onehot[np.arange(m), y_sorted] = 1.0
    total_counts = onehot.sum(axis=0)
    left_counts = np.cumsum(onehot, axis=0)[cut]
    left_n = (cut + 1).astype(np.float64)
    right_n = m - left_n
    return (left_n * reference_entropy(left_counts, left_n)
            + right_n * reference_entropy(total_counts - left_counts, right_n)) / m


def reference_best_split(x, y, feature_ids, n_classes, criterion):
    """One feature at a time: stable sort, costs at value changes, keep the
    first minimum and replace it only by a strictly lower cost."""
    m = y.size
    best = None
    best_cost = np.inf
    for f in feature_ids:
        col = x[:, f]
        order = np.argsort(col, kind="stable")
        col_sorted = col[order]
        cut = np.nonzero(col_sorted[1:] != col_sorted[:-1])[0]
        if cut.size == 0:
            continue
        if criterion == "gini":
            cost = _gini_cut_costs(y[order], cut, m)
        else:
            cost = _entropy_cut_costs(y[order], cut, m, n_classes)
        j = int(np.argmin(cost))
        if cost[j] < best_cost:
            best_cost = cost[j]
            i = cut[j]
            best = (int(f), float((col_sorted[i] + col_sorted[i + 1]) / 2.0))
    return best


def reference_grow_tree(x, y, n_classes, criterion, max_depth, rng,
                        n_candidates):
    """The grower before row indices: a node holds a copy of every column of
    its rows and hands ``nx[mask]`` and ``nx[~mask]`` to its children. A
    forest tree grew on ``x[rows]``, ``y[rows]``."""
    root = learn._TreeNode()
    stack = [(root, x, y, 0)]
    while stack:
        node, nx, ny, depth = stack.pop()
        counts = np.bincount(ny, minlength=n_classes)
        node.label = int(np.argmax(counts))
        if (np.count_nonzero(counts) <= 1 or ny.size < 2
                or (max_depth is not None and depth >= max_depth)):
            continue
        root.reach = max(root.reach, depth)
        d = nx.shape[1]
        if n_candidates is not None and n_candidates < d:
            feature_ids = np.sort(rng.choice(d, size=n_candidates, replace=False))
        else:
            feature_ids = np.arange(d)
        split = node_best_split(nx, ny, feature_ids, n_classes, criterion)
        if split is None:
            continue
        node.feature, node.threshold = split
        mask = nx[:, node.feature] <= node.threshold
        node.left, node.right = learn._TreeNode(), learn._TreeNode()
        stack.append((node.left, nx[mask], ny[mask], depth + 1))
        stack.append((node.right, nx[~mask], ny[~mask], depth + 1))
    return root


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
    assert np.array_equal(got.scores, want.scores)
    assert got.best_spec == want.best_spec
    assert (json.dumps(model_document(got.model), sort_keys=True)
            == json.dumps(model_document(want.model), sort_keys=True))
    return got


def draw_streams(rngs, d, n_candidates):
    """A new draw stream on each generator of ``rngs``, for trees on ``d``
    columns; None when ``n_candidates`` is None, so the trees draw nothing."""
    if n_candidates is None:
        return None
    return [learn._DrawStream(rng, d, n_candidates) for rng in rngs]


def assert_same_failure(family, grid, x, labels, **kwargs):
    """Both searches raise a TrainingError with the same message; returns it."""
    with pytest.raises(TrainingError) as got:
        grid_search(family, grid, x, labels, **kwargs)
    with pytest.raises(TrainingError) as want:
        oracle_grid_search(family, grid, x, labels, **kwargs)
    assert str(got.value) == str(want.value)
    return str(got.value)


def record_forest_growth(monkeypatch, labels, seed, search):
    """Runs ``search()``, a forest search on ``labels`` with ``seed`` and 5
    folds, and returns, per fold: (tree index, cap, guide, tree) of every
    tree ``_forest_trees`` grew for the fold, in growth order; the fold's
    trees that ``_tree_predict`` predicted, in call order; and the fold's
    trees that ``_grow_trees`` grew, in growth order. Also returns the
    number of trees each ``_grow_trees`` call grew, the refit's included.

    A tree belongs to the fold whose training rows it was grown on, and
    must predict that fold's test rows.
    """
    folds = [f for f in stratified_kfold(labels, 5, seed) if f.size]
    train_rows = [np.setdiff1d(np.arange(len(labels)), f) for f in folds]
    grown_log, predicted_log, growths = [], [], []
    forest_trees, grow_trees = learn._forest_trees, learn._grow_trees
    tree_predict = learn._tree_predict

    def logged_forest_trees(x, ranks, y, n_classes, seed, trees, cap,
                            streams, guides=None):
        given = list(guides or [None] * len(trees))  # growth empties guides
        grown = forest_trees(x, ranks, y, n_classes, seed, trees, cap,
                             streams, guides)
        grown_log.extend((rows, t, cap, guide, tree) for (t, rows), guide, tree
                         in zip(trees, given, grown))
        return grown

    def logged_grow_trees(*args):
        growths.append(grow_trees(*args))
        return growths[-1]

    def logged_predict(trees, x, rows, caps=None):
        predicted_log.extend(zip(trees, rows))
        return tree_predict(trees, x, rows, caps)

    with monkeypatch.context() as patch:
        patch.setattr(learn, "_forest_trees", logged_forest_trees)
        patch.setattr(learn, "_grow_trees", logged_grow_trees)
        patch.setattr(learn, "_tree_predict", logged_predict)
        search()
    per_fold = [([], [], []) for _ in folds]
    fold_of_tree = {}
    for rows, t, cap, guide, tree in grown_log:
        # the refit's trees grow on every row, and belong to no fold
        for j, want in enumerate(train_rows):
            if np.array_equal(rows, want):
                fold_of_tree[id(tree)] = j
                per_fold[j][0].append((t, cap, guide, tree))
    for tree, rows in predicted_log:
        j = fold_of_tree[id(tree)]
        assert np.array_equal(rows, folds[j])
        per_fold[j][1].append(tree)
    for tree in (tree for grown in growths for tree in grown):
        if id(tree) in fold_of_tree:
            per_fold[fold_of_tree[id(tree)]][2].append(tree)
    return per_fold, [len(grown) for grown in growths]


SCORINGS = [("accuracy", {}),
            ("f1-positive", {"positive_label": "target"})]


# ---------------------------------------------------------------------------
# tests

@pytest.mark.parametrize("family", ["knn", "decision-tree", "random-forest"])
@pytest.mark.parametrize("scoring,extra", SCORINGS)
def test_default_grids_match_oracle(family, scoring, extra):
    x, labels = overlapping(seed=1) if scoring == "accuracy" else binary(seed=2)
    result = assert_same_search(family, DEFAULT_GRIDS[family], x,
                                labels, seed=3, **extra)
    assert np.unique(result.scores).size > 1  # the data tells combinations apart


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
    everyone = [np.arange(len(probe))]
    np.testing.assert_array_equal(
        learn._tree_predict([full.tree], probe, everyone, [depth]),
        learn._tree_predict([capped.tree], probe, everyone))


@pytest.mark.parametrize("family", ["knn", "decision-tree", "random-forest"])
def test_failed_fold_fails_the_search(family):
    # the one-row class sits in fold 0, so that fold trains on one class
    x, labels = overlapping(n_per_class=10, n_classes=2, seed=13)
    x, labels = x[:11], labels[:11]
    assert (assert_same_failure(family, DEFAULT_GRIDS[family], x, labels)
            == "CV fold 0: need at least two classes")


def test_shared_fits_per_fold(monkeypatch):
    fits = []
    original = learn.train

    def counting(spec, *args, **kwargs):
        fits.append(spec)
        return original(spec, *args, **kwargs)

    monkeypatch.setattr(learn, "train", counting)
    x, labels = overlapping(seed=14)
    results = []
    per_fold, calls = record_forest_growth(
        monkeypatch, labels, 0,
        lambda: results.append(learn.grid_search(
            "random-forest", DEFAULT_GRIDS["random-forest"], x, labels)))
    assert len(fits) == 1  # the refit; the folds grow their own trees
    assert len(per_fold) == 5
    # one growth per cap that regrows a tree, for every fold at once, then
    # the refit's
    assert calls[:-1] == [sum(len([g for g in grown if g[1] == cap])
                              for grown, _, _ in per_fold)
                          for cap in (None, 25, 15, 10, 5, 3)
                          if any(g[1] == cap for grown, _, _ in per_fold
                                 for g in grown)]
    assert calls[-1] == results[0].best_spec.param("n_estimators")
    for grown, predicted, grew in per_fold:
        assert grew == [tree for *_, tree in grown]
        # each tree the fold grows predicts the fold's test rows once, right
        # after its cap's growth
        assert len(predicted) == len(grown)
        assert all(p is tree for p, (*_, tree) in zip(predicted, grown))
        # the caps from the largest down, tree index by tree index within a
        # cap; a cap regrows exactly the trees whose lineage's reach it cuts,
        # each guided by its lineage's tree
        log = iter(grown)
        lineage = [None] * 50
        for cap in (None, 25, 15, 10, 5, 3):
            for t in range(50):
                if lineage[t] is None or lineage[t].reach >= learn._cap(cap):
                    got_t, got_cap, guide, tree_grown = next(log)
                    assert (got_t, got_cap) == (t, cap)
                    assert guide is lineage[t]
                    lineage[t] = tree_grown
        assert next(log, None) is None
        assert 50 < len(grown) < 6 * 50
    fits.clear()
    grown_trees, grow_trees = [], learn._grow_trees

    def counted_growth(x, ranks, y, n_classes, criterion, max_depth, *args):
        grown_trees.append((criterion, max_depth))
        return grow_trees(x, ranks, y, n_classes, criterion, max_depth, *args)

    monkeypatch.setattr(learn, "_grow_trees", counted_growth)
    learn.grid_search("decision-tree", DEFAULT_GRIDS["decision-tree"], x, labels)
    assert len(fits) == 1  # the refit; the folds grow their own trees
    # one full tree per criterion and fold, then the refit
    assert len(grown_trees) == 2 * 5 + 1
    assert grown_trees[:-1] == [("gini", None), ("entropy", None)] * 5
    fits.clear()
    votes, knn_codes = [], learn._knn_codes
    monkeypatch.setattr(learn, "_knn_codes",
                        lambda dist, *args: votes.append(dist.shape[0])
                        or knn_codes(dist, *args))
    result = learn.grid_search("knn", DEFAULT_GRIDS["knn"], x, labels)
    assert len(fits) == 1  # the refit; the folds read their rows from x
    predict(result.model, x)
    # one vote pass over every fold's test rows under each of the 3
    # metrics, then the refit's, here on its own training rows
    assert votes == [3 * len(labels), len(labels)]


@pytest.mark.parametrize("data_seed,seed,work", [
    (14, 0, [109, 95, 102, 105, 104]),
    (31, 3, [82, 86, 83, 98, 98]),
])
def test_forest_fold_work_is_unchanged(monkeypatch, data_seed, seed, work):
    """Trees grown and trees predicted per fold of the default grid, as
    counted on the depth-group fold that the per-index lineages replaced,
    on the tree-by-tree lineage walk that lockstep growth replaced, and on
    the fold-by-fold search that search-level growth replaced."""
    x, labels = overlapping(seed=data_seed)
    per_fold, _ = record_forest_growth(
        monkeypatch, labels, seed,
        lambda: grid_search("random-forest", DEFAULT_GRIDS["random-forest"],
                            x, labels, seed=seed))
    assert [len(grew) for _, _, grew in per_fold] == work
    assert [len(predicted) for _, predicted, _ in per_fold] == work


def test_column_mismatch_propagates():
    # a search reads every fold's rows from one matrix, so only a predict
    # can meet a query of other columns than its training matrix
    x, labels = overlapping(seed=15)
    for metric in ("euclidean", "manhattan", "cosine"):
        model = train(ClassifierSpec("knn", {"n_neighbors": 3, "metric": metric}),
                      x, labels)
        with pytest.raises(ValueError, match="query columns"):
            predict(model, x[:, :1])


@pytest.mark.parametrize("positive", [None, "L0", "L3", "absent"])
def test_scores_equal_reference_loop(positive):
    rng = np.random.default_rng(16)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        y = [f"L{v}" for v in rng.integers(0, int(rng.integers(1, 5)), n)]
        p = [f"L{v}" for v in rng.integers(0, int(rng.integers(1, 5)), n)]
        assert score_predictions(y, p, positive) == reference_scores(y, p, positive)
    # one stacked call scores rows that see different class sets; every row's
    # accuracy and positive-label F1 must equal its own reference
    for _ in range(100):
        n = int(rng.integers(1, 60))
        y = [f"L{v}" for v in rng.integers(0, int(rng.integers(1, 13)), n)]
        rows = [[f"L{v}" for v in rng.integers(0, int(rng.integers(1, 13)), n)]
                for _ in range(int(rng.integers(1, 8)))]
        classes, codes = learn._class_codes(
            [*y, *(l for row in rows for l in row)], positive)
        accuracy, f1, _ = learn._scores(
            codes[:n], codes[n:].reshape(len(rows), n), len(classes))
        for i, row in enumerate(rows):
            want = reference_scores(y, row, positive)
            assert float(accuracy[i]) == want.accuracy
            if positive is not None:
                assert float(f1[i, classes.index(positive)]) == want.positive_f1


def reference_knn_codes(dist, nearest, train_y, n_classes, ks, weighted,
                        present=None):
    """The plain rank loop: votes added neighbour by neighbour over every
    row at once, winners read at each k in ``ks``. A class that
    ``present`` (rows x classes) forbids a row totals -inf, and where every
    class the row may take totals -inf, the lowest of them wins."""
    rows = np.arange(dist.shape[0])
    votes = np.zeros((dist.shape[0], n_classes))
    if present is not None:
        votes[~present] = -np.inf
    exact = np.zeros_like(votes)
    any_exact = np.zeros(dist.shape[0], dtype=bool)
    out = {}
    for rank in range(max(ks)):
        idx = nearest[:, rank]
        ny = train_y[idx]
        if weighted:
            nd = dist[rows, idx]
            with np.errstate(divide="ignore", invalid="ignore"):
                votes[rows, ny] += 1.0 / nd
            exact[rows, ny] += nd == 0.0
            any_exact |= nd == 0.0
        else:
            votes[rows, ny] += 1.0
        if rank + 1 in ks:
            final = np.where(any_exact[:, None], exact, votes)
            won = np.argmax(final, axis=1)
            if present is not None:
                won = np.where(present[rows, won], won, present.argmax(axis=1))
            out[rank + 1] = won
    return out


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("ks", [{1}, {15}, set(range(3, 16, 2))])
@pytest.mark.parametrize("n_classes", [2, 12, 40, 530])
def test_knn_codes_equal_rank_loop(monkeypatch, weighted, ks, n_classes):
    # several chunks run: a chunk holds 40 // ((weightings + 1) x classes)
    # query rows, at least one, so up to 10 rows at 2 classes and one row
    # at 12, 40 or 530
    monkeypatch.setattr(learn, "_VOTE_ELEMENTS", 40)
    rng = np.random.default_rng(21)
    masks = np.random.default_rng(22)
    for _ in range(30):
        n_query, n_train = int(rng.integers(1, 40)), int(rng.integers(15, 40))
        # few distinct values: repeated distances, ties, exact zeros of both
        # signs, and a negative distance (cosine rounding) whose vote is
        # below the 0.0 of classes no neighbour has
        dist = rng.choice([0.0, -0.0, -1e-16, 0.5, 1.0, 1.5, 2.0, 3.0, 1e-300],
                          (n_query, n_train))
        dist[:, :3] = rng.random((n_query, 3))
        nearest = np.argsort(dist, axis=1, kind="stable")
        train_y = rng.integers(0, n_classes, n_train)
        # K-wide inputs, K the largest k, alone and with the other
        # weighting's votes sharing the rank loop
        top = nearest[:, :max(ks)]
        near = np.take_along_axis(dist, top, axis=1)
        alone = {(k, weighted) for k in ks}
        # as in a search, whose neighbours are the fold's training rows, the
        # neighbours' classes are allowed and other classes masked at random
        mask = masks.random((n_query, n_classes)) < 0.5
        mask[np.arange(n_query)[:, None], train_y[top]] = True
        for present in (None, mask):
            want = reference_knn_codes(dist, nearest, train_y, n_classes, ks,
                                       weighted, present)
            for votes in (alone, alone | {(k, not weighted) for k in ks}):
                got = learn._knn_codes(near, top, train_y, n_classes, votes,
                                       present)
                assert got.keys() == votes
                for k in ks:
                    np.testing.assert_array_equal(got[k, weighted], want[k])


def test_nearest_equals_stable_argsort_prefix():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    hnp = pytest.importorskip("hypothesis.extra.numpy")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(data=st.data(), n_query=st.integers(0, 12),
                      n_train=st.integers(1, 25), top=st.integers(1, 30),
                      budget=st.integers(1, 60))
    def check(data, n_query, n_train, top, budget):
        # few distinct values: heavy ties, exact zeros of both signs, and
        # NaN, which sorts last; a budget under one row still takes one
        # query row per chunk
        values = st.sampled_from([-1e-16, -0.0, 0.0, 1e-300, 0.5, 2.0, np.inf,
                                  np.nan])
        dist = data.draw(hnp.arrays(np.float64, (n_query, n_train),
                                    elements=values, fill=st.nothing()))
        columns = np.arange(n_train) * 3 + 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(learn, "_DIST_ELEMENTS", budget)
            near, at = learn._nearest(dist, top, columns)
        want = np.argsort(dist, axis=1, kind="stable")[:, :top]
        np.testing.assert_array_equal(at, columns[want])
        # bit for bit: -0.0 stays -0.0
        assert (np.take_along_axis(dist, want, axis=1).tobytes()
                == near.tobytes())

    check()


@pytest.mark.parametrize("d", [1, 8, 128, 129, 134, 300])
@pytest.mark.parametrize("budget", [1, 1 << 11, 1 << 16])
def test_blocked_manhattan_equals_row_loop(monkeypatch, d, budget):
    # budget 1 takes one pair per block; 1 << 11 splits the training rows
    # at wide d and groups query rows at narrow d
    monkeypatch.setattr(learn, "_DIST_ELEMENTS", budget)
    rng = np.random.default_rng(d)
    for n_query, n_train in [(1, 1), (7, 30), (23, 5)]:
        scale = 10.0 ** rng.integers(-3, 6, d)
        a = np.round(rng.normal(0.0, 1.0, (n_query, d)) * scale, 1)
        b = np.round(rng.normal(0.0, 1.0, (n_train, d)) * scale, 1)
        b[0] = a[0]
        got = learn._distances("manhattan", a, b)
        np.testing.assert_array_equal(got, reference_manhattan(a, b))
        # the transposed block is the swapped operands' block
        np.testing.assert_array_equal(learn._distances("manhattan", b, a).T, got)
        np.testing.assert_array_equal(got.T, reference_manhattan(b, a))


def reference_distances(metric, queries, train_x):
    """The whole-array euclidean and cosine expressions that in-place
    chunks replaced."""
    if metric == "euclidean":
        sq = (np.sum(queries ** 2, axis=1)[:, None]
              + np.sum(train_x ** 2, axis=1)[None, :]
              - 2.0 * queries @ train_x.T)
        return np.sqrt(np.maximum(sq, 0.0))
    qn = np.linalg.norm(queries, axis=1)
    tn = np.linalg.norm(train_x, axis=1)
    sim = queries @ train_x.T
    with np.errstate(divide="ignore", invalid="ignore"):
        sim = sim / (qn[:, None] * tn[None, :])
    sim[~np.isfinite(sim)] = 0.0
    return 1.0 - sim


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
@pytest.mark.parametrize("budget", [1, 7, 8, 9, 1 << 14])
def test_in_place_distances_equal_whole_array_expressions(monkeypatch, metric,
                                                          budget):
    # chunks of one query row, of one row short of a whole row count, of
    # exactly and just over one, and the whole matrix at the default budget
    monkeypatch.setattr(learn, "_DIST_ELEMENTS", budget)
    rng = np.random.default_rng(60)
    for n_query, n_train in [(1, 1), (7, 1), (1, 8), (6, 8), (7, 8), (9, 8),
                             (15, 4), (23, 5), (0, 3)]:
        a = np.round(rng.normal(0.0, 1.0, (n_query, 5)), 1)
        b = np.round(rng.normal(0.0, 1.0, (n_train, 5)), 1)
        # a zero vector on each side and a row in both
        b[-1] = 0.0
        if n_query:
            a[0] = 0.0
            b[0] = a[-1]
        got = learn._distances(metric, a, b)
        want = reference_distances(metric, a, b)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # -0.0 stays -0.0


@pytest.mark.parametrize("top", [1, 4, 15, 200])
@pytest.mark.parametrize("data", ["rounded", "duplicates"])
def test_fold_manhattan_equals_each_folds_own_ranking(monkeypatch, top, data):
    # heavy ties across blocks: integer features in few columns, or
    # repeated rows; a small budget splits every block
    monkeypatch.setattr(learn, "_DIST_ELEMENTS", 7)
    if data == "rounded":
        x, labels = overlapping(n_per_class=13, n_classes=3, d=2, seed=31)
        x = np.round(x)
    else:
        x, labels = with_duplicates(seed=32)
    folds = [f for f in stratified_kfold(labels, 5, 33) if f.size]
    fold_of = np.empty(len(labels), dtype=np.int64)
    for j, fold in enumerate(folds):
        fold_of[fold] = j
    # the search's arrays: every column a pad until a fold's ranking fills it
    near = np.full((len(labels), top), np.inf)
    at = np.full(near.shape, len(labels), dtype=np.int64)
    learn._fold_manhattan(x, fold_of, near, at)
    for fold in folds:
        train_rows = np.setdiff1d(np.arange(len(labels)), fold)
        dist = reference_manhattan(x[fold], x[train_rows])
        want = np.argsort(dist, axis=1, kind="stable")[:, :top]
        # each training position as its row of x
        np.testing.assert_array_equal(at[fold, :want.shape[1]], train_rows[want])
        np.testing.assert_array_equal(near[fold, :want.shape[1]],
                                      np.take_along_axis(dist, want, axis=1))
        # the columns past the fold's training rows stay pads; top 200 is
        # above every fold's training rows
        assert want.shape[1] < top or top != 200
        assert (near[fold, want.shape[1]:] == np.inf).all()
        assert (at[fold, want.shape[1]:] == len(labels)).all()


@pytest.mark.parametrize("top", [1, 3, 40])
@pytest.mark.parametrize("n_train", [1, 6, 7, 8, 13])
def test_blocked_manhattan_predict_equals_whole_matrix(monkeypatch, top,
                                                       n_train):
    # a budget of 20 takes blocks of 20 // n_train query rows, at least
    # one: query counts one short of a block edge, on it and just over it
    monkeypatch.setattr(learn, "_DIST_ELEMENTS", 20)
    rng = np.random.default_rng(n_train)
    step = max(1, 20 // n_train)
    b = np.round(rng.normal(0.0, 1.0, (n_train, 4)), 1)
    for n_query in sorted({0, 1, step - 1, step, step + 1, 2 * step + 1}):
        a = np.round(rng.normal(0.0, 1.0, (n_query, 4)), 1)
        if n_query:
            a[0] = b[0]  # an exact zero; rounded values tie
        got = learn._neighbours("manhattan", a, b, top)
        want = learn._nearest(learn._distances("manhattan", a, b), top,
                              np.arange(n_train))
        for g, w in zip(got, want):
            assert g.shape == w.shape
            np.testing.assert_array_equal(g, w)


def test_one_vote_pass_equals_fold_by_fold_votes():
    """``_knn_votes`` equals each fold's own ``_knn_codes`` on its training
    rows' class codes, mapped back to the search's codes: random rankings
    padded past each fold's training rows, fold layouts whose training rows
    lack classes, folds that clip k differently, both weightings, and
    distances of both signs, zeros of both signs among them, and some so
    small that a vote overflows to +-inf."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    hnp = pytest.importorskip("hypothesis.extra.numpy")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(data=st.data(), n_folds=st.integers(2, 4),
                      n_rows=st.integers(0, 10), n_classes=st.integers(2, 6),
                      n_rankings=st.integers(1, 3), budget=st.integers(1, 400))
    def check(data, n_folds, n_rows, n_classes, n_rankings, budget):
        fold_of = np.array(data.draw(st.permutations(
            [*range(n_folds), *data.draw(st.lists(
                st.integers(0, n_folds - 1), min_size=n_rows,
                max_size=n_rows))])))
        y = data.draw(hnp.arrays(np.int64, fold_of.size,
                                 elements=st.integers(0, n_classes - 1)))
        votes = data.draw(st.lists(st.tuples(
            st.integers(0, n_rankings - 1), st.integers(1, fold_of.size + 1),
            st.booleans()), min_size=1, max_size=6))
        values = st.sampled_from([-5e-324, -1e-16, -0.0, 0.0, 5e-324, 1e-300,
                                  0.5, 1.0, 2.0])
        # the search's layout: row n at distance +inf past each fold's
        # training rows
        top = max(k for _, k, _ in votes)
        dist = np.full((n_rankings, fold_of.size, top), np.inf)
        near = np.full(dist.shape, fold_of.size, dtype=np.int64)
        for j in range(n_folds):
            test = np.flatnonzero(fold_of == j)
            train_rows = np.flatnonzero(fold_of != j)
            shape = (n_rankings, test.size, min(top, train_rows.size))
            dist[:, test, :shape[2]] = data.draw(
                hnp.arrays(np.float64, shape, elements=values))
            near[:, test, :shape[2]] = train_rows[data.draw(hnp.arrays(
                np.int64, shape, elements=st.integers(0, train_rows.size - 1)))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(learn, "_VOTE_ELEMENTS", budget)
            got = learn._knn_votes(dist, near, fold_of, y, n_classes, votes)
        for j in range(n_folds):
            test = np.flatnonzero(fold_of == j)
            train_rows = np.flatnonzero(fold_of != j)
            classes, codes = np.unique(y[train_rows], return_inverse=True)
            width = min(top, train_rows.size)
            clipped = [(min(k, train_rows.size), w) for _, k, w in votes]
            for r in range(n_rankings):
                want = learn._knn_codes(
                    dist[r, test, :width],
                    np.searchsorted(train_rows, near[r, test, :width]), codes,
                    classes.size, set(clipped))
                for i in np.flatnonzero([v[0] == r for v in votes]):
                    np.testing.assert_array_equal(got[i, test],
                                                  classes[want[clipped[i]]])

    check()


def parallel_rows():
    """Rows of one vector v, whose cosine distance to itself rounds to -1
    ulp: a lone class "A" on v, five copies of v among class "B", and
    overlapping rows of "B" and "C". Under distance weights every vote
    near v is negative, below the 0.0 of a class no neighbour has."""
    rng = np.random.default_rng(40)
    v = next(row for row in rng.normal(0.0, 1.0, (100, 3))
             if learn._distances("cosine", row[None], row[None])[0, 0] < 0)
    x, labels = overlapping(n_per_class=10, n_classes=2, d=3, seed=41)
    x = np.vstack([v, np.repeat(v[None], 5, axis=0), x[5:]])
    labels = ["A"] + ["B"] * 10 + ["C"] * 10
    return x, labels


def entropy_fold_classes():
    """38 classes of one to a few rows each on few distinct values, so
    fold 0's training rows lack five classes; a decision tree's entropy
    grown over the search's 38 class columns there scores otherwise."""
    rng = np.random.default_rng(7)
    c = rng.integers(9, 40)
    n = rng.integers(c + 10, 160)
    d = rng.integers(1, 6)
    codes = np.r_[np.arange(c), rng.integers(0, c, n - c)]
    x = rng.integers(0, rng.integers(2, 6), (n, d)) + 0.3 * (codes[:, None] % 3)
    return x, [f"c{v:02d}" for v in codes]


@pytest.mark.parametrize("case", ["lone-class", "absent-positive",
                                  "parallel-rows", "entropy-tree"])
def test_classes_a_fold_lacks_match_oracle(case):
    # a fold whose training rows lack a class votes only over the classes
    # they hold; the one vote pass masks the others for that fold's rows,
    # and a decision tree grows that fold on its own class codes
    family, grid = "knn", DEFAULT_GRIDS["knn"]
    extra = {"seed": 44}
    if case == "lone-class":
        x, labels = overlapping(seed=42)
        x, labels = np.vstack([x, x[:1] + 0.5]), labels + ["EV"]
    elif case == "absent-positive":
        x, labels = binary(seed=43)
        extra["positive_label"] = "absent"
    elif case == "parallel-rows":
        x, labels = parallel_rows()
        grid = {"n_neighbors": [1, 2, 3], "metric": ["cosine"],
                "weights": ["distance", "uniform"]}
        # the premise: a copy of v sits at a negative distance from v in
        # the search's own product
        assert learn._distances("cosine", x, x)[0, 1] < 0
    else:
        x, labels = entropy_fold_classes()
        family = "decision-tree"
        grid = {"criterion": ["entropy"], "max_depth": [None, 2, 3, 4]}
        extra = {"seed": 7}
        # the premise: fold 0's training rows lack classes of the search
        fold_of = search_folds(labels, 7)
        assert len(set(labels)) - len(set(np.array(labels)[fold_of != 0])) == 5
    assert_same_search(family, grid, x, labels, **extra)


def test_folds_that_clip_k_differently_match_oracle(monkeypatch):
    # 23 rows in 5 folds of 3 to 6 rows: k 18 and 19 clip to a fold's
    # training rows in some folds only; every fold ranks 40 columns, its
    # training rows and then pads, and all vote in one pass
    x, labels = overlapping(n_per_class=8, n_classes=3, seed=45)
    x, labels = x[:23], labels[:23]
    folds = [f for f in stratified_kfold(labels, 5, 46) if f.size]
    sizes = sorted({len(labels) - f.size for f in folds})
    assert len(sizes) == 3 and sizes[0] < 18 and sizes[-1] > 19
    passes, knn_codes = [], learn._knn_codes
    monkeypatch.setattr(learn, "_knn_codes",
                        lambda dist, *args: passes.append(dist.shape[1])
                        or knn_codes(dist, *args))
    grid = {"n_neighbors": [3, 18, 19, 40], "metric": ["manhattan", "cosine"],
            "weights": ["uniform", "distance"]}
    grid_search("knn", grid, x, labels, seed=46)
    # one pass over the grid's largest k, whichever k a fold clips
    assert passes == [40]
    monkeypatch.undo()
    assert_same_search("knn", grid, x, labels, seed=46)
    # row 0 of the minority class: a pad that voted for a real row would
    # move the full uniform vote, which the lowest class wins above
    assert_same_search("knn", grid, x[::-1], labels[::-1], seed=46)


# ---------------------------------------------------------------------------
# the segmented split search against the per-feature one

def awkward_matrix(rng, m, d, n_classes):
    """Rounded values (ties within and across columns), a constant column
    and a duplicated column when there is room, labels from n_classes."""
    x = np.round(rng.normal(0.0, 1.0, (m, d)), int(rng.integers(0, 3)))
    if d > 1:
        x[:, rng.integers(0, d)] = 0.5
    if d > 2:
        x[:, 2] = x[:, 0]
    y = rng.integers(0, n_classes, m)
    return x, y


def segment_splits(x, y, segments, columns, n_classes, criterion):
    """``learn._segment_splits`` on the segments ``segments`` (row index
    arrays into ``x``) with candidate columns ``columns``, one row each, as
    a (feature, threshold) or None per segment."""
    features, thresholds = learn._segment_splits(
        x, learn._ranks(x), y, np.concatenate(segments),
        np.array([rows.size for rows in segments]), np.asarray(columns),
        n_classes, criterion)
    return [None if f < 0 else (int(f), float(t))
            for f, t in zip(features, thresholds)]


def segment_split(x, y, feature_ids, n_classes, criterion):
    """The split of one segment holding every row of ``x``."""
    [split] = segment_splits(x, y, [np.arange(y.size)],
                             np.asarray(feature_ids)[None, :], n_classes,
                             criterion)
    return split


def assert_same_split(x, y, feature_ids, n_classes, criterion):
    feature_ids = np.asarray(feature_ids)
    assert (segment_split(x, y, feature_ids, n_classes, criterion)
            == reference_best_split(x, y, feature_ids, n_classes, criterion))


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_split_equals_per_feature_search(criterion):
    rng = np.random.default_rng(17)
    found = 0
    for _ in range(400):
        m, d = int(rng.integers(2, 60)), int(rng.integers(1, 12))
        n_classes = int(rng.integers(2, 41))
        x, y = awkward_matrix(rng, m, d, n_classes)
        for feature_ids in (np.arange(d),
                            np.sort(rng.choice(d, int(rng.integers(1, d + 1)),
                                               replace=False)),
                            [int(rng.integers(0, d))]):
            assert_same_split(x, y, feature_ids, n_classes, criterion)
        found += reference_best_split(x, y, np.arange(d), n_classes,
                                      criterion) is not None
    assert found > 300  # most cases have a split to agree on


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_split_of_constant_columns_is_none(criterion):
    x = np.full((12, 4), 3.0)
    y = np.arange(12) % 3
    assert segment_split(x, y, np.arange(4), 3, criterion) is None
    assert reference_best_split(x, y, np.arange(4), 3, criterion) is None


@pytest.mark.parametrize("m,n_classes,d,columns_in_budget", [
    (400, 120, 3, 0),    # one column's one-hot alone exceeds the budget
    (100, 30, 25, 10),   # one-hot chunks of 10 columns, the last one of 5
])
def test_entropy_chunks_equal_per_feature_search(m, n_classes, d,
                                                 columns_in_budget):
    """Shapes whose class one-hot was chunked by columns before entropy
    bounded its cuts; the splits, planted or not, stay the same."""
    assert learn._CHUNK_ELEMENTS // (m * n_classes) == columns_in_budget
    rng = np.random.default_rng(18)
    x, y = awkward_matrix(rng, m, d, n_classes)
    for criterion in ("gini", "entropy"):
        assert_same_split(x, y, np.arange(d), n_classes, criterion)
        for k in range(d):
            # the class codes themselves make column k the best one
            planted = x.copy()
            planted[:, k] = y
            assert_same_split(planted, y, np.arange(d), n_classes, criterion)


def test_split_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    hnp = pytest.importorskip("hypothesis.extra.numpy")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(data=st.data(), m=st.integers(2, 25), d=st.integers(1, 6),
                      n_classes=st.integers(2, 8),
                      criterion=st.sampled_from(["gini", "entropy"]))
    def check(data, m, d, n_classes, criterion):
        # few distinct values, so ties are common
        values = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 1e-300, 7.0])
        x = data.draw(hnp.arrays(np.float64, (m, d), elements=values,
                                 fill=st.nothing()))
        y = data.draw(hnp.arrays(np.int64, m, fill=st.nothing(),
                                 elements=st.integers(0, n_classes - 1)))
        feature_ids = np.array(sorted(data.draw(st.sets(
            st.integers(0, d - 1), min_size=1))))
        assert_same_split(x, y, feature_ids, n_classes, criterion)

    check()


def test_split_ignores_row_order():
    """The value sort is unstable, so shuffling a node's rows reorders equal
    values (signed zeros among them), yet no split may move."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    hnp = pytest.importorskip("hypothesis.extra.numpy")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(data=st.data(), m=st.integers(2, 40), d=st.integers(1, 6),
                      n_classes=st.integers(2, 8),
                      criterion=st.sampled_from(["gini", "entropy"]))
    def check(data, m, d, n_classes, criterion):
        values = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 1e-300, 7.0])
        x = data.draw(hnp.arrays(np.float64, (m, d), elements=values,
                                 fill=st.nothing()))
        y = data.draw(hnp.arrays(np.int64, m, fill=st.nothing(),
                                 elements=st.integers(0, n_classes - 1)))
        shuffle = np.array(data.draw(st.permutations(range(m))))
        feature_ids = np.arange(d)
        # repr, so a threshold of -0.0 does not pass for 0.0
        assert (repr(segment_split(x[shuffle], y[shuffle], feature_ids,
                                   n_classes, criterion))
                == repr(segment_split(x, y, feature_ids, n_classes, criterion)))

    check()


@pytest.mark.parametrize("n_classes", [255, 256, 257, 600, 65_536, 65_537])
@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_split_at_every_code_width(n_classes, criterion):
    """Class codes go to the narrowest unsigned dtype that holds
    ``n_classes - 1``: 8 bits up to 256 classes, 16 up to 65,536, then 32.
    Codes 0 and the top code are always drawn, and at 257 and 65,537 classes
    those two would collide if cut to the narrower width."""
    rng = np.random.default_rng(n_classes)
    top = n_classes - 1
    pool = np.unique(np.r_[0, 1, top - 1, top, n_classes // 2,
                           rng.integers(0, n_classes, 10)])
    for _ in range(6):
        m, d = int(rng.integers(2, 40)), int(rng.integers(1, 5))
        x, _ = awkward_matrix(rng, m, d, 2)
        y = rng.choice(pool, m)
        assert_same_split(x, y, np.arange(d), n_classes, criterion)
        # codes 0 and top on the same side of the best cut of column 0
        planted = x.copy()
        planted[:, 0] = np.isin(y, (0, top))
        assert_same_split(planted, y, np.arange(d), n_classes, criterion)


def signed_zeros(rng, x):
    """``x`` with about a tenth of its entries -0.0 and a tenth 0.0."""
    x = x.copy()
    draw = rng.random(x.shape)
    x[draw < 0.1] = -0.0
    x[(draw >= 0.1) & (draw < 0.2)] = 0.0
    return x


def bootstrap_segments(rng, n, n_segments, max_size):
    """Row index arrays of 1 to ``max_size`` rows drawn with repeats, as a
    forest's nodes hold them."""
    return [rng.integers(0, n, int(rng.integers(1, max_size + 1)))
            for _ in range(n_segments)]


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
@pytest.mark.parametrize("budget", [1 << 15, 1 << 9, 1])
def test_segment_splits_equal_per_feature_search(monkeypatch, criterion, budget):
    """Every segment of a set scored together takes the split that the
    per-feature search gives its rows alone. Sets hold 1 to 300 segments of
    1 to 60 rows on rounded, constant and duplicated columns, with -0.0
    beside 0.0; the default budget groups segments, a small one splits
    groups and chunks a large segment's columns, and budget 1 scores one
    column of one segment at a time."""
    monkeypatch.setattr(learn, "_CHUNK_ELEMENTS", budget)
    rng = np.random.default_rng(41)
    found = 0
    for n_segments in (1, 1, 2, 3, 7, 40, 300):
        n, d = int(rng.integers(2, 80)), int(rng.integers(1, 12))
        n_classes = int(rng.integers(2, 41))
        x, y = awkward_matrix(rng, n, d, n_classes)
        x = signed_zeros(rng, x)
        segments = bootstrap_segments(rng, n, n_segments, 60)
        w = int(rng.integers(1, d + 1))
        columns = np.sort([rng.choice(d, w, replace=False) for _ in segments],
                          axis=1)
        got = segment_splits(x, y, segments, columns, n_classes, criterion)
        want = [reference_best_split(x[rows], y[rows], ids, n_classes, criterion)
                for rows, ids in zip(segments, columns)]
        # repr, so a threshold of -0.0 does not pass for 0.0
        assert repr(got) == repr(want)
        found += sum(split is not None for split in want)
    assert found > 200  # most segments have a split to agree on


@pytest.mark.parametrize("n_segments,n_classes,n_rows", [
    (1, 256, 40), (1, 257, 40),        # (segment, class) codes: 8 bits, 16
    (2, 128, 128), (2, 129, 129),      # both keys: 8 bits, 16
    (256, 256, 256), (257, 256, 257),  # both keys: 16 bits, 32
])
@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_segment_splits_at_every_key_width(n_segments, n_classes, n_rows,
                                           criterion):
    """The (segment, class) sort keys and the (segment, value rank) keys go
    to the narrowest unsigned dtype that holds their largest value. Every
    segment holds class codes 0 and the top code and the rows of the lowest
    and highest value of column 0, which has one rank per row, so the last
    segment reaches both largest keys; cut to a narrower width, they would
    collide with smaller ones."""
    rng = np.random.default_rng(n_segments * n_classes)
    top = n_classes - 1
    x = np.round(rng.normal(0.0, 1.0, (n_rows, 3)), 1)
    x[:, 0] = rng.permutation(n_rows)
    y = rng.integers(0, n_classes, n_rows)
    y[:2] = 0, top
    low, high = np.argmin(x[:, 0]), np.argmax(x[:, 0])
    segments = [np.r_[0, 1, low, high, rows]
                for rows in bootstrap_segments(rng, n_rows, n_segments, 12)]
    columns = np.tile(np.arange(3), (n_segments, 1))
    # codes 0 and top on the same side of the best cut of column 1
    x[:, 1] = np.isin(y, (0, top))
    got = segment_splits(x, y, segments, columns, n_classes, criterion)
    want = [reference_best_split(x[rows], y[rows], np.arange(3), n_classes,
                                 criterion) for rows in segments]
    assert repr(got) == repr(want)


# ---------------------------------------------------------------------------
# entropy: bound every cut, then verify the few near the minimum

def test_log2_within_assumed_ulps():
    """The entropy bound assumes np.log2 within ``_LOG2_ULPS`` ulps of
    log2. math.log2 is within 1 ulp, so np.log2 must be within
    ``_LOG2_ULPS - 1`` ulps of it: on the table's integers and on class
    shares l / p, in long arrays and in short ones (numpy's vector loops
    and their tails)."""
    n = np.arange(1.0, 1 << 16)
    p = np.repeat(np.arange(1, 301), np.arange(1, 301))
    shares = (np.arange(p.size) - (p * (p - 1)) // 2 + 1) / p
    for values in (n, shares, shares[:7], n[:3]):
        want = np.array([math.log2(v) for v in values])
        ulps = (learn._LOG2_ULPS - 1) * np.spacing(np.abs(want))
        assert np.all(np.abs(np.log2(values) - want) <= ulps)


def cut_cost_operands(x, y, segments, columns, n_classes):
    """The operands of every ``_cut_costs`` call that ``_segment_splits``
    makes to score ``segments`` under entropy."""
    calls, cut_costs = [], learn._cut_costs

    def capture(*args):
        calls.append(args[:-1])
        return cut_costs(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(learn, "_cut_costs", capture)
        segment_splits(x, y, segments, columns, n_classes, "entropy")
    return calls


def exact_entropy_costs(order, change, codes, totals, seg, first):
    """The weighted child entropy of every cut where a threshold falls, by
    the one-hot prefix counts and ``reference_entropy``, as (slot, position,
    cost) triples."""
    n_classes = totals.shape[1]
    m = totals.sum(axis=1)
    out = []
    for j, row in enumerate(order):
        onehot = np.zeros((row.size, n_classes))
        onehot[np.arange(row.size), codes[row]] = 1.0
        left = onehot.cumsum(axis=0)
        left -= np.vstack([np.zeros(n_classes), left])[first][seg]
        for k in np.flatnonzero(change[j]):
            s = seg[k]
            left_n = np.array(k - first[s] + 1.0)
            right_n = m[s] - left_n
            cost = (left_n * reference_entropy(left[k], left_n)
                    + right_n * reference_entropy(totals[s] - left[k], right_n)
                    ) / m[s]
            out.append((j, k, float(cost)))
    return out


def test_entropy_bound_property():
    """``_entropy_bound``'s approximate m x cost lies within its ``delta``
    of m times the exact cost, checked in exact rational arithmetic, on
    every cut of every ``_cut_costs`` call that a set of segments makes:
    2 to 600 classes, rounded values with -0.0 beside 0.0, duplicated
    columns, bootstrap segments and candidate columns per segment."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    hnp = pytest.importorskip("hypothesis.extra.numpy")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(data=st.data(), n=st.integers(2, 80), d=st.integers(1, 5),
                      n_classes=st.integers(2, 600),
                      n_segments=st.integers(1, 4))
    def check(data, n, d, n_classes, n_segments):
        values = st.sampled_from([-0.0, 0.0] + [k / 4 for k in range(-24, 25) if k])
        x = data.draw(hnp.arrays(np.float64, (n, d), elements=values,
                                 fill=st.nothing()))
        if d > 1 and data.draw(st.booleans()):
            x[:, d - 1] = x[:, 0]
        y = data.draw(hnp.arrays(np.int64, n, fill=st.nothing(),
                                 elements=st.integers(0, n_classes - 1)))
        segments = [data.draw(hnp.arrays(np.int64, st.integers(1, 2 * n),
                                         fill=st.nothing(),
                                         elements=st.integers(0, n - 1)))
                    for _ in range(n_segments)]
        w = data.draw(st.integers(1, d))
        columns = np.array([sorted(data.draw(st.permutations(range(d)))[:w])
                            for _ in segments])
        for operands in cut_cost_operands(x, y, segments, columns, n_classes):
            order, change, codes, totals, seg, first = operands
            approx, delta = learn._entropy_bound(order, codes, totals, seg, first)
            m = totals.sum(axis=1)
            for j, k, cost in exact_entropy_costs(*operands):
                error = abs(Fraction(approx[j, k]) - int(m[seg[k]]) * Fraction(cost))
                assert error <= Fraction(delta[seg[k]])

    check()


def palindrome_matrix(rng, n_classes):
    """Rows whose class codes read the same both ways in column 0's order:
    a block of one class at each end and distinct classes between, so the
    cut after the first block and the cut before the last tie exactly and
    beat the middle. Column 3 duplicates column 0; the others are rounded."""
    k = int(rng.integers(1, 150))
    r = int(rng.integers(k + 1, 2 * k + 20))
    codes = rng.choice(n_classes, k + 1, replace=False)
    half = np.r_[np.full(r, codes[0]), codes[1:]]
    y = np.r_[half, half[::-1]]
    x = np.round(rng.normal(0.0, 1.0, (y.size, 5)), 1)
    x[:, 0] = x[:, 3] = rng.permutation(y.size) * 0.5
    order = np.argsort(x[:, 0])
    y[order] = y.copy()
    return x, y


@pytest.mark.parametrize("n_classes", [300, 450, 600])
def test_entropy_near_ties_equal_per_feature_search(n_classes):
    """Exact ties at 300 to 600 classes take the first minimum, as the
    per-feature search does: mirrored cuts of symmetric class layouts, both
    alone and as one of three segments scored together, each segment with
    its own candidate columns, so that the duplicated column sits in
    another slot with other rows before it; and random symmetric layouts."""
    rng = np.random.default_rng(n_classes)
    for _ in range(8):
        x, y = palindrome_matrix(rng, n_classes)
        assert_same_split(x, y, np.arange(5), n_classes, "entropy")
        rows = np.arange(y.size)
        segments = [rows, rng.permutation(rows), rows]
        columns = np.array([[1, 2, 3], [0, 3, 4], [0, 2, 3]])
        got = segment_splits(x, y, segments, columns, n_classes, "entropy")
        want = [reference_best_split(x, y, ids, n_classes, "entropy")
                for ids in columns]
        assert repr(got) == repr(want)
        # a random palindrome of 2 to 600 rows
        half = rng.integers(0, n_classes, int(rng.integers(1, 301)))
        y = np.r_[half, half[::-1]]
        x = np.c_[np.arange(y.size) * 1.0, np.round(rng.normal(0.0, 1.0, y.size), 1)]
        x = np.c_[x, x[:, 0]]
        assert_same_split(x, y, np.arange(3), n_classes, "entropy")


@pytest.mark.parametrize("family", ["decision-tree", "random-forest"])
def test_ranks_once_per_fold(monkeypatch, family):
    """A tree search ranks the search matrix once for every criterion or
    cap and every fold; the refit ranks once, and the search is the per-spec
    oracle's."""
    shapes, ranks = [], learn._ranks
    monkeypatch.setattr(learn, "_ranks", lambda x: shapes.append(x.shape) or ranks(x))
    x, labels = overlapping(seed=14)
    grid_search(family, DEFAULT_GRIDS[family], x, labels, seed=3)
    assert shapes == [x.shape, x.shape]
    monkeypatch.undo()
    assert_same_search(family, DEFAULT_GRIDS[family], x, labels, seed=3)


def reference_ranks(x):
    """Dense ranks of the whole matrix at once, the expression that column
    blocks replaced."""
    columns = np.ascontiguousarray(x.T)
    order = columns.argsort(axis=1)
    ordered = np.take_along_axis(columns, order, axis=1)
    dense = np.zeros(columns.shape, dtype=np.int64)
    np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1, out=dense[:, 1:])
    ranks = np.empty(columns.shape, dtype=np.min_scalar_type(dense.max(initial=0)))
    np.put_along_axis(ranks, order, dense, axis=1)
    return ranks


@pytest.mark.parametrize("budget", [1, 7, 64, 1 << 15])
def test_blocked_ranks_equal_whole_matrix_ranks(monkeypatch, budget):
    """Column blocks give the values and dtype of ranking the whole matrix:
    ties, -0.0 beside 0.0, one row, no rows, a block of one column, and the
    dtype switch above 256 distinct values, also where more than 256 rows
    hold at most 256 distinct values per column."""
    monkeypatch.setattr(learn, "_CHUNK_ELEMENTS", budget)
    rng = np.random.default_rng(60)
    ties = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], (50, 7))
    distinct = rng.permutation(np.arange(300.0))[:, None]
    matrices = [
        ties,
        ties[:1],
        ties[:0],
        np.round(rng.normal(0.0, 1.0, (40, 9)), 1),
        # 256 and 257 distinct values in one column, ranked in the first
        # block or the last
        np.c_[ties[np.arange(257) % 50], np.r_[np.arange(256.0), 0.0]],
        np.c_[np.arange(257.0), ties[np.arange(257) % 50]],
        np.c_[np.round(rng.normal(0.0, 1.0, (300, 4)), 1), distinct, -distinct],
    ]
    for x in matrices:
        got, want = learn._ranks(x), reference_ranks(x)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert [learn._ranks(x).dtype for x in matrices[3:]] == [
        np.uint8, np.uint8, np.uint16, np.uint16]


TREE_SPECS = [("decision-tree", {"criterion": c, "max_depth": depth})
              for c in ("gini", "entropy") for depth in (None, 3)]
TREE_SPECS += [("random-forest", {"n_estimators": 6, "max_depth": depth})
               for depth in (None, 4)]


@pytest.mark.parametrize("family,hp", TREE_SPECS)
@pytest.mark.parametrize("data", ["overlapping", "rounded"])
def test_trees_equal_per_feature_trees(family, hp, data):
    x, labels = overlapping(n_per_class=15, n_classes=4, d=7, seed=19)
    if data == "rounded":
        x = np.round(x, 0)
        x[:, 3] = x[:, 1]
    model = train(ClassifierSpec(family, hp), x, labels, seed=20)
    classes, y = learn._class_codes(labels)
    if family == "decision-tree":
        want = stack_grow_tree(x, y, len(classes), hp["criterion"],
                               hp["max_depth"], None, None,
                               best_split=reference_best_split)
        assert _node_document(model.tree) == _node_document(want)
    else:
        want = reference_grow_forest(x, y, len(classes), 20, 6, hp["max_depth"],
                                     reference_best_split)
        assert ([_node_document(t) for t in model.forest]
                == [_node_document(t) for t in want])


@pytest.mark.parametrize("max_depth", [None, 4])
def test_entropy_forest_trees_equal_per_feature_trees(max_depth):
    # forests take no criterion; grow forest-style entropy trees directly,
    # on bootstrap rows with 3 of 9 candidates per node
    x, labels = overlapping(n_per_class=15, n_classes=5, d=9, seed=21)
    y = np.array([int(l[2:]) for l in labels])
    rows = [np.random.default_rng(seed).integers(0, y.size, y.size)
            for seed in range(4)]
    got = learn._grow_trees(x, learn._ranks(x), y, 5, "entropy", max_depth,
                            rows, draw_streams([np.random.default_rng(22 + t)
                                                for t in range(4)], 9, 3))
    want = [stack_grow_tree(x, y, 5, "entropy", max_depth,
                            np.random.default_rng(22 + t), 3, rows[t],
                            best_split=reference_best_split) for t in range(4)]
    assert [_node_document(t) for t in got] == [_node_document(t) for t in want]


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
@pytest.mark.parametrize("style", ["decision-tree", "forest"])
def test_row_index_trees_equal_copying_trees(criterion, style):
    rng = np.random.default_rng(30)
    for _ in range(60):
        m, d = int(rng.integers(2, 60)), int(rng.integers(1, 12))
        n_classes = int(rng.integers(2, 8))
        # rounded values, a constant column and a duplicated one
        x, y = awkward_matrix(rng, m, d, n_classes)
        cap = [None, 1, 2, 4][int(rng.integers(0, 4))]
        if style == "decision-tree":
            [got] = learn._grow_trees(x, learn._ranks(x), y, n_classes,
                                      criterion, cap, [np.arange(m)])
            want = reference_grow_tree(x, y, n_classes, criterion, cap, None, None)
        else:
            # bootstrap rows repeat, and sqrt(d) candidates per node
            rows = rng.integers(0, m, m)
            n_candidates = int(np.ceil(np.sqrt(d)))
            seed = int(rng.integers(2 ** 32))
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            [got] = learn._grow_trees(x, learn._ranks(x), y, n_classes,
                                      criterion, cap, [rows],
                                      draw_streams([got_rng], d, n_candidates))
            want = reference_grow_tree(x[rows], y[rows], n_classes, criterion,
                                       cap, want_rng, n_candidates)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert _node_document(got) == _node_document(want)
        assert got.reach == want.reach


# ---------------------------------------------------------------------------
# lockstep growth and batched prediction against the one-tree code

def assert_lockstep_equals_stack(x, y, n_classes, criterion, cap, rows, seeds,
                                 n_candidates, guides=None):
    """``learn._grow_trees`` grows, tree by tree, what the stack grower grows
    from the same rows, generator state and guide, down to the root's reach
    and the generator's state after the draws; returns the lockstep trees.
    Each tree reads a new draw stream on a generator of its own, shared with
    no other growth, guided or not."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    got = learn._grow_trees(x, learn._ranks(x), y, n_classes, criterion, cap,
                            rows, draw_streams(rngs, x.shape[1], n_candidates),
                            None if guides is None else list(guides))
    assert len(got) == len(rows)
    for i, tree in enumerate(got):
        rng = np.random.default_rng(seeds[i])
        want = stack_grow_tree(x, y, n_classes, criterion, cap, rng,
                               n_candidates, rows[i],
                               None if guides is None else guides[i])
        assert _node_document(tree) == _node_document(want)
        assert tree.reach == want.reach
        assert rngs[i].bit_generator.state == rng.bit_generator.state
    return got


def lockstep_data(name):
    if name == "binary":
        return binary(seed=2)
    if name == "duplicates":
        return with_duplicates(seed=6)
    x, labels = overlapping(seed=14)
    return (np.round(x), labels) if name == "rounded" else (x, labels)


@pytest.mark.parametrize("data", ["overlapping", "binary", "duplicates", "rounded"])
@pytest.mark.parametrize("criterion", ["gini", "entropy"])
@pytest.mark.parametrize("n_candidates", [None, 1, 2])
def test_lockstep_trees_equal_stack_trees(data, criterion, n_candidates):
    """Twelve trees on bootstrap rows, grown together at each cap of the
    default forest grid and at cap 1, from the largest cap down, each
    regrowth guided by its tree at the cap above, as the forest fold grows
    them; without candidates the trees draw nothing and pop whole levels."""
    x, labels = lockstep_data(data)
    classes, y = learn._class_codes(labels)
    rng = np.random.default_rng(50)
    rows = [rng.integers(0, y.size, y.size) for _ in range(12)]
    seeds = [int(seed) for seed in rng.integers(0, 2 ** 32, 12)]
    guides = None
    for cap in (None, 25, 15, 10, 5, 3, 1):
        guides = assert_lockstep_equals_stack(x, y, len(classes), criterion, cap,
                                              rows, seeds, n_candidates, guides)
    assert max(tree.reach for tree in guides) == 0  # cap 1 searched roots only


def test_lockstep_growth_property():
    """A batch of trees grows as the stack grower grows each alone, unguided
    at one cap and guided by those trees at a smaller cap."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    hnp = pytest.importorskip("hypothesis.extra.numpy")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(data=st.data(), m=st.integers(1, 30), d=st.integers(1, 5),
                      n_classes=st.integers(2, 5), n_trees=st.integers(1, 5),
                      n_candidates=st.one_of(st.none(), st.integers(1, 4)),
                      criterion=st.sampled_from(["gini", "entropy"]),
                      big=st.one_of(st.none(), st.integers(2, 6)),
                      small=st.integers(1, 5))
    def check(data, m, d, n_classes, n_trees, n_candidates, criterion, big,
              small):
        hypothesis.assume(small < learn._cap(big))
        # few distinct values, signed zeros among them, so nodes often
        # search and find no split; every element drawn (no fill value), so
        # the trees grow several levels
        values = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0])
        x = data.draw(hnp.arrays(np.float64, (m, d), elements=values,
                                 fill=st.nothing()))
        y = data.draw(hnp.arrays(np.int64, m, fill=st.nothing(),
                                 elements=st.integers(0, n_classes - 1)))
        # bootstrap samples: rows repeat
        rows = [data.draw(hnp.arrays(np.int64, m, fill=st.nothing(),
                                     elements=st.integers(0, m - 1)))
                for _ in range(n_trees)]
        seeds = data.draw(st.lists(st.integers(0, 2 ** 32 - 1),
                                   min_size=n_trees, max_size=n_trees))
        full = assert_lockstep_equals_stack(x, y, n_classes, criterion, big,
                                            rows, seeds, n_candidates)
        assert_lockstep_equals_stack(x, y, n_classes, criterion, small, rows,
                                     seeds, n_candidates, full)

    check()


def test_growth_shares_leaves_and_lets_go_of_guides():
    """On distinct values every impure node splits, so every leaf but a
    root is a node the stop tests stopped: the growth's one leaf of its
    label, shared by all its trees. A regrowth empties its list of guides
    and leaves the guide trees as they were."""
    x, labels = overlapping(seed=14)
    assert all(np.unique(column).size == column.size for column in x.T)
    classes, y = learn._class_codes(labels)
    rng = np.random.default_rng(55)
    rows = [rng.integers(0, y.size, y.size) for _ in range(8)]

    def grow(cap, guides=None):
        rngs = [np.random.default_rng(seed) for seed in range(len(rows))]
        return learn._grow_trees(x, learn._ranks(x), y, len(classes), "gini",
                                 cap, rows, draw_streams(rngs, x.shape[1], 2),
                                 guides)

    full = grow(None)
    for trees in (full, grow(3)):
        leaves: dict = {}
        for tree in trees:
            stack = [tree]
            while stack:
                node = stack.pop()
                if node.feature != learn._LEAF:
                    stack += [node.left, node.right]
                elif node is not tree:
                    leaves.setdefault(node.label, set()).add(id(node))
        assert len(leaves) > 1
        assert all(len(ids) == 1 for ids in leaves.values())
    documents = [_node_document(tree) for tree in full]
    guides = list(full)
    regrown = grow(3, guides)
    assert guides == []
    assert [_node_document(tree) for tree in full] == documents
    assert ([_node_document(tree) for tree in regrown]
            == [_node_document(tree) for tree in grow(3)])


def test_batched_prediction_equals_tree_by_tree(monkeypatch):
    """``_tree_predict`` routes rows down many trees at once, each at its
    own cap, as the per-tree predictor routes them: a forest, a leaf-only
    tree, rows sitting exactly on thresholds, and no rows at all; also in
    groups of trees, one tree or a few per group."""
    x, labels = overlapping(seed=51)
    model = train(ClassifierSpec("random-forest", {"n_estimators": 20}), x,
                  labels, seed=52)
    trees = model.forest + [learn._TreeNode(label=2)]
    probe = np.vstack([x, np.random.default_rng(53).normal(0.6, 1.2, (40, 5))])
    # rows on the thresholds of the first tree's upper nodes
    stack = [model.forest[0]]
    while stack and len(probe) < 120:
        node = stack.pop()
        if node.feature != learn._LEAF:
            row = probe[len(probe) % x.shape[0]].copy()
            row[node.feature] = node.threshold
            probe = np.vstack([probe, row])
            stack += [node.left, node.right]
    rng = np.random.default_rng(54)
    caps = [[None, 1, 2, 3, 6, 50][int(i)] for i in rng.integers(0, 6, len(trees))]
    # each tree on rows of its own, repeats and no rows among them
    rows = [rng.integers(0, len(probe), int(size))
            for size in rng.integers(0, 2 * len(probe), len(trees))]
    rows[3] = rows[3][:0]
    for budget in (1, 500, learn._CHUNK_ELEMENTS):
        monkeypatch.setattr(learn, "_CHUNK_ELEMENTS", budget)
        for tree_caps in (caps, None):
            got = learn._tree_predict(trees, probe,
                                      [np.arange(len(probe))] * len(trees),
                                      tree_caps)
            assert got.shape == (len(trees) * len(probe),)
            got = got.reshape(len(trees), len(probe))
            for i, tree in enumerate(trees):
                cap = None if tree_caps is None else tree_caps[i]
                np.testing.assert_array_equal(got[i],
                                              stack_tree_predict(tree, probe, cap))
            got = learn._tree_predict(trees, probe, rows, tree_caps)
            want = [stack_tree_predict(tree, probe[r],
                                       None if tree_caps is None else tree_caps[i])
                    for i, (tree, r) in enumerate(zip(trees, rows))]
            np.testing.assert_array_equal(got, np.concatenate(want))
        assert learn._tree_predict(trees, probe[:0],
                                   [np.arange(0)] * len(trees)).shape == (0,)
        assert learn._tree_predict([], probe, []).shape == (0,)


# ---------------------------------------------------------------------------
# forest trees: per-index seeds and one lineage per tree index

def tree_depths(root):
    """Depth of every split node."""
    depths, stack = [], [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if node.feature != learn._LEAF:
            depths.append(depth)
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
    return depths


def labelled_document(node, classes):
    """``_node_document`` with each leaf's class code replaced by its class."""
    if node.feature == learn._LEAF:
        return {"label": classes[node.label]}
    return {"feature": node.feature, "threshold": node.threshold,
            "left": labelled_document(node.left, classes),
            "right": labelled_document(node.right, classes)}


@pytest.mark.parametrize("n_classes", [2, 10])
@pytest.mark.parametrize("data", ["overlapping", "rounded"])
def test_fold_forests_equal_trained_forests(monkeypatch, n_classes, data):
    """Each fold's forest at each cap, grown in the search's one growth on
    the search's class codes, is the forest that ``train`` fits on the
    fold's training rows, leaf for leaf once codes become classes."""
    x, labels = overlapping(n_per_class=60 // n_classes, n_classes=n_classes,
                            d=9, seed=23)
    if data == "rounded":
        x = np.round(x, 0)
    classes, y = learn._class_codes(labels)
    specs = expand_grid("random-forest", DEFAULT_GRIDS["random-forest"])
    folds = [f for f in stratified_kfold(y, 5, 24) if f.size]
    fold_of = np.empty(y.size, dtype=np.int64)
    for j, fold in enumerate(folds):
        fold_of[fold] = j
    per_fold, calls = record_forest_growth(
        monkeypatch, labels, 24,
        lambda: learn._forest_search(specs, x, y, len(classes), fold_of, 24))
    assert len(calls) == len({cap for grown, _, _ in per_fold
                              for _, cap, _, _ in grown})
    for j, (grown, _, grew) in enumerate(per_fold):
        assert grew == [tree for *_, tree in grown]
        assert len(grown) < 6 * 50  # some caps reused a tree
        assert len(grown) > 50  # some cap cut a tree and regrew it
        rows = np.flatnonzero(fold_of != j)
        fold_labels = [labels[i] for i in rows]
        for cap in (None, 25, 15, 10, 5, 3):
            # the cap's tree t is the last one its lineage grew at this cap
            # or a larger one
            forest = {t: tree for t, grown_cap, _, tree in grown
                      if learn._cap(grown_cap) >= learn._cap(cap)}
            assert sorted(forest) == list(range(50))
            for n in (5, 50):
                spec = ClassifierSpec("random-forest",
                                      {"n_estimators": n, "max_depth": cap})
                model = train(spec, x[rows], fold_labels, seed=24)
                assert ([labelled_document(forest[t], classes) for t in range(n)]
                        == [labelled_document(tree, model.classes)
                            for tree in model.forest])


def reference_grow_forest(x, y, n_classes, seed, n_estimators, max_depth,
                          best_split=node_best_split):
    """Bootstrap gini trees on ceil(sqrt(d)) candidates per split, tree t
    drawing its rows and candidates from ``SeedSequence(seed).spawn(n)[t]``,
    each grown by the stack grower with ``best_split``."""
    n_candidates = int(np.ceil(np.sqrt(x.shape[1])))
    forest = []
    for tree_seed in np.random.SeedSequence(seed).spawn(n_estimators):
        rng = np.random.default_rng(tree_seed)
        rows = rng.integers(0, x.shape[0], size=x.shape[0])
        forest.append(stack_grow_tree(x, y, n_classes, "gini", max_depth, rng,
                                      n_candidates, rows, best_split=best_split))
    return forest


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1])
def test_forests_equal_spawned_seed_forests(seed):
    x, labels = overlapping(n_per_class=8, n_classes=3, d=5, seed=40)
    classes, y = learn._class_codes(labels)
    for cap in (None, 3):
        for n in range(1, 51):
            spec = ClassifierSpec("random-forest", {"n_estimators": n, "max_depth": cap})
            got = model_document(train(spec, x, labels, seed=seed))["forest"]
            want = reference_grow_forest(x, y, len(classes), seed, n, cap)
            assert got == [_node_document(tree) for tree in want]


FOREST_GRIDS = [
    {"max_depth": [4, None, 2], "n_estimators": [3, 8]},  # None in the middle
    {"n_estimators": [6, 2], "max_depth": [2, 6, 3]},  # no uncapped group
    {"n_estimators": [3, 7], "max_depth": [1, 9, None, 5]},
]


@pytest.mark.parametrize("grid", FOREST_GRIDS)
@pytest.mark.parametrize("data", ["overlapping", "failed-fold"])
def test_forest_grid_orders_match_oracle(grid, data):
    x, labels = overlapping(n_per_class=10, n_classes=4, d=6, seed=25)
    if data == "failed-fold":
        # the one-row class sits in fold 0, so that fold trains on one class
        x, labels = x[:11], labels[:11]
        assert (assert_same_failure("random-forest", grid, x, labels, seed=26)
                == "CV fold 0: need at least two classes")
    else:
        assert_same_search("random-forest", grid, x, labels, seed=26)


def test_forest_groups_with_different_tree_counts():
    x, labels = overlapping(n_per_class=10, n_classes=4, d=6, seed=27)
    classes, y = learn._class_codes(labels)
    fold_of = np.empty(y.size, dtype=np.int64)
    for j, fold in enumerate(stratified_kfold(labels, 5, 28)):
        fold_of[fold] = j
    # groups past the first grow more trees than any group before them
    specs = [ClassifierSpec("random-forest", {"n_estimators": n, "max_depth": cap})
             for n, cap in [(3, None), (7, 4), (5, 2), (2, 6), (7, 1), (1, 2)]]
    codes = learn._forest_search(specs, x, y, len(classes), fold_of, 29)
    for j in range(5):
        test, rows = np.flatnonzero(fold_of == j), np.flatnonzero(fold_of != j)
        for spec, spec_codes in zip(specs, codes):
            model = train(spec, x[rows], [labels[i] for i in rows], seed=29)
            np.testing.assert_array_equal(np.array(classes)[spec_codes[test]],
                                          oracle_predict(model, x[test]))


def search_folds(labels, seed):
    """Each row's fold, counting the non-empty folds, as ``grid_search``
    numbers them."""
    fold_of = np.empty(len(labels), dtype=np.int64)
    for j, fold in enumerate(f for f in stratified_kfold(labels, 5, seed) if f.size):
        fold_of[fold] = j
    return fold_of


def forest_search_data(data):
    """(x, labels, extra class) for the search-level forest checks."""
    if data == "lacking-class":
        # one row of EV9: fold 0 tests it, so its training rows lack it
        x, labels = overlapping(n_per_class=10, n_classes=4, d=6, seed=71)
        return np.vstack([x, x[:1] + 0.5]), labels + ["EV9"], None
    if data == "unequal-folds":
        return (*stream_data("accuracy"), None)
    if data == "positive-absent":
        # the positive label is a class of the search that no row holds
        x, labels = overlapping(n_per_class=9, n_classes=3, d=4, seed=72)
        return x, labels, "absent"
    x, labels = overlapping(n_per_class=10, n_classes=4, d=6, seed=73)
    return np.round(x, 1), labels, None


FOREST_SEARCH_GRIDS = ([DEFAULT_GRIDS["random-forest"], *FOREST_GRIDS]
                       + [grid for family, grid in AWKWARD_GRIDS
                          if family == "random-forest"])


@pytest.mark.parametrize("grid", FOREST_SEARCH_GRIDS)
@pytest.mark.parametrize("data", ["rounded", "lacking-class", "unequal-folds",
                                  "positive-absent"])
def test_forest_search_equals_fold_by_fold(grid, data):
    """The search-level forest predictor gives the codes of the per-fold
    path it replaced: each fold on its own matrix, ranks and class codes."""
    x, labels, extra = forest_search_data(data)
    classes, y = learn._class_codes(labels, extra)
    fold_of = search_folds(y, 74)
    if data == "lacking-class":
        assert np.unique(y[fold_of != 0]).size < len(classes)
    if data == "unequal-folds":
        assert len(np.unique(np.bincount(fold_of))) > 1
    specs = expand_grid("random-forest", grid)
    got = learn._forest_search(specs, x, y, len(classes), fold_of, 74)
    want = fold_by_fold_forest(specs, x, y, len(classes), fold_of, 74)
    np.testing.assert_array_equal(got, want)


def test_failing_fold_fails_as_fold_by_fold():
    """A search whose fold 0 trains on one class fails as the per-fold path
    fails, with the same message."""
    # the one-row class sits in fold 0, so that fold trains on one class
    x, labels = overlapping(n_per_class=10, n_classes=2, d=4, seed=75)
    x, labels = x[:11], labels[:11]
    classes, y = learn._class_codes(labels)
    grid = DEFAULT_GRIDS["random-forest"]
    with pytest.raises(TrainingError) as want:
        fold_by_fold_forest(expand_grid("random-forest", grid), x, y,
                            len(classes), search_folds(y, 76), 76)
    with pytest.raises(TrainingError) as got:
        grid_search("random-forest", grid, x, labels, seed=76)
    assert str(got.value) == str(want.value) == "CV fold 0: need at least two classes"


def per_spec_codes(specs, x, y, fold_of, seed):
    """Each spec's predicted class code for every row, fitted by ``train``
    on the rows of the other folds: the per-spec oracle's fits, each fold on
    its own matrix, value ranks and class codes."""
    out = np.empty((len(specs), y.size), dtype=np.int64)
    for i, spec in enumerate(specs):
        for j in range(int(fold_of.max()) + 1):
            model = train(spec, x[fold_of != j], y[fold_of != j], seed)
            out[i, fold_of == j] = oracle_predict(model, x[fold_of == j])
    return out


@pytest.mark.parametrize("family,grid,data", [
    ("random-forest", {"n_estimators": [50], "max_depth": [None, 2]}, (100, 4, 77)),
    ("decision-tree", {"criterion": ["gini"], "max_depth": [None, 2]}, (110, 10, 78)),
    ("decision-tree", {"criterion": ["entropy"], "max_depth": [None, 2]}, (110, 10, 78)),
], ids=["random-forest", "gini", "entropy"])
def test_search_ranks_take_wide_keys_where_fold_ranks_do_not(monkeypatch, family,
                                                              grid, data):
    """At a budget that scores each step in one group, the search matrix's
    ranks give ``_segment_splits`` keys wider than 16 bits while each fold's
    own ranks do not, and both paths give the same codes: the forest's per
    fold path, and a decision tree's per-spec oracle."""
    monkeypatch.setattr(learn, "_CHUNK_ELEMENTS", 1 << 22)
    n_per_class, n_classes, data_seed = data
    x, labels = overlapping(n_per_class=n_per_class, n_classes=n_classes, d=4,
                            seed=data_seed)
    classes, y = learn._class_codes(labels)
    fold_of = search_folds(y, 78)
    specs = expand_grid(family, grid)
    wide, segment_splits = [], learn._segment_splits

    def logged(x, ranks, y, rows, sizes, columns, *args):
        # one group, one chunk of columns: the key spans every segment's
        # ranks on its candidate columns
        seg = np.repeat(np.arange(sizes.size), sizes)
        span = int(ranks[columns[seg].T.astype(np.intp), rows].max()) + 1
        wide.append(sizes.size * span > 1 << 16)
        return segment_splits(x, ranks, y, rows, sizes, columns, *args)

    monkeypatch.setattr(learn, "_segment_splits", logged)
    got = learn._SEARCH_PREDICTORS[family](specs, x, y, len(classes), fold_of, 78)
    assert any(wide)
    wide.clear()
    want = (fold_by_fold_forest(specs, x, y, len(classes), fold_of, 78)
            if family == "random-forest"
            else per_spec_codes(specs, x, y, fold_of, 78))
    assert wide and not any(wide)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("budget", [1, 5, 64, 1 << 20])
def test_cumulative_votes_equal_tree_by_tree(monkeypatch, budget):
    """``_forest_codes`` votes every requested tree count from one running
    count per row chunk, as adding one tree's votes at a time does."""
    monkeypatch.setattr(learn, "_VOTE_ELEMENTS", budget)
    rng = np.random.default_rng(79)
    for n_classes, n_trees, n_rows in [(2, 50, 37), (7, 12, 200), (60, 30, 9),
                                       (3, 1, 1), (4, 6, 0)]:
        # few classes per row, so votes often tie
        codes = rng.integers(0, n_classes, (n_trees, n_rows))
        for sizes in ({n_trees}, {1, n_trees}, set(rng.integers(1, n_trees + 1, 4))):
            got = learn._forest_codes(codes, n_classes, sizes)
            want = forest_votes(list(codes), n_classes, sizes) if n_rows else {
                n: np.empty(0, dtype=np.int64) for n in sizes}
            assert sorted(got) == sorted(want)
            for n in sizes:
                np.testing.assert_array_equal(got[n], want[n])


def test_reach_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    hnp = pytest.importorskip("hypothesis.extra.numpy")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(data=st.data(), m=st.integers(2, 30), d=st.integers(1, 5),
                      n_classes=st.integers(2, 4), n_candidates=st.integers(1, 3),
                      seed=st.integers(0, 2 ** 32 - 1))
    def check(data, m, d, n_classes, n_candidates, seed):
        # few distinct values, so nodes often search and find no split; every
        # element drawn (no fill value), so the trees grow several levels
        values = st.sampled_from([-1.0, 0.0, 0.5, 2.0])
        x = data.draw(hnp.arrays(np.float64, (m, d), elements=values,
                                 fill=st.nothing()))
        y = data.draw(hnp.arrays(np.int64, m, fill=st.nothing(),
                                 elements=st.integers(0, n_classes - 1)))

        def grow(cap):
            rng = np.random.default_rng(seed)
            [tree] = learn._grow_trees(x, learn._ranks(x), y, n_classes, "gini",
                                       cap, [np.arange(m)],
                                       draw_streams([rng], d, n_candidates))
            return tree, rng.bit_generator.state

        full, _ = grow(None)
        assert max(tree_depths(full), default=-1) <= full.reach
        caps = [None, *range(1, full.reach + 3)]
        grown = {cap: grow(cap) for cap in caps}
        for cap, (tree, _) in grown.items():
            assert max(tree_depths(tree), default=-1) <= tree.reach
            assert tree.reach < learn._cap(cap)
        # a tree grown at any cap, with reach under a smaller cap, is the tree
        # grown with that cap, down to the generator state after the draws
        for big, (tree, drawn) in grown.items():
            for cap in caps[1:]:
                if tree.reach < cap <= learn._cap(big):
                    assert _node_document(tree) == _node_document(grown[cap][0])
                    assert drawn == grown[cap][1]

    check()


def test_guided_regrowth_property():
    """A tree regrown at cap d, guided by the same tree grown at a larger cap
    c, is the tree grown at cap d without a guide, down to the generator
    state after the draws."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    hnp = pytest.importorskip("hypothesis.extra.numpy")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(data=st.data(), m=st.integers(2, 30), d=st.integers(1, 5),
                      n_classes=st.integers(2, 4), n_candidates=st.integers(1, 3),
                      seed=st.integers(0, 2 ** 32 - 1))
    def check(data, m, d, n_classes, n_candidates, seed):
        # few distinct values, so nodes often search and find no split; every
        # element drawn (no fill value), so the trees grow several levels
        values = st.sampled_from([-1.0, 0.0, 0.5, 2.0])
        x = data.draw(hnp.arrays(np.float64, (m, d), elements=values,
                                 fill=st.nothing()))
        y = data.draw(hnp.arrays(np.int64, m, fill=st.nothing(),
                                 elements=st.integers(0, n_classes - 1)))
        # a bootstrap sample: rows repeat
        rows = data.draw(hnp.arrays(np.int64, m, fill=st.nothing(),
                                    elements=st.integers(0, m - 1)))

        def grow(cap, guide=None):
            rng = np.random.default_rng(seed)
            [tree] = learn._grow_trees(x, learn._ranks(x), y, n_classes, "gini",
                                       cap, [rows],
                                       draw_streams([rng], d, n_candidates),
                                       [guide])
            return tree, rng.bit_generator.state

        full, _ = grow(None)
        caps = [*range(1, full.reach + 2), None]
        grown = {cap: grow(cap) for cap in caps}
        for big in caps:
            for cap in caps:
                if learn._cap(cap) < learn._cap(big):
                    tree, drawn = grow(cap, grown[big][0])
                    assert _node_document(tree) == _node_document(grown[cap][0])
                    assert tree.reach == grown[cap][0].reach
                    assert drawn == grown[cap][1]

    check()


def test_guided_regrowth_searches_less(monkeypatch):
    """The forest search's regrowths follow their guides, so the search
    makes fewer split searches than regrowing every cut tree from scratch,
    and predicts the same codes."""
    x, labels = overlapping(n_per_class=15, n_classes=4, d=9, seed=31)
    classes, y = learn._class_codes(labels)
    fold_of = np.empty(y.size, dtype=np.int64)
    for j, fold in enumerate(stratified_kfold(labels, 5, 32)):
        fold_of[fold] = j
    specs = expand_grid("random-forest", DEFAULT_GRIDS["random-forest"])
    searches = []
    segment_splits = learn._segment_splits

    def counted(*args):
        searches.append(args[4].size)  # one search per segment
        return segment_splits(*args)

    def search():
        searches.clear()
        codes = learn._forest_search(specs, x, y, len(classes), fold_of, 32)
        return sum(searches), codes

    monkeypatch.setattr(learn, "_segment_splits", counted)
    guided, guided_codes = search()
    grow_trees = learn._grow_trees
    # the same growth with the guides dropped
    monkeypatch.setattr(learn, "_grow_trees", lambda *args: grow_trees(*args[:8]))
    unguided, unguided_codes = search()
    assert guided < unguided
    assert np.array_equal(guided_codes, unguided_codes)


# ---------------------------------------------------------------------------
# forest draw streams, shared by every cap and every fold of one size

@pytest.mark.parametrize("seed,t,n,d", [(0, 0, 1, 1), (5, 3, 17, 5),
                                        (2 ** 32 - 1, 49, 300, 134)])
def test_stream_entries_equal_sorted_choices(seed, t, n, d):
    """Entry k is the k-th sorted ``choice`` after the bootstrap rows on a
    new generator of tree t, in whatever order the entries are read."""
    stream = learn._DrawStream.forest(seed, t, n, d)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
    rows = rng.integers(0, n, size=n)
    n_candidates = math.ceil(math.sqrt(d))
    want = [np.sort(rng.choice(d, size=n_candidates, replace=False))
            for _ in range(40)]
    assert stream.rows.dtype == np.min_scalar_type(n - 1)
    assert np.array_equal(stream.rows, rows)
    assert stream.n_candidates == n_candidates
    for k in [5, 0, 9, 3, 9, 17, 1, 39, 38, 20]:
        got = stream.candidates(k)
        assert got.dtype == np.min_scalar_type(d - 1)
        assert np.array_equal(got, want[k])
    # forty draws made, each once
    assert stream.rng.bit_generator.state == rng.bit_generator.state


class CountingGenerator:
    """A generator that counts its ``choice`` calls in ``calls``."""

    def __init__(self, rng, calls):
        self.rng, self.calls = rng, calls

    def choice(self, *args, **kwargs):
        self.calls["choice"] += 1
        return self.rng.choice(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def count_tree_draws(monkeypatch, search):
    """``search()``'s forest generator derivations and ``choice`` calls."""
    calls = {"derived": 0, "choice": 0}
    default_rng = np.random.default_rng

    def counted(seed=None):
        rng = default_rng(seed)
        if not (isinstance(seed, np.random.SeedSequence) and seed.spawn_key):
            return rng  # not a forest tree's generator
        calls["derived"] += 1
        return CountingGenerator(rng, calls)

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", counted)
        search()
    return calls


def stack_draws(x, y, n_classes, seed, t, cap):
    """The ``choice`` calls of forest tree t grown alone by the stack grower
    on all of ``x`` at ``cap``."""
    calls = {"choice": 0}
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
    rows = rng.integers(0, x.shape[0], size=x.shape[0])
    stack_grow_tree(x, y, n_classes, "gini", cap, CountingGenerator(rng, calls),
                    math.ceil(math.sqrt(x.shape[1])), rows)
    return calls["choice"]


# 52 rows in 4 classes of 13 fall into folds of 12, 12, 12, 8 and 8 rows,
# so three folds train on 40 rows and two on 44
STREAM_GRID = {"n_estimators": [3, 12], "max_depth": [None, 6, 3, 1]}


def stream_data(scoring):
    x, labels = overlapping(n_per_class=13, n_classes=4, d=6, seed=61)
    if scoring == "f1-positive":
        labels = ["target" if l == "EV0" else "other" for l in labels]
    return x, labels


@pytest.mark.parametrize("scoring,extra", SCORINGS)
def test_streams_shared_by_folds_of_one_size_match_oracle(scoring, extra):
    x, labels = stream_data(scoring)
    sizes = [len(labels) - f.size for f in stratified_kfold(labels, 5, 62)]
    assert 1 < len(set(sizes)) < len(sizes)
    for grid in (STREAM_GRID, DEFAULT_GRIDS["random-forest"]):
        assert_same_search("random-forest", grid, x, labels, seed=62, **extra)


def test_each_draw_once_per_search(monkeypatch):
    """One search derives each forest tree's generator once per (training
    size, tree index) and draws each node's candidates once per (training
    size, tree index, node), for every cap and every fold of that size, and
    the refit on its own; a second search makes the same calls, so nothing
    outlives a search."""
    x, labels = stream_data("accuracy")
    classes, y = learn._class_codes(labels)
    seed, caps = 62, STREAM_GRID["max_depth"]
    trees = max(STREAM_GRID["n_estimators"])
    result = grid_search("random-forest", STREAM_GRID, x, labels, seed=seed)
    # the nodes a lineage draws for: those of its most drawing cap, and of
    # its most drawing fold among folds of one size
    positions, per_fold = {}, 0
    for fold in stratified_kfold(labels, 5, seed):
        train_rows = np.setdiff1d(np.arange(len(labels)), fold)
        fx, fy = x[train_rows], learn._class_codes(y[train_rows])[1]
        for t in range(trees):
            drawn = max(stack_draws(fx, fy, int(fy.max()) + 1, seed, t, cap)
                        for cap in caps)
            per_fold += drawn
            key = (train_rows.size, t)
            positions[key] = max(positions.get(key, 0), drawn)
    best_n = result.best_spec.param("n_estimators")
    best_cap = result.best_spec.param("max_depth")
    refit = [stack_draws(x, y, len(classes), seed, t, best_cap)
             for t in range(best_n)]
    want = {"derived": len(positions) + best_n,
            "choice": sum(positions.values()) + sum(refit)}
    # folds of one size share draws on this data
    assert sum(positions.values()) < per_fold

    def search():
        assert grid_search("random-forest", STREAM_GRID, x, labels,
                           seed=seed).best_spec == result.best_spec

    assert count_tree_draws(monkeypatch, search) == want
    assert count_tree_draws(monkeypatch, search) == want
