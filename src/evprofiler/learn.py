"""From-scratch classifiers (kNN, decision tree, random forest), stratified
splitting, grid search with k-fold cross-validation, and metrics.

Everything is deterministic for a given (data, spec, seed): tie-breaking is
lexicographic on class labels, first-encountered on split costs and grid
order, and forest tree seeds derive from the training seed by tree index.
Grid search shares fits across combinations (one forest per depth, one tree
per criterion, one distance matrix per metric) with unchanged scores.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

FAMILIES = ("knn", "decision-tree", "random-forest")

# Table of hyper-parameter grids used for grid-search optimization.
DEFAULT_GRIDS = {
    "random-forest": {"n_estimators": [5, 10, 15, 20, 30, 50],
                      "max_depth": [None, 3, 5, 10, 15, 25]},
    "knn": {"n_neighbors": [3, 5, 7, 9, 11, 13, 15],
            "metric": ["euclidean", "manhattan", "cosine"],
            "weights": ["uniform", "distance"]},
    "decision-tree": {"criterion": ["gini", "entropy"],
                      "max_depth": [None, 6, 10, 18]},
}

_LEGAL_PARAMS = {
    "knn": {"n_neighbors", "metric", "weights"},
    "decision-tree": {"criterion", "max_depth"},
    "random-forest": {"n_estimators", "max_depth"},
}


class TrainingError(ValueError):
    pass


@dataclass(frozen=True)
class ClassifierSpec:
    family: str
    hyperparameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        unknown = set(self.hyperparameters) - _LEGAL_PARAMS[self.family]
        if unknown:
            raise ValueError(f"unknown hyperparameters for {self.family}: {sorted(unknown)}")
        hp = self.hyperparameters
        if self.family == "knn":
            if hp.get("n_neighbors", 5) < 1:
                raise ValueError("n_neighbors must be >= 1")
            if hp.get("metric", "euclidean") not in ("euclidean", "manhattan", "cosine"):
                raise ValueError("bad knn metric")
            if hp.get("weights", "uniform") not in ("uniform", "distance"):
                raise ValueError("bad knn weights")
        else:
            if hp.get("criterion", "gini") not in ("gini", "entropy"):
                raise ValueError("bad criterion")
            depth = hp.get("max_depth")
            if depth is not None and depth < 1:
                raise ValueError("max_depth must be None or >= 1")
            if self.family == "random-forest" and hp.get("n_estimators", 10) < 1:
                raise ValueError("n_estimators must be >= 1")


# ---------------------------------------------------------------------------
# decision tree

_LEAF = -1


def _entropy(counts: np.ndarray, total: np.ndarray) -> np.ndarray:
    p = counts / total[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log2(p), 0.0)
    return -np.sum(terms, axis=-1)


def _cumcount(codes: np.ndarray) -> np.ndarray:
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


def _gini_cut_costs(y_sorted: np.ndarray, cut: np.ndarray, m: int) -> np.ndarray:
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


def _entropy_cut_costs(y_sorted: np.ndarray, cut: np.ndarray, m: int,
                       n_classes: int) -> np.ndarray:
    onehot = np.zeros((m, n_classes))
    onehot[np.arange(m), y_sorted] = 1.0
    total_counts = onehot.sum(axis=0)
    left_counts = np.cumsum(onehot, axis=0)[cut]
    left_n = (cut + 1).astype(np.float64)
    right_n = m - left_n
    return (left_n * _entropy(left_counts, left_n)
            + right_n * _entropy(total_counts - left_counts, right_n)) / m


def _best_split(x: np.ndarray, y: np.ndarray, feature_ids: np.ndarray,
                n_classes: int, criterion: str):
    """Lowest weighted child impurity over midpoint thresholds.

    Returns (feature, threshold) or None; ties keep the earliest feature in
    ``feature_ids`` order and the smallest threshold.
    """
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


@dataclass
class _TreeNode:
    feature: int = _LEAF
    threshold: float = 0.0
    label: int = 0
    left: Optional["_TreeNode"] = None
    right: Optional["_TreeNode"] = None


def _grow_tree(x: np.ndarray, y: np.ndarray, n_classes: int, criterion: str,
               max_depth: Optional[int], rng: Optional[np.random.Generator],
               n_candidates: Optional[int]) -> _TreeNode:
    root = _TreeNode()
    # explicit stack instead of recursion: unlimited-depth trees can exceed
    # the interpreter recursion limit on large nodes
    stack: list[tuple[_TreeNode, np.ndarray, np.ndarray, int]] = [(root, x, y, 0)]
    while stack:
        node, nx, ny, depth = stack.pop()
        counts = np.bincount(ny, minlength=n_classes)
        node.label = int(np.argmax(counts))
        if (np.count_nonzero(counts) <= 1 or ny.size < 2
                or (max_depth is not None and depth >= max_depth)):
            continue
        d = nx.shape[1]
        if n_candidates is not None and n_candidates < d:
            feature_ids = np.sort(rng.choice(d, size=n_candidates, replace=False))
        else:
            feature_ids = np.arange(d)
        split = _best_split(nx, ny, feature_ids, n_classes, criterion)
        if split is None:
            continue
        node.feature, node.threshold = split
        mask = nx[:, node.feature] <= node.threshold
        node.left, node.right = _TreeNode(), _TreeNode()
        stack.append((node.left, nx[mask], ny[mask], depth + 1))
        stack.append((node.right, nx[~mask], ny[~mask], depth + 1))
    return root


def _tree_predict(node: _TreeNode, x: np.ndarray,
                  max_depth: Optional[int] = None) -> np.ndarray:
    """Leaf class codes per row.

    With ``max_depth``, a node at that depth answers with its own label. A
    tree grown with that cap is the full tree cut there, so this predicts
    exactly what the capped tree would.
    """
    out = np.empty(x.shape[0], dtype=np.int64)
    stack = [(node, np.arange(x.shape[0]), 0)]
    while stack:
        cur, idx, depth = stack.pop()
        if idx.size == 0:
            continue
        if cur.feature == _LEAF or (max_depth is not None and depth >= max_depth):
            out[idx] = cur.label
            continue
        mask = x[idx, cur.feature] <= cur.threshold
        stack.append((cur.left, idx[mask], depth + 1))
        stack.append((cur.right, idx[~mask], depth + 1))
    return out


def _forest_codes(forest: Sequence[_TreeNode], x: np.ndarray, n_classes: int,
                  sizes: set) -> dict[int, np.ndarray]:
    """Majority-vote class codes of the first ``n`` trees, for each n in
    ``sizes``; vote ties go to the lowest class code."""
    rows = np.arange(x.shape[0])
    votes = np.zeros((x.shape[0], n_classes), dtype=np.int64)
    out = {}
    for n, tree in enumerate(forest[:max(sizes)], 1):
        votes[rows, _tree_predict(tree, x)] += 1
        if n in sizes:
            out[n] = np.argmax(votes, axis=1)
    return out


# ---------------------------------------------------------------------------
# trained model

@dataclass
class TrainedModel:
    spec: ClassifierSpec
    classes: tuple[str, ...]
    seed: int
    # exactly one of the following is populated, per family
    knn_x: Optional[np.ndarray] = None
    knn_y: Optional[np.ndarray] = None
    tree: Optional[_TreeNode] = None
    forest: Optional[list] = None


def train(spec: ClassifierSpec, x: np.ndarray, labels: Sequence[str],
          seed: int = 0) -> TrainedModel:
    """Fit one classifier; a forest's trees see ceil(sqrt(d)) features per split."""
    x = np.asarray(x, dtype=np.float64)
    labels = list(labels)
    if x.ndim != 2 or x.shape[0] != len(labels) or x.shape[0] == 0:
        raise TrainingError("matrix must be rectangular with one label per row")
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise TrainingError("need at least two classes")
    if x.shape[0] < len(classes):
        raise TrainingError("need at least as many rows as classes")
    lookup = {c: i for i, c in enumerate(classes)}
    y = np.array([lookup[l] for l in labels])
    model = TrainedModel(spec=spec, classes=classes, seed=seed)
    hp = spec.hyperparameters
    if spec.family == "knn":
        model.knn_x = x.copy()
        model.knn_y = y
    elif spec.family == "decision-tree":
        model.tree = _grow_tree(x, y, len(classes), hp.get("criterion", "gini"),
                                hp.get("max_depth"), None, None)
    else:
        n_estimators = hp.get("n_estimators", 10)
        n_candidates = int(np.ceil(np.sqrt(x.shape[1])))
        seeds = np.random.SeedSequence(seed).spawn(n_estimators)
        model.forest = []
        for tree_seed in seeds:
            rng = np.random.default_rng(tree_seed)
            rows = rng.integers(0, x.shape[0], size=x.shape[0])
            model.forest.append(_grow_tree(
                x[rows], y[rows], len(classes), hp.get("criterion", "gini"),
                hp.get("max_depth"), rng, n_candidates))
    return model


def _distances(metric: str, queries: np.ndarray, train_x: np.ndarray) -> np.ndarray:
    if metric == "euclidean":
        sq = (np.sum(queries ** 2, axis=1)[:, None]
              + np.sum(train_x ** 2, axis=1)[None, :]
              - 2.0 * queries @ train_x.T)
        return np.sqrt(np.maximum(sq, 0.0))
    if metric == "manhattan":
        out = np.empty((queries.shape[0], train_x.shape[0]))
        for i, row in enumerate(queries):
            out[i] = np.sum(np.abs(train_x - row), axis=1)
        return out
    # cosine distance = 1 - cosine similarity; zero vectors are distance 1
    qn = np.linalg.norm(queries, axis=1)
    tn = np.linalg.norm(train_x, axis=1)
    sim = queries @ train_x.T
    with np.errstate(divide="ignore", invalid="ignore"):
        sim = sim / (qn[:, None] * tn[None, :])
    sim[~np.isfinite(sim)] = 0.0
    return 1.0 - sim


def _neighbours(model: TrainedModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances from each query to the training rows, and the training rows
    in stable nearest-first order."""
    if x.shape[1] != model.knn_x.shape[1]:
        raise ValueError("query columns do not match the training matrix")
    dist = _distances(model.spec.hyperparameters.get("metric", "euclidean"),
                      x, model.knn_x)
    return dist, np.argsort(dist, axis=1, kind="stable")


def _knn_vote_params(model: TrainedModel) -> tuple[int, bool]:
    """(neighbours that vote, whether votes are distance-weighted)."""
    hp = model.spec.hyperparameters
    return (min(hp.get("n_neighbors", 5), model.knn_x.shape[0]),
            hp.get("weights", "uniform") == "distance")


def _knn_codes(dist: np.ndarray, nearest: np.ndarray, train_y: np.ndarray,
               n_classes: int, ks: set, weighted: bool) -> dict[int, np.ndarray]:
    """Vote winners among the k nearest neighbours, for each k in ``ks``.

    Votes are added neighbour by neighbour in rank order, so the running sum
    at rank k is bit-identical to a bincount over the first k. Under distance
    weights, a prefix that holds exact-zero distances counts only those
    neighbours. Vote ties go to the lowest class code.
    """
    rows = np.arange(dist.shape[0])
    votes = np.zeros((dist.shape[0], n_classes))
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
            out[rank + 1] = np.argmax(final, axis=1)
    return out


def _decode(classes: tuple[str, ...], codes: np.ndarray) -> np.ndarray:
    return np.array([classes[c] for c in codes])


def predict(model: TrainedModel, x: np.ndarray) -> np.ndarray:
    """Predicted labels for each row; deterministic tie-breaking throughout."""
    x = np.asarray(x, dtype=np.float64)
    n_classes = len(model.classes)
    if model.spec.family == "knn":
        dist, nearest = _neighbours(model, x)
        k, weighted = _knn_vote_params(model)
        codes = _knn_codes(dist, nearest, model.knn_y, n_classes, {k}, weighted)[k]
    elif model.spec.family == "decision-tree":
        codes = _tree_predict(model.tree, x)
    else:
        n = len(model.forest)
        codes = _forest_codes(model.forest, x, n_classes, {n})[n]
    return _decode(model.classes, codes)


# ---------------------------------------------------------------------------
# splits and folds

class SplitError(ValueError):
    pass


def _round_half_up(v: float) -> int:
    return int(np.floor(v + 0.5))


def stratified_split(labels: Sequence[str], test_fraction: float = 0.2,
                     seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Per-class shuffled split; test count = round(n * fraction), at least 1."""
    labels = list(labels)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5F11]))
    train_idx, test_idx = [], []
    for cls in sorted(set(labels)):
        idx = np.array([i for i, l in enumerate(labels) if l == cls])
        if idx.size < 2:
            raise SplitError(f"class {cls!r} has fewer than 2 rows")
        rng.shuffle(idx)
        n_test = min(max(1, _round_half_up(idx.size * test_fraction)), idx.size - 1)
        test_idx.extend(idx[:n_test])
        train_idx.extend(idx[n_test:])
    return np.array(sorted(train_idx)), np.array(sorted(test_idx))


def stratified_kfold(labels: Sequence[str], k: int = 5,
                     seed: int = 0) -> list[np.ndarray]:
    """k disjoint folds; per-class counts across folds differ by at most 1."""
    if k < 2:
        raise ValueError("k must be >= 2")
    labels = list(labels)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF01D]))
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in sorted(set(labels)):
        idx = np.array([i for i, l in enumerate(labels) if l == cls])
        if idx.size < k:
            warnings.warn(f"class {cls!r} has fewer rows ({idx.size}) than folds ({k})")
        rng.shuffle(idx)
        for j, row in enumerate(idx):
            folds[j % k].append(int(row))
    return [np.array(sorted(f)) for f in folds]


# ---------------------------------------------------------------------------
# metrics

@dataclass(frozen=True)
class MetricsReport:
    labels: tuple[str, ...]
    confusion: np.ndarray  # rows true, columns predicted
    accuracy: float
    precision: dict
    recall: dict
    f1: dict
    macro_f1: float
    positive_f1: Optional[float] = None


def score_predictions(y_true: Sequence[str], y_pred: Sequence[str],
                      mode: str = "multiclass",
                      positive_label: Optional[str] = None) -> MetricsReport:
    labels = tuple(sorted(set(y_true) | set(y_pred)))
    lookup = {l: i for i, l in enumerate(labels)}
    confusion = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        confusion[lookup[t], lookup[p]] += 1
    accuracy = float(np.trace(confusion) / confusion.sum())
    precision, recall, f1 = {}, {}, {}
    for i, lab in enumerate(labels):
        tp = confusion[i, i]
        p_den = confusion[:, i].sum()
        r_den = confusion[i, :].sum()
        p = tp / p_den if p_den else 0.0
        r = tp / r_den if r_den else 0.0
        precision[lab], recall[lab] = float(p), float(r)
        f1[lab] = float(2 * p * r / (p + r)) if (p + r) else 0.0
    macro = float(np.mean([f1[l] for l in labels]))
    positive = None
    if mode == "binary":
        if positive_label is None:
            raise ValueError("binary mode needs a positive_label")
        positive = f1.get(positive_label, 0.0)
    return MetricsReport(labels, confusion, accuracy, precision, recall,
                         f1, macro, positive)


# ---------------------------------------------------------------------------
# grid search

@dataclass(frozen=True)
class CvCell:
    spec: ClassifierSpec
    fold: int
    score: float
    error: str = ""


@dataclass(frozen=True)
class GridSearchResult:
    best_spec: ClassifierSpec
    model: TrainedModel
    best_score: float
    table: tuple[CvCell, ...]


def expand_grid(family: str, grid: dict) -> list[ClassifierSpec]:
    """Cartesian product in the grid's key order (first key varies slowest)."""
    keys = list(grid)
    combos = itertools.product(*(grid[k] for k in keys))
    return [ClassifierSpec(family, dict(zip(keys, values))) for values in combos]


def _group(specs: Sequence[ClassifierSpec], param: str, default) -> list[list[int]]:
    """Spec indices grouped by one hyper-parameter's value, first seen first."""
    groups: dict = {}
    for i, spec in enumerate(specs):
        groups.setdefault(spec.hyperparameters.get(param, default), []).append(i)
    return list(groups.values())


# A fold predictor takes (specs, train x, train labels, test x, seed) and
# returns, per spec, its predicted test labels or the TrainingError its fit
# raised. Each one fits as little as the grid allows.

def _knn_fold(specs, x_train, y_train, x_test, seed) -> list:
    """One distance matrix and one neighbour ranking per metric.

    ``train`` still runs once per spec: for kNN it is only a copy, and a
    failure stays with its own combination.
    """
    out: list = [None] * len(specs)
    for members in _group(specs, "metric", "euclidean"):
        ref, params = None, {}
        for i in members:
            try:
                model = train(specs[i], x_train, y_train, seed)
            except TrainingError as exc:
                out[i] = exc
                continue
            params[i] = _knn_vote_params(model)
            if ref is None:
                ref = model
        if ref is None:
            continue
        dist, nearest = _neighbours(ref, x_test)
        codes = {w: _knn_codes(dist, nearest, ref.knn_y, len(ref.classes),
                               {k for k, v in params.values() if v == w}, w)
                 for w in {w for _, w in params.values()}}
        for i, (k, w) in params.items():
            out[i] = _decode(ref.classes, codes[w][k])
    return out


def _tree_fold(specs, x_train, y_train, x_test, seed) -> list:
    """One unlimited-depth tree per criterion, predicted at each depth cap."""
    out: list = [None] * len(specs)
    for members in _group(specs, "criterion", "gini"):
        full = ClassifierSpec("decision-tree", {**specs[members[0]].hyperparameters,
                                                "max_depth": None})
        try:
            model = train(full, x_train, y_train, seed)
        except TrainingError as exc:
            for i in members:
                out[i] = exc
            continue
        for i in members:
            codes = _tree_predict(model.tree, x_test,
                                  specs[i].hyperparameters.get("max_depth"))
            out[i] = _decode(model.classes, codes)
    return out


def _forest_fold(specs, x_train, y_train, x_test, seed) -> list:
    """One forest per depth, as large as the depth's largest tree count.

    Tree seeds come from ``SeedSequence(seed).spawn(n)``, whose first k
    children are ``spawn(k)``, so the first k trees are the k-tree forest.
    """
    out: list = [None] * len(specs)
    for members in _group(specs, "max_depth", None):
        sizes = [specs[i].hyperparameters.get("n_estimators", 10) for i in members]
        try:
            model = train(specs[members[int(np.argmax(sizes))]],
                          x_train, y_train, seed)
        except TrainingError as exc:
            for i in members:
                out[i] = exc
            continue
        codes = _forest_codes(model.forest, x_test, len(model.classes), set(sizes))
        for i, n in zip(members, sizes):
            out[i] = _decode(model.classes, codes[n])
    return out


_FOLD_PREDICTORS = {"knn": _knn_fold, "decision-tree": _tree_fold,
                    "random-forest": _forest_fold}


def grid_search(family: str, grid: dict, x: np.ndarray, labels: Sequence[str],
                k: int = 5, scoring: str = "accuracy", seed: int = 0,
                positive_label: Optional[str] = None) -> GridSearchResult:
    """Best grid combination by mean k-fold CV score, refitted on all rows.

    Each fold shares fits across the grid; the scores equal fitting every
    combination on its own. A combination whose training fails scores -inf
    at that fold and skips its later folds instead of aborting the search;
    ties keep the earliest grid combination.
    """
    if scoring not in ("accuracy", "f1-positive"):
        raise ValueError(f"unknown scoring {scoring!r}")
    if scoring == "f1-positive" and positive_label is None:
        raise ValueError("f1-positive scoring needs a positive_label")
    if not grid:
        raise ValueError("empty grid")
    specs = expand_grid(family, grid)
    x = np.asarray(x, dtype=np.float64)
    labels = list(labels)
    mode = "binary" if scoring == "f1-positive" else "multiclass"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        folds = stratified_kfold(labels, k, seed)
    all_rows = np.arange(len(labels))
    cells: list[list[CvCell]] = [[] for _ in specs]
    live = list(range(len(specs)))
    for fold_id, fold in enumerate(folds):
        if fold.size == 0 or not live:
            continue
        train_rows = np.setdiff1d(all_rows, fold)
        y_test = [labels[i] for i in fold]
        outcomes = _FOLD_PREDICTORS[family](
            [specs[i] for i in live], x[train_rows],
            [labels[i] for i in train_rows], x[fold], seed)
        failed = set()
        for i, outcome in zip(live, outcomes):
            if isinstance(outcome, TrainingError):
                cells[i].append(CvCell(specs[i], fold_id, -np.inf, str(outcome)))
                failed.add(i)
                continue
            report = score_predictions(y_test, list(outcome), mode, positive_label)
            score = report.positive_f1 if scoring == "f1-positive" else report.accuracy
            cells[i].append(CvCell(specs[i], fold_id, score))
        live = [i for i in live if i not in failed]
    best_spec, best_mean = None, -np.inf
    for i, spec in enumerate(specs):
        scores = [cell.score for cell in cells[i]]
        mean = -np.inf if i not in live or not scores else float(np.mean(scores))
        if mean > best_mean:
            best_mean, best_spec = mean, spec
    if best_spec is None or not np.isfinite(best_mean):
        best_spec = specs[0]
    model = train(best_spec, x, labels, seed)
    table = tuple(cell for spec_cells in cells for cell in spec_cells)
    return GridSearchResult(best_spec, model, best_mean, table)
