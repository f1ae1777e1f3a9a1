"""The one-node tree code that lockstep growth replaced, and the per-fold
forest search that search-level growth replaced, kept as oracles.

``stack_grow_tree`` grows one tree depth first from an explicit stack, one
split search per node, right child first; ``node_best_split`` is that search,
one pass over a node's candidate columns; ``stack_tree_predict`` routes the
rows of one tree node by node. ``learn._grow_trees``, ``learn._segment_splits``
and ``learn._tree_predict`` must give exactly what these give: the same trees
down to each root's reach and each generator's state, the same splits and the
same codes.

``fold_by_fold_forest`` is the forest search one CV fold at a time, each fold
on its own training matrix, value ranks and class codes, through
``forest_fold``; ``forest_votes`` is its vote, one tree at a time.
``learn._forest_search`` and ``learn._forest_codes`` must give exactly what
these give.
"""

from typing import Optional

import numpy as np

import evprofiler.learn as learn

# Upper bound on the elements of one node search's per-column scratch arrays
# (rows x columns, times classes for entropy's one-hot).
CHUNK_ELEMENTS = 1 << 15


def reference_entropy(counts, total):
    p = counts / total[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log2(p), 0.0)
    return -np.sum(terms, axis=-1)


def node_cut_costs(ys, change, totals, within, criterion):
    """Weighted child impurity of each cut, inf where no threshold falls.

    Row j of ``ys`` holds the node's class codes in ascending order of
    candidate column j's values. The cut after position k sends the first
    k + 1 of them left; ``change[j, k]`` says whether the value changes
    there, and only such cuts are scored. With the node's rows listed by
    class, ``within[i]`` counts the rows of row i's class before it.
    """
    w, m = ys.shape
    p = np.arange(1.0, m)
    if criterion == "gini":
        by_class = ys.argsort(axis=1, kind="stable")
        steps = np.empty((w, m), dtype=np.int64)
        steps[np.arange(w)[:, None], by_class] = 2 * within + 1
        a = steps.cumsum(axis=1)[:, :-1].astype(np.float64)
        left_dot = totals[ys].cumsum(axis=1)[:, :-1]
        t2 = float(totals @ totals)
        right_sq = t2 - 2.0 * left_dot + a
        return np.where(change, (m - a / p - right_sq / (m - p)) / m, np.inf)
    cols, rows = np.nonzero(change)
    onehot = np.zeros((w, m, totals.size))
    onehot[np.arange(w)[:, None], np.arange(m), ys] = 1.0
    left_counts = onehot.cumsum(axis=1)[cols, rows]
    left_n = p[rows]
    right_n = m - left_n
    cost = np.full((w, m - 1), np.inf)
    cost[cols, rows] = (left_n * reference_entropy(left_counts, left_n)
                        + right_n * reference_entropy(totals - left_counts, right_n)
                        ) / m
    return cost


def node_best_split(x, y, feature_ids, n_classes, criterion):
    """One node's lowest weighted child impurity over midpoint thresholds,
    as (feature, threshold) or None: one unstable sort per candidate column,
    costs where the sorted value changes, the first minimum per column and
    the first column minimum, in chunks of columns."""
    m = y.size
    totals = np.bincount(y, minlength=n_classes)
    within = np.arange(m) - (totals.cumsum() - totals).repeat(totals)
    y = y.astype(np.min_scalar_type(n_classes - 1))
    per_column = m * (n_classes if criterion == "entropy" else 1)
    width = max(1, CHUNK_ELEMENTS // per_column)
    best = None
    best_cost = np.inf
    for start in range(0, feature_ids.size, width):
        ids = feature_ids[start:start + width]
        column = np.arange(ids.size)
        block = x.T[ids]
        order = block.argsort(axis=1)
        values = block[column[:, None], order]
        change = values[:, 1:] != values[:, :-1]
        if not change.any():
            continue
        cost = node_cut_costs(y[order], change, totals, within, criterion)
        cut = cost.argmin(axis=1)
        column_cost = cost[column, cut]
        j = int(column_cost.argmin())
        if column_cost[j] < best_cost:
            best_cost = column_cost[j]
            i = cut[j]
            best = (int(ids[j]), float((values[j, i] + values[j, i + 1]) / 2.0))
    return best


def stack_grow_tree(x, y, n_classes, criterion, max_depth, rng, n_candidates,
                    rows=None, guide=None, best_split=node_best_split):
    """Grow one tree on the rows ``rows`` of ``x`` and ``y`` (all rows by
    default, repeats allowed), one node per pop; the root's ``reach`` records
    how deep growth searched.

    ``rng`` is drawn from only at nodes that pass the stop tests. ``guide``,
    if given, is this tree grown from the same rows and generator state at a
    larger cap: its splits are taken without searching until this cap first
    stops a node that the guide searched. ``best_split`` scores one node.
    """
    d = x.shape[1]
    drawing = n_candidates is not None and n_candidates < d
    columns = np.arange(n_candidates if drawing else d)
    root = learn._TreeNode()
    stack = [(root, np.arange(x.shape[0]) if rows is None else rows, 0, guide)]
    while stack:
        node, idx, depth, twin = stack.pop()
        ny = y[idx]
        counts = np.bincount(ny, minlength=n_classes)
        node.label = int(np.argmax(counts))
        if np.count_nonzero(counts) <= 1 or ny.size < 2:
            continue
        if max_depth is not None and depth >= max_depth:
            # the guide searched here, so its later draws run ahead of ours
            guide = None
            continue
        root.reach = max(root.reach, depth)
        if drawing:
            drawn = rng.choice(d, size=n_candidates, replace=False)
        if guide is not None:
            if twin.feature == learn._LEAF:
                continue
            node.feature, node.threshold = twin.feature, twin.threshold
            column = x[idx, node.feature]
            twins = (twin.left, twin.right)
        else:
            if drawing:
                feature_ids = np.sort(drawn)
                block = x[idx[:, None], feature_ids]
            else:
                feature_ids, block = columns, x[idx]
            split = best_split(block, ny, columns, n_classes, criterion)
            if split is None:
                continue
            j, node.threshold = split
            node.feature = int(feature_ids[j])
            column = block[:, j]
            twins = (None, None)
        mask = column <= node.threshold
        node.left, node.right = learn._TreeNode(), learn._TreeNode()
        stack.append((node.left, idx[mask], depth + 1, twins[0]))
        stack.append((node.right, idx[~mask], depth + 1, twins[1]))
    return root


def stack_tree_predict(node, x, max_depth: Optional[int] = None):
    """Leaf class codes per row of one tree, node by node; a node at depth
    ``max_depth`` answers with its own label."""
    out = np.empty(x.shape[0], dtype=np.int64)
    stack = [(node, np.arange(x.shape[0]), 0)]
    while stack:
        cur, idx, depth = stack.pop()
        if idx.size == 0:
            continue
        if cur.feature == learn._LEAF or (max_depth is not None and depth >= max_depth):
            out[idx] = cur.label
            continue
        mask = x[idx, cur.feature] <= cur.threshold
        stack.append((cur.left, idx[mask], depth + 1))
        stack.append((cur.right, idx[~mask], depth + 1))
    return out


def forest_votes(tree_codes, n_classes, sizes):
    """Majority-vote class codes of the first n trees, for each n in
    ``sizes``, adding one tree's votes at a time; vote ties go to the lowest
    class code."""
    rows = np.arange(tree_codes[0].size)
    votes = np.zeros((rows.size, n_classes), dtype=np.int64)
    out = {}
    for n, codes in enumerate(tree_codes[:max(sizes)], 1):
        votes[rows, codes] += 1
        if n in sizes:
            out[n] = np.argmax(votes, axis=1)
    return out


def forest_fold(specs, x_train, y_train, x_test, seed, streams):
    """The fitted classes, and per spec the test rows' predicted indices
    into them, of one fold's forests, from one lineage of trees per tree
    index: the caps go from the largest down, and a cap regrows, guided by
    it, each lineage tree whose reach it cuts. ``streams`` holds the draw
    streams of the search."""
    x, classes, y = learn._training_codes(x_train, y_train)
    ranks = learn._ranks(x)
    everyone = np.arange(y.size, dtype=np.min_scalar_type(y.size - 1))
    groups = sorted(learn._group(specs, "max_depth"),
                    key=lambda members: -learn._cap(specs[members[0]].param("max_depth")))
    trees: list = [None] * max(spec.param("n_estimators") for spec in specs)
    predicted: list = [None] * len(trees)
    out: list = [None] * len(specs)
    for members in groups:
        cap = specs[members[0]].param("max_depth")
        group_sizes = [specs[i].param("n_estimators") for i in members]
        regrow = [t for t in range(max(group_sizes))
                  if trees[t] is None or trees[t].reach >= learn._cap(cap)]
        grown = learn._forest_trees(x, ranks, y, len(classes), seed,
                                    [(t, everyone) for t in regrow], cap,
                                    streams, [trees[t] for t in regrow])
        for t, tree in zip(regrow, grown):
            trees[t], predicted[t] = tree, stack_tree_predict(tree, x_test)
        votes = forest_votes(predicted, len(classes), set(group_sizes))
        for i, n in zip(members, group_sizes):
            out[i] = votes[n]
    return classes, out


def fold_by_fold_forest(specs, x, y, n_classes, fold_of, seed):
    """The forest search predictor's specs x rows codes, one fold after
    another through ``forest_fold``; a fold that cannot be fitted raises
    ``TrainingError("CV fold j: ...")``."""
    streams: dict = {}
    out = np.empty((len(specs), y.size), dtype=np.int64)
    for j in range(int(fold_of.max()) + 1):
        test = np.flatnonzero(fold_of == j)
        train_rows = np.flatnonzero(fold_of != j)
        try:
            classes, codes = forest_fold(specs, x[train_rows], y[train_rows],
                                         x[test], seed, streams)
        except learn.TrainingError as exc:
            raise learn.TrainingError(f"CV fold {j}: {exc}") from exc
        out[:, test] = np.take(classes, np.stack(codes))
    return out
