"""From-scratch classifiers (kNN, decision tree, random forest), stratified
splitting, grid search with stratified 5-fold cross-validation, and metrics.

Labels become int64 class codes in one place, ``_class_codes``, whose
classes are the sorted distinct labels kept as the caller's Python objects.
Everything is deterministic for a given (data, spec, seed): tie-breaking is
lexicographic on class labels, first-encountered on split costs and grid
order, and forest tree seeds derive from the training seed by tree index.
Grid search shares fits across combinations and folds: per fold, one full
tree per criterion (on the fold's own class codes), on rows read from the
search matrix; per search, one value ranking for every fold's trees, one
rows x K nearest-neighbour ranking per metric, each row among its fold's
training rows (padded where a fold has fewer than K), all voted in one
call, and one lineage per (fold, forest tree index): the caps go from the
largest down, and a cap regrows only the trees it cuts, every fold's in
one lockstep growth over the search matrix. A regrowth follows
the tree it was cut from, taking its splits without searching, until the
cap first stops a node that tree searched. A forest tree's draws depend
only on (seed, tree index, training size), so a search draws each tree's
bootstrap positions and each node's candidates once, into one draw stream
that every cap and every fold with as many training rows reads; the refit
draws its own. Each fold scores the whole grid in one ``_scores`` call over
the predicted class codes into one specs x folds score array. A training
failure depends only on the fold's rows, so the search checks every fold
first and fails with a ``TrainingError`` naming the fold.

kNN ranks only the K nearest training rows, K the largest k it reads: a
partition at rank K, then a sort of the few candidates, gives the first K
columns of a stable ``argsort``. Manhattan distances are summed in blocks
of row pairs along the contiguous feature axis, the same pairwise sum as one
row at a time, and grid search computes each pair of rows in different CV
folds once, for both folds. Euclidean and cosine keep one BLAS product per
fold, whose bits can depend on its shape, and finish it in place. A
trained model's Manhattan predict ranks its queries a block of rows at a
time. Votes run over the neighbour ranks once, each rank adding every
row's neighbour vote to per-class totals in one indexed add, and each k
reads its winners from the running totals: the same sums, in the same
order, as voting one row and one neighbour at a time.

Trees grow over row indices into the training matrix (through the
bootstrap rows for a forest tree), several trees in lockstep: each step
scores every node it pops in one ``_segment_splits`` call, each node a
segment of its rows with its own candidate columns, and labels and
partitions their children a group of rows at a time. A forest tree still
pops one node per step in depth-first order, so its k-th drawing node
reads entry k of its draw stream, the candidates it would draw alone; a
decision tree pops a whole level. Integer class prefix counts that restart at each
segment give exactly the costs, thresholds and tie-breaks of scoring one
node and one column at a time, so every tree is the same as a per-feature
search would grow; ``_segment_splits`` and ``_cut_costs`` say why.
Entropy never builds a class one-hot: one cumsum per slot of table lookups
of n log2 n bounds every cut's cost, as cheaply as gini, and the exact
expression runs only on the cuts that the float error bound leaves near
each segment's minimum, on integer class counts from one ``bincount``.
Prediction routes the rows down all of a cap's trees a level at a time,
each tree's own rows, and a forest votes every tree count of a cap from
one running count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

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

# Each family's hyper-parameters and their defaults; the keys are the only
# legal hyper-parameters of the family.
_DEFAULTS = {
    "knn": {"n_neighbors": 5, "metric": "euclidean", "weights": "uniform"},
    "decision-tree": {"criterion": "gini", "max_depth": None},
    "random-forest": {"n_estimators": 10, "max_depth": None},
}


class TrainingError(ValueError):
    pass


@dataclass(frozen=True)
class ClassifierSpec:
    family: str
    hyperparameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in _DEFAULTS:
            raise ValueError(f"unknown family {self.family!r}")
        unknown = set(self.hyperparameters) - set(_DEFAULTS[self.family])
        if unknown:
            raise ValueError(f"unknown hyperparameters for {self.family}: {sorted(unknown)}")
        if self.family == "knn":
            if self.param("n_neighbors") < 1:
                raise ValueError("n_neighbors must be >= 1")
            if self.param("metric") not in ("euclidean", "manhattan", "cosine"):
                raise ValueError("bad knn metric")
            if self.param("weights") not in ("uniform", "distance"):
                raise ValueError("bad knn weights")
        else:
            if (self.family == "decision-tree"
                    and self.param("criterion") not in ("gini", "entropy")):
                raise ValueError("bad criterion")
            depth = self.param("max_depth")
            if depth is not None and depth < 1:
                raise ValueError("max_depth must be None or >= 1")
            if self.family == "random-forest" and self.param("n_estimators") < 1:
                raise ValueError("n_estimators must be >= 1")

    def param(self, name: str):
        """The value of hyper-parameter ``name``, or its family default."""
        return self.hyperparameters.get(name, _DEFAULTS[self.family][name])


def _class_codes(labels: Sequence, extra=None) -> tuple[list, np.ndarray]:
    """The sorted distinct labels, with ``extra`` (such as a positive label)
    among them when given, and each label's int64 class code.

    Classes stay the caller's Python objects: a fixed-width string array
    would drop trailing NULs and merge labels that differ only by them.
    """
    labels = labels.tolist() if isinstance(labels, np.ndarray) else list(labels)
    classes = sorted({*labels} if extra is None else {*labels, extra})
    lookup = {c: i for i, c in enumerate(classes)}
    return classes, np.array([lookup[label] for label in labels], dtype=np.int64)


# ---------------------------------------------------------------------------
# decision tree

_LEAF = -1


def _entropy(counts: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of class ``counts``, which sum to
    ``total``; ``counts`` is overwritten."""
    p = np.divide(counts, total[..., None], out=counts)
    # p * log2(p) where p > 0, else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log2(p)
        terms *= p
    np.putmask(terms, ~(p > 0), 0.0)
    return -np.sum(terms, axis=-1)


# Upper bound on the elements of one split search's scratch arrays (rows x
# column slots): nodes are scored together in groups this size, and a larger
# node alone in chunks of columns, at least one column per chunk. Entropy's
# exact step takes its candidate cuts in blocks of candidates x classes
# under the same bound, at least one cut per block, and ``_ranks`` ranks
# blocks of columns under it. Growth partitions split nodes' rows, and
# prediction routes trees' rows, in groups of at most this many rows.
_CHUNK_ELEMENTS = 1 << 15

# The entropy bound assumes that float64 np.log2 is within this many ulps of
# log2; numpy's own accuracy tests hold it to 1.
_LOG2_ULPS = 4

# Upper bound on the elements of a kNN vote chunk, 8 MB of float64:
# (weightings, plus one for the exact-zero counts) x query rows x classes;
# each chunk holds at least one row. A forest's vote counts take rows x
# classes chunks under it.
_VOTE_ELEMENTS = 1 << 20

# Upper bound on the elements of a kNN distance scratch block, 128 KB of
# float64: the (query, training, feature) differences of a Manhattan block,
# the query rows x training rows that one nearest-K partition copies, or
# the norm sums or products that one chunk of a BLAS product takes in place.
# Each block holds at least one query row and one training row. On the
# benchmark's kNN cells (2-vCPU Xeon, 2 MB L2 per core), 4x larger
# Manhattan blocks took twice the time.
_DIST_ELEMENTS = 1 << 14


def _ranks(x: np.ndarray) -> np.ndarray:
    """Each value's dense rank within its column, as a columns x rows array
    of the narrowest unsigned dtype for the largest rank. Equal values share
    a rank, -0.0 and 0.0 among them, so ranks change exactly where values do.

    Columns are ranked in blocks of at most ``_CHUNK_ELEMENTS`` values, at
    least one column per block, into the narrowest dtype for the row count;
    the result is narrowed once all blocks are ranked, if the largest rank
    allows.
    """
    n, d = x.shape
    ranks = np.empty((d, n), dtype=np.min_scalar_type(max(n - 1, 0)))
    top = 0
    step = max(1, _CHUNK_ELEMENTS // max(1, n))
    for lo in range(0, d, step):
        columns = np.ascontiguousarray(x[:, lo:lo + step].T)
        order = columns.argsort(axis=1)
        ordered = np.take_along_axis(columns, order, axis=1)
        dense = np.zeros(columns.shape, dtype=ranks.dtype)
        np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1, dtype=ranks.dtype,
                  out=dense[:, 1:])
        top = max(top, int(dense[:, -1:].max(initial=0)))
        np.put_along_axis(ranks[lo:lo + step], order, dense, axis=1)
    return ranks.astype(np.min_scalar_type(top), copy=False)


def _class_ranks(order: np.ndarray, codes: np.ndarray, totals: np.ndarray,
                 seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(``by_pair``, ``within``) for scattering one value per row of a
    (segment, class) pair, in the order of its k-th row in value order, to
    every slot at once (see ``_cut_costs``).

    Every slot holds the same rows, so a stable sort of any slot's
    (segment, class) pairs puts the k-th row of a pair in value order at the
    pair's start + k. ``within`` reads k in that pair order, and
    ``by_pair[j]`` is slot j's position of each entry of it.
    """
    n_seg, n_classes = totals.shape
    flat = totals.ravel()
    within = np.arange(seg.size) - (flat.cumsum() - flat).repeat(flat)
    # the narrowest unsigned pairs: numpy's stable sort of 8- and 16-bit
    # integers is a radix sort
    pair = (seg * n_classes + codes).astype(np.min_scalar_type(n_seg * n_classes - 1))
    return pair.take(order).argsort(axis=1, kind="stable"), within


def _entropy_bound(order: np.ndarray, codes: np.ndarray, totals: np.ndarray,
                   seg: np.ndarray, first: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """m times the weighted child entropy of every cut, approximately, as
    a slots x positions array, and per segment a bound ``delta`` on its
    error; arguments as for ``_cut_costs``.

    With f(n) = n log2 n, a cut's m x cost is f(p) + f(m-p) - G, where G =
    sum_c f(l_c) + sum_c f(r_c) over its left and right class counts. Moving
    a class-c row left, the k-th of its class, adds [f(k+1) - f(k)] -
    [f(t_c-k) - f(t_c-k-1)] to G, so one scatter of these steps through
    ``_class_ranks`` and one cumsum per slot give G at every cut, from a
    table of f. The cumsum restarts at each segment: it starts from sum_c
    f(t_c), all rows right, less the previous segment's, which is where
    that segment's steps end.

    ``delta`` holds for every cut where a threshold falls: the approximate
    value is within ``delta`` of m times the exact cost as ``_cut_costs``
    evaluates it. With u = 2^-53, rho = 2 x ``_LOG2_ULPS`` x u the relative
    error of np.log2, e = rho + 2u that of a table entry, g the classes
    present, D = log2 m + 2 a bound on |f(n+1) - f(n)| and F = f(m):

    - exact expression: each term p_c log2 p_c of a side's entropy is off
      by at most p_c ((2u + rho) |log2 p_c| + 1.45u), summing its g nonzero
      terms adds (g-1)u times their sum, at most log2 m, and the two
      products, their sum and the division add 3u x m x cost <= 3u m log2
      m: at most ((g+4)u + rho) m log2 m + 1.45u m in all;
    - approximation: the steps telescope, so table errors add up to at most
      2eF for the f(p) + f(m-p) and G terms, and the start's sum adds guF;
      each step rounds by at most 3uD and each cumsum addition by u|G| <=
      uF, m times per segment, and each restart by at most 2u(F + the
      previous segment's F) + uD. Rounding in every earlier segment of the
      slot adds up too, and the final additions and the caller's threshold
      take a few uF more.

    Second-order terms are covered by a factor 1 + 2^-20 while the cumsum
    runs under 2^30 positions.
    """
    w, size = order.shape
    m = totals.sum(axis=1)
    f = np.arange(m.max() + 1, dtype=np.float64)
    np.multiply(f[1:], np.log2(f[1:]), out=f[1:])
    by_pair, within = _class_ranks(order, codes, totals, seg)
    # each pair's class total, in pair order
    t = totals.ravel().repeat(totals.ravel())
    approx = np.empty((w, size))
    np.put_along_axis(approx, by_pair, (f[within + 1] - f[within])
                      - (f[t - within] - f[t - within - 1]), axis=1)
    start = f[totals].sum(axis=1)
    approx[:, first] += np.diff(start, prepend=0.0)
    np.cumsum(approx, axis=1, out=approx)
    p = np.arange(size) - first[seg] + 1
    np.subtract(f[p] + f[m[seg] - p], approx, out=approx)
    u = 2.0 ** -53
    rho = 2 * _LOG2_ULPS * u
    e = rho + 2 * u
    big_f, lg = f[m], np.log2(m)
    g = np.count_nonzero(totals, axis=1)
    # rounding inside a segment: its steps, cumsum additions and restart
    rounding = u * (m * (3 * (lg + 2) + big_f) + 4 * big_f + lg + 2)
    delta = (np.cumsum(rounding) + (2 * e + (g + 6) * u) * big_f
             + ((g + 4) * u + rho) * m * lg + 1.5 * u * m) * (1 + 2.0 ** -20)
    return approx, delta


def _entropy_costs(candidates: np.ndarray, order: np.ndarray,
                   codes: np.ndarray, totals: np.ndarray, seg: np.ndarray,
                   first: np.ndarray) -> np.ndarray:
    """Weighted child entropy of the cuts ``candidates``, ascending flat
    (slot, position) indices, by ``_entropy`` on their integer class counts;
    inf at every other cut. Arguments as for ``_cut_costs``.

    A candidate's left counts are those of the rows since the previous
    candidate of its (slot, segment), from one ``bincount``, summed over the
    candidates before it there. Candidates go in blocks of under
    ``_CHUNK_ELEMENTS`` counts, and a (slot, segment) that runs on into the
    next block carries its counts over.
    """
    w, size = order.shape
    n_classes = totals.shape[1]
    cost = np.full(w * size, np.inf)
    at = candidates % size
    # the flat index of each candidate's (slot, segment) start
    start = candidates - at + first[seg[at]]
    p = at - first[seg[at]] + 1.0
    m = totals.sum(axis=1)[seg[at]].astype(np.float64)
    order = order.ravel()
    carry = np.zeros(n_classes, dtype=np.int64)
    block = max(1, _CHUNK_ELEMENTS // n_classes)
    for lo in range(0, candidates.size, block):
        ids, starts = candidates[lo:lo + block], start[lo:lo + block]
        span = np.arange(candidates[lo - 1] + 1 if lo else 0, ids[-1] + 1)
        # each position's first candidate at or after it; it counts toward
        # that one if they share a (slot, segment)
        owner = np.searchsorted(ids, span)
        mine = span >= starts[owner]
        counts = np.bincount(owner[mine] * n_classes + codes[order[span[mine]]],
                             minlength=ids.size * n_classes
                             ).reshape(ids.size, n_classes)
        if lo and starts[0] == start[lo - 1]:
            counts[0] += carry
        left = counts.cumsum(axis=0)
        # restart at each (slot, segment) after the block's first
        head = np.r_[False, starts[1:] != starts[:-1]]
        base = np.zeros((np.count_nonzero(head) + 1, n_classes), dtype=np.int64)
        base[1:] = left[np.flatnonzero(head) - 1]
        left -= base[np.cumsum(head)]
        carry = left[-1]
        left_counts = left.astype(np.float64)
        right_counts = totals.astype(np.float64)[seg[at[lo:lo + block]]]
        right_counts -= left_counts
        left_n = p[lo:lo + block]
        right_n = m[lo:lo + block] - left_n
        cost[ids] = (left_n * _entropy(left_counts, left_n)
                     + right_n * _entropy(right_counts, right_n)) / m[lo:lo + block]
    return cost.reshape(w, size)


def _cut_costs(order: np.ndarray, change: np.ndarray, codes: np.ndarray,
               totals: np.ndarray, seg: np.ndarray, first: np.ndarray,
               criterion: str) -> np.ndarray:
    """Weighted child impurity of each cut, inf where no threshold falls or,
    for entropy, where the cut cannot be a segment's minimum.

    Positions hold consecutive segments, one node's rows each, with class
    ``codes``: ``seg`` gives a position's segment and ``first`` a segment's
    first position. Row j of ``order`` lists each segment's positions in
    ascending order of its column slot j. The cut after the k-th of them
    sends the segment's rows up to it left; ``change[j, k]`` says whether a
    threshold falls there, never after a segment's last row. ``totals``
    holds each segment's class counts. Prefix counts restart at each
    segment, and the float expressions are those of a lone node on the same
    operands: each segment's m, ``totals`` and ``t2`` for gini, integer
    class counts for entropy. The arithmetic runs in place, which changes no
    operation.

    Entropy bounds, then verifies. ``_entropy_bound`` gives every cut an
    approximate m x cost within ``delta`` of m times its exact cost. A cut
    whose exact cost equals its segment's minimum is then within 2 x
    ``delta`` of the segment's approximate minimum: its approximate cost is
    at most its exact one plus ``delta``, and the approximate minimum at
    least the exact cost there, which is no lower, less ``delta``. Only
    those cuts are candidates, and ``_entropy_costs`` evaluates the exact
    expression on them, so every segment's minimum and the cuts that reach
    it are those of scoring every cut.
    """
    if criterion == "entropy":
        approx, delta = _entropy_bound(order, codes, totals, seg, first)
        np.putmask(approx, ~change, np.inf)
        low = np.minimum.reduceat(approx, first, axis=1).min(axis=0)
        keep = approx <= (low + 2.0 * delta)[seg]
        keep &= change
        return _entropy_costs(np.flatnonzero(keep), order, codes, totals, seg,
                              first)
    size = order.shape[1]
    p = (np.arange(size) - first[seg] + 1).astype(np.float64)
    m = totals.sum(axis=1)[seg].astype(np.float64)
    # weighted gini = (m - sum_c l_c^2/p - sum_c r_c^2/(m-p)) / m, built from
    # integer prefix identities: adding a class-c sample bumps sum_c l_c^2 by
    # 2*(earlier class-c samples)+1 and sum_c total_c*l_c by total_c
    by_pair, within = _class_ranks(order, codes, totals, seg)
    a = np.empty(order.shape)
    np.put_along_axis(a, by_pair, 2.0 * within + 1.0, axis=1)
    left_dot = totals.astype(np.float64)[seg, codes].take(order)
    # both prefix sums add up to a segment's t2, so taking the previous
    # segment's t2 at a segment's first position restarts them there;
    # every partial sum is an integer, exact in float64
    t2 = (totals * totals).sum(axis=1)
    a[:, first[1:]] -= t2[:-1]
    left_dot[:, first[1:]] -= t2[:-1]
    np.cumsum(a, axis=1, out=a)
    np.cumsum(left_dot, axis=1, out=left_dot)
    # right_sq = t2 - 2.0 * left_dot + a
    right_sq = np.multiply(left_dot, 2.0, out=left_dot)
    np.subtract(t2.astype(np.float64)[seg], right_sq, out=right_sq)
    right_sq += a
    # cost = (m - a / p - right_sq / (m - p)) / m
    with np.errstate(divide="ignore", invalid="ignore"):
        right_sq /= m - p
    cost = np.divide(a, p, out=a)
    np.subtract(m, cost, out=cost)
    cost -= right_sq
    cost /= m
    np.putmask(cost, ~change, np.inf)
    return cost


def _groups(sizes: Sequence[int], budget: int):
    """(lo, hi) ranges that cut consecutive items into groups: from lo, the
    most items whose ``sizes`` sum to at most ``budget``, at least one."""
    lo, total = 0, 0
    for hi, size in enumerate(sizes):
        if hi > lo and total + size > budget:
            yield lo, hi
            lo, total = hi, 0
        total += size
    if lo < len(sizes):
        yield lo, len(sizes)


def _segment_splits(x: np.ndarray, ranks: np.ndarray, y: np.ndarray,
                    rows: np.ndarray, sizes: np.ndarray, columns: np.ndarray,
                    n_classes: int, criterion: str
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Lowest weighted child impurity over midpoint thresholds, for each of
    several nodes at once.

    Node i is a segment of ``rows``, the next ``sizes[i]`` of them, scored on
    its candidate columns ``columns[i]``, ascending, of any integer dtype.
    ``ranks`` is ``_ranks`` of ``x``. Returns (feature, threshold) per node,
    feature -1 where no threshold falls. Ties keep the earliest column, then
    the smallest threshold.

    Segments are scored in groups whose rows x slots stay under
    ``_CHUNK_ELEMENTS``, for either criterion; a segment that alone exceeds
    it is scored in chunks of columns, and a later chunk wins only with a
    lower cost. Each column slot sorts its positions by (segment, value
    rank), one stable radix sort of the narrowest unsigned key, then costs
    come only where the rank changes (for entropy, only at the cuts whose
    bound reaches the segment's minimum, and inf elsewhere), and each
    segment takes its first minimum. Equal values may take
    any order: a cut falls only between two different values, so the rows
    left of it, its class counts and its cost are the same whatever order
    equal values took. Its midpoint is too: the two values differ, so at
    most one is a zero, and ``+-0.0 + b == b`` for any nonzero b. The values
    are finite, as a ``FeatureMatrix`` holds them.
    """
    n_seg, w = columns.shape
    feature = np.full(n_seg, -1, dtype=np.int64)
    threshold = np.zeros(n_seg)
    if w == 0:
        return feature, threshold
    flat_ranks = ranks.ravel()
    ends = sizes.cumsum()
    for lo, hi in _groups(sizes.tolist(), _CHUNK_ELEMENTS // w):
        start = int(ends[lo] - sizes[lo])
        r = rows[start:ends[hi - 1]]
        seg = np.repeat(np.arange(hi - lo), sizes[lo:hi])
        first = ends[lo:hi] - sizes[lo:hi] - start
        codes = y[r]
        totals = np.bincount(seg * n_classes + codes, minlength=(hi - lo) * n_classes
                             ).reshape(-1, n_classes)
        width = max(1, _CHUNK_ELEMENTS // r.size)
        best = np.full(hi - lo, np.inf)
        for c in range(0, w, width):
            ids = columns[lo:hi, c:c + width].astype(np.intp, copy=False)
            ranked = flat_ranks.take((ids.T * ranks.shape[1])[:, seg] + r)
            slot_at = np.arange(0, ranked.size, r.size)[:, None]
            span = int(ranked.max()) + 1
            # the narrowest unsigned keys: numpy's stable sort of 8- and
            # 16-bit integers is a radix sort
            if (hi - lo) * span <= 1 << 16:
                key_type = np.min_scalar_type((hi - lo) * span - 1)
                order = (ranked + (seg * span).astype(key_type)).argsort(
                    axis=1, kind="stable")
            else:
                # a (segment, rank) key would take 32 bits and lose the radix
                # sort: sort by rank, then stably by segment
                order = ranked.argsort(axis=1, kind="stable")
                by_segment = (seg.astype(np.min_scalar_type(hi - lo - 1)).take(order)
                              .argsort(axis=1, kind="stable"))
                order = order.ravel().take(by_segment + slot_at)
            ranked = ranked.ravel().take(order + slot_at)
            change = np.empty(ranked.shape, dtype=bool)
            np.not_equal(ranked[:, 1:], ranked[:, :-1], out=change[:, :-1])
            del ranked
            change[:, first + sizes[lo:hi] - 1] = False
            if not change.any():
                continue
            cost = _cut_costs(order, change, codes, totals, seg, first, criterion)
            # first minimum per segment: lowest cost, earliest slot, then cut
            slot_low = np.minimum.reduceat(cost, first, axis=1)
            low = slot_low.min(axis=0)
            won = np.flatnonzero(low < best)
            if not won.size:
                continue
            slot = (slot_low == low).argmax(axis=0)
            position = np.arange(r.size)
            hit = cost[slot[seg], position] == low[seg]
            cut = np.minimum.reduceat(np.where(hit, position, r.size), first)
            j, k = slot[won], cut[won]
            best[won] = low[won]
            chosen = ids[won, j]
            feature[lo + won] = chosen
            threshold[lo + won] = (x[r[order[j, k]], chosen]
                                   + x[r[order[j, k + 1]], chosen]) / 2.0
    return feature, threshold


def _node_labels(y: np.ndarray, rows: np.ndarray, sizes: np.ndarray,
                 n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Each node's majority class code, vote ties to the lowest, and whether
    it holds two classes or more; node i holds the next ``sizes[i]`` of
    ``rows``."""
    cell = np.repeat(np.arange(0, sizes.size * n_classes, n_classes), sizes)
    cell += y[rows]
    counts = np.bincount(cell, minlength=sizes.size * n_classes).reshape(-1, n_classes)
    return counts.argmax(axis=1), np.count_nonzero(counts, axis=1) > 1


@dataclass(slots=True)
class _TreeNode:
    feature: int = _LEAF
    threshold: float = 0.0
    label: int = 0
    left: Optional["_TreeNode"] = None
    right: Optional["_TreeNode"] = None
    # set on the root by _grow_trees: the deepest depth at which a node drew
    # candidates or searched for a split, -1 if none did
    reach: int = -1


class _DrawStream:
    """One forest tree's draws, made once for every growth that reads them:
    its generator ``rng``, its bootstrap ``rows`` (if any, in the narrowest
    unsigned dtype), and per drawing node k of the tree, entry k: the k-th
    ``rng.choice(n_columns, n_candidates, replace=False)`` after the rows,
    sorted, in the narrowest unsigned dtype.

    Entries are drawn on first read, in draw order, into rows of a buffer
    that doubles as it fills, so reading entry k draws the entries up to k
    that no growth has read yet, and never draws an entry twice.
    """

    __slots__ = ("rng", "rows", "n_columns", "n_candidates", "drawn", "count")

    def __init__(self, rng: np.random.Generator, n_columns: int,
                 n_candidates: int, rows: Optional[np.ndarray] = None):
        self.rng, self.rows = rng, rows
        self.n_columns, self.n_candidates = n_columns, n_candidates
        self.drawn = np.empty((0, n_candidates),
                              dtype=np.min_scalar_type(max(n_columns - 1, 0)))
        self.count = 0

    @classmethod
    def forest(cls, seed: int, t: int, n: int, d: int) -> "_DrawStream":
        """Tree t's stream in a forest grown with ``seed`` on an n x d
        matrix, on ceil(sqrt(d)) candidates per node; its generator is
        seeded by ``SeedSequence(seed, spawn_key=(t,))`` and first draws the
        n bootstrap rows."""
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
        rows = rng.integers(0, n, size=n).astype(np.min_scalar_type(n - 1))
        return cls(rng, d, int(np.ceil(np.sqrt(d))), rows)

    def candidates(self, k: int) -> np.ndarray:
        """Entry k, drawing the entries up to it first if need be."""
        if k >= self.count:
            if k >= len(self.drawn):
                grown = np.empty((max(2 * len(self.drawn), k + 1),
                                  self.n_candidates), dtype=self.drawn.dtype)
                grown[:self.count] = self.drawn[:self.count]
                self.drawn = grown
            for j in range(self.count, k + 1):
                drawn = self.rng.choice(self.n_columns, size=self.n_candidates,
                                        replace=False)
                drawn.sort()
                self.drawn[j] = drawn
            self.count = k + 1
        return self.drawn[k]


def _grow_trees(x: np.ndarray, ranks: np.ndarray, y: np.ndarray,
                n_classes: int, criterion: str, max_depth: Optional[int],
                rows: Sequence[np.ndarray],
                streams: Optional[Sequence[_DrawStream]] = None,
                guides: Optional[list[Optional[_TreeNode]]] = None
                ) -> list[_TreeNode]:
    """Grow one tree per entry of ``rows``, row indices into ``x`` and ``y``
    (repeats allowed), all in lockstep; each root's ``reach`` records how
    deep its growth searched. ``ranks`` is ``_ranks`` of ``x``.

    A node that the stop tests stop, other than a root, is the one leaf of
    its label that all the call's trees share, so a tree's own nodes are
    mostly its split nodes. Nodes hold row indices while they grow. Each
    step makes one ``_segment_splits`` call for every node it pops, then
    labels, stop-tests and partitions the children of the split nodes in
    groups of at most ``_CHUNK_ELEMENTS`` rows, one pass per group. A forest
    tree's stacked node keeps its own copy of its rows, in the narrowest
    unsigned dtype for ``x``'s rows, so the stacks hold only the rows of
    nodes still to pop, however many trees grow. Tree i, given the draw
    stream ``streams[i]`` with fewer candidates than columns (all streams
    alike), keeps its own stack and pops one node per step, right child
    first, as a one-tree, depth-first grower would. It counts the nodes it
    pops, all of which pass the stop tests, and the k-th searches on the
    stream's entry k: the candidates that a one-tree grower draws from the
    stream's generator at its k-th such node. So a cap d with
    ``reach < d <= max_depth`` changes no stop test and no entry: growing
    with cap d gives this same tree. After growth the stream holds an entry
    for every node the tree popped, so its generator is where a one-tree
    grower's would be. A tree that draws nothing pops its whole frontier:
    each split depends only on the node's rows.

    ``guides[i]``, if given, is tree i grown from the same rows and stream
    at a larger cap. Both growths pop the same nodes with the same rows and
    entries until this cap first stops a node that the guide searched: an
    impure node at depth ``max_depth``. Until then a node that passes the
    stop tests still counts, which keeps the entries in step, and takes the
    guide's split, or its lack of one, without searching: the same rows and
    candidates give the same search. From that node on, growth searches as
    without a guide, because the guide counted there and its later entries
    run ahead. A tree that draws nothing follows its guide down to the cap.
    Growth empties the list ``guides`` once it has made the roots, and then
    holds each guide node only until it has replayed it; so a caller that
    keeps no other reference to a guide gets its memory back as its
    regrowth grows, and the old and the new trees are not alive in full at
    once.
    """
    if not rows:
        return []
    d = x.shape[1]
    drawing = streams is not None and streams[0].n_candidates < d
    # per tree: the nodes it popped that read, or skipped, a stream entry
    counts = [0] * len(rows)
    cap = _cap(max_depth)
    guided = [guide is not None for guide in guides or [None] * len(rows)]
    roots = [_TreeNode() for _ in rows]
    # per label, the leaf that stands for every stopped node of that label
    # in all the trees; a leaf is never changed once made, so trees share it
    leaves: dict[int, _TreeNode] = {}
    # per tree: (node, rows, depth, twin) entries, and None where a node the
    # guide searched stops at the cap; each entry holds its own rows
    stacks: list[list] = [[] for _ in rows]
    narrow = np.min_scalar_type(max(x.shape[0] - 1, 0))

    def settle(made, part, sizes):
        """Make the nodes ``made``, (tree, parent, side, depth, twin) each,
        whose rows lie consecutive in ``part``: a root (no parent) is tree
        i's, a node that stops is its label's leaf, any other a new node;
        hang each on its parent's ``side`` and stack each that may split."""
        labels, impure = _node_labels(y, part, sizes, n_classes)
        ends = sizes.cumsum()
        for (i, parent, side, depth, twin), label, grows, end, size in zip(
                made, labels.tolist(), impure.tolist(), ends.tolist(),
                sizes.tolist()):
            stops = not grows or depth >= cap
            if parent is None:
                node = roots[i]
                node.label = label
            elif stops:
                node = leaves.get(label)
                if node is None:
                    node = leaves[label] = _TreeNode(label=label)
                setattr(parent, side, node)
            else:
                node = _TreeNode(label=label)
                setattr(parent, side, node)
            if stops:
                if grows and drawing and guided[i]:
                    stacks[i].append(None)
                continue
            own = part[end - size:end]
            # a forest tree's entry can wait many steps: a copy, so that it
            # does not keep all of ``part`` alive; a decision tree pops it
            # at the next step
            stacks[i].append((node, own.astype(narrow) if drawing else own,
                              depth, twin))

    sizes = [r.size for r in rows]
    for lo, hi in _groups(sizes, _CHUNK_ELEMENTS):
        settle([(i, None, None, 0, guides[i] if guides else None)
                for i in range(lo, hi)],
               np.concatenate(rows[lo:hi]), np.array(sizes[lo:hi]))
    if guides:
        # from here on a guide node is held only until its twin has replayed
        # it (see the docstring)
        guides.clear()
    while True:
        popped = []
        for i, stack in enumerate(stacks):
            if not drawing:
                popped += [(i, *entry) for entry in stack]
                stack.clear()
                continue
            while stack:
                entry = stack.pop()
                if entry is not None:
                    popped.append((i, *entry))
                    break
                # the guide searched this node, so its later entries run ahead
                guided[i] = False
        if not popped:
            if drawing:
                for stream, count in zip(streams, counts):
                    if count:
                        stream.candidates(count - 1)
            return roots
        split, searched, draws = [], [], []
        for i, node, idx, depth, twin in popped:
            roots[i].reach = max(roots[i].reach, depth)
            if guided[i]:
                if twin.feature != _LEAF:
                    split.append((i, node, idx, depth, twin, twin.feature,
                                  twin.threshold))
            else:
                searched.append((i, node, idx, depth))
                if drawing:
                    draws.append(streams[i].candidates(counts[i]))
            counts[i] += 1
        if searched:
            columns = (np.array(draws) if drawing
                       else np.broadcast_to(np.arange(d), (len(searched), d)))
            features, thresholds = _segment_splits(
                x, ranks, y, np.concatenate([e[2] for e in searched]),
                np.array([e[2].size for e in searched]), columns, n_classes,
                criterion)
            split += [(*e, None, f, t) for e, f, t in
                      zip(searched, features.tolist(), thresholds.tolist())
                      if f >= 0]
        # the split nodes' children, partitioned and settled in groups of
        # at most _CHUNK_ELEMENTS rows, at least one node per group
        sizes = [e[2].size for e in split]
        for lo, hi in _groups(sizes, _CHUNK_ELEMENTS):
            group = split[lo:hi]
            idx = np.concatenate([e[2] for e in group])
            # node k's rows go to child 2k if at most its threshold, else 2k + 1
            child = np.repeat(np.arange(0, 2 * len(group), 2), sizes[lo:hi])
            child += ~(x[idx, np.repeat([e[5] for e in group], sizes[lo:hi])]
                       <= np.repeat([e[6] for e in group], sizes[lo:hi]))
            made = []
            for i, node, _, depth, twin, f, t in group:
                node.feature, node.threshold = f, t
                made += [(i, node, "left", depth + 1, twin and twin.left),
                         (i, node, "right", depth + 1, twin and twin.right)]
            # a stable partition: each child keeps its rows in the parent's order
            settle(made, idx[child.astype(np.min_scalar_type(2 * len(group) - 1))
                             .argsort(kind="stable")],
                   np.bincount(child, minlength=2 * len(group)))


def _tree_predict(trees: Sequence[_TreeNode], x: np.ndarray,
                  rows: Sequence[np.ndarray],
                  caps: Optional[Sequence[Optional[int]]] = None) -> np.ndarray:
    """Leaf class codes of tree i for the rows ``rows[i]`` of ``x``, each
    tree's codes after the previous tree's, flat.

    Trees go in groups whose rows add up to at most ``_CHUNK_ELEMENTS``, at
    least one tree per group. A group's rows go down all its trees at once,
    a level per pass: one comparison and one stable partition route all rows
    at split nodes to their children. With ``caps``, a node at depth
    ``caps[i]`` of tree i answers with its own label. A tree grown with that
    cap is the full tree cut there, so this predicts exactly what the capped
    tree would.
    """
    sizes = [r.size for r in rows]
    limits = [_cap(cap) for cap in caps or [None] * len(trees)]
    out = np.empty(sum(sizes), dtype=np.int64)
    start = 0
    for lo, hi in _groups(sizes, _CHUNK_ELEMENTS):
        at = np.concatenate(rows[lo:hi])
        limit = np.array(limits[lo:hi])
        nodes, tree = list(trees[lo:hi]), np.arange(hi - lo)
        # each routed row's position in ``at``
        pos = np.arange(at.size)
        counts = np.array(sizes[lo:hi])
        depth = 0
        while nodes:
            owner = np.repeat(np.arange(len(nodes)), counts)
            feature = np.array([node.feature for node in nodes])
            feature[depth >= limit[tree]] = _LEAF
            answer = feature[owner] == _LEAF
            out[start + pos[answer]] = np.array(
                [node.label for node in nodes])[owner[answer]]
            owner, pos = owner[~answer], pos[~answer]
            threshold = np.array([node.threshold for node in nodes])
            child = 2 * owner + ~(x[at[pos], feature[owner]] <= threshold[owner])
            pos = pos[child.astype(np.min_scalar_type(2 * len(nodes) - 1))
                      .argsort(kind="stable")]
            counts = np.bincount(child, minlength=2 * len(nodes))
            kept = np.flatnonzero(counts)
            nodes = [nodes[c // 2].right if c % 2 else nodes[c // 2].left
                     for c in kept.tolist()]
            tree, counts = tree[kept // 2], counts[kept]
            depth += 1
        start += at.size
    return out


def _forest_codes(tree_codes: np.ndarray, n_classes: int,
                  sizes: set) -> dict[int, np.ndarray]:
    """Majority-vote class codes of the first n trees, for each n in
    ``sizes``, from ``tree_codes``, each tree's predicted codes as a trees x
    rows array; vote ties go to the lowest class code.

    The vote counts of the sizes in ascending order are cumulative: each
    size adds one ``bincount`` of the trees since the previous size. Rows
    are taken in chunks whose rows x classes counts stay under
    ``_VOTE_ELEMENTS``, at least one row per chunk.
    """
    n_rows = tree_codes.shape[1]
    out = {n: np.empty(n_rows, dtype=np.int64) for n in sizes}
    step = max(1, _VOTE_ELEMENTS // n_classes)
    for lo in range(0, n_rows, step):
        chunk = tree_codes[:, lo:lo + step]
        cell = np.arange(0, chunk.shape[1] * n_classes, n_classes)
        votes = np.zeros(cell.size * n_classes, dtype=np.int64)
        done = 0
        for n in sorted(sizes):
            votes += np.bincount((chunk[done:n] + cell).ravel(),
                                 minlength=votes.size)
            done = n
            out[n][lo:lo + step] = votes.reshape(-1, n_classes).argmax(axis=1)
    return out


# ---------------------------------------------------------------------------
# trained model

@dataclass
class TrainedModel:
    spec: ClassifierSpec
    classes: tuple
    seed: int
    # exactly one of the following is populated, per family
    knn_x: Optional[np.ndarray] = None
    knn_y: Optional[np.ndarray] = None
    tree: Optional[_TreeNode] = None
    forest: Optional[list] = None


def _training_codes(x: np.ndarray, labels: Sequence
                    ) -> tuple[np.ndarray, list, np.ndarray]:
    """The float matrix, sorted classes and class codes of a training set;
    a TrainingError if the rows cannot be fitted."""
    x = np.asarray(x, dtype=np.float64)
    classes, y = _class_codes(labels)
    _check_training(x.shape, y.size, len(classes))
    return x, classes, y


def _check_training(shape: tuple, n_labels: int, n_classes: int) -> None:
    """A TrainingError if a matrix of ``shape`` with ``n_labels`` labels of
    ``n_classes`` classes cannot be fitted."""
    if len(shape) != 2 or shape[0] != n_labels or shape[0] == 0:
        raise TrainingError("matrix must be rectangular with one label per row")
    if n_classes < 2:
        raise TrainingError("need at least two classes")
    if shape[0] < n_classes:
        raise TrainingError("need at least as many rows as classes")


def train(spec: ClassifierSpec, x: np.ndarray, labels: Sequence,
          seed: int = 0) -> TrainedModel:
    """Fit one classifier; a forest's trees see ceil(sqrt(d)) features per split."""
    x, classes, y = _training_codes(x, labels)
    model = TrainedModel(spec=spec, classes=tuple(classes), seed=seed)
    if spec.family == "knn":
        model.knn_x = x.copy()
        model.knn_y = y
    elif spec.family == "decision-tree":
        [model.tree] = _grow_trees(x, _ranks(x), y, len(classes),
                                   spec.param("criterion"),
                                   spec.param("max_depth"), [np.arange(y.size)])
    else:
        everyone = np.arange(y.size, dtype=np.min_scalar_type(y.size - 1))
        model.forest = _forest_trees(
            x, _ranks(x), y, len(classes), seed,
            [(t, everyone) for t in range(spec.param("n_estimators"))],
            spec.param("max_depth"), {})
    return model


def _cap(max_depth: Optional[int]) -> float:
    return np.inf if max_depth is None else max_depth


def _forest_trees(x: np.ndarray, ranks: np.ndarray, y: np.ndarray,
                  n_classes: int, seed: int,
                  trees: Sequence[tuple[int, np.ndarray]],
                  max_depth: Optional[int], streams: dict,
                  guides: Optional[list[Optional[_TreeNode]]] = None
                  ) -> list[_TreeNode]:
    """Forest trees grown in lockstep, one per (t, training rows) pair of
    ``trees``: tree t of the forest fitted on those rows of ``x``, a
    bootstrap gini tree on ceil(sqrt(d)) candidate features per split,
    grown over row indices of ``x``, never a copy.

    Tree t's generator is seeded by ``SeedSequence(seed, spawn_key=(t,))``,
    which is ``SeedSequence(seed).spawn(n)[t]`` for any n > t; it draws the
    tree's n bootstrap positions among its n training rows, then its
    candidates. So its draws depend only on (seed, t, n, d), and ``streams``
    maps that key to tree t's draw stream (``_DrawStream.forest``): a stream
    is derived once, on first use, and serves every later growth of its
    tree, at any cap and on any n training rows. ``ranks`` is ``_ranks`` of
    ``x``; ``guides`` holds each tree grown at a larger cap, if any, and
    growth empties it (see ``_grow_trees``).
    """
    lineage, rows = [], []
    for t, training in trees:
        key = (seed, t, training.size, x.shape[1])
        if key not in streams:
            streams[key] = _DrawStream.forest(*key)
        lineage.append(streams[key])
        rows.append(training[streams[key].rows])
    return _grow_trees(x, ranks, y, n_classes, "gini", max_depth, rows,
                       lineage, guides)


def _distances(metric: str, queries: np.ndarray, train_x: np.ndarray) -> np.ndarray:
    """Query rows x training rows distances. Euclidean and cosine keep their
    one BLAS product as the output and finish it in place, in query-row
    chunks under ``_DIST_ELEMENTS``, by the same element-wise operations in
    the same order as on whole arrays."""
    step = max(1, _DIST_ELEMENTS // max(1, train_x.shape[0]))
    if metric == "euclidean":
        # sqrt(max(|q|^2 + |t|^2 - (2q) @ t.T, 0))
        qn, tn = np.sum(queries ** 2, axis=1), np.sum(train_x ** 2, axis=1)
        out = 2.0 * queries @ train_x.T
        for lo in range(0, out.shape[0], step):
            block = out[lo:lo + step]
            np.subtract(qn[lo:lo + step, None] + tn[None, :], block, out=block)
        np.maximum(out, 0.0, out=out)
        return np.sqrt(out, out=out)
    if metric == "manhattan":
        # blocks of (query, training) row pairs under _DIST_ELEMENTS; each
        # pair's sum runs along the block's contiguous feature axis, numpy's
        # pairwise sum of np.sum(np.abs(train_x - row), axis=1), bit for bit
        n, m, d = queries.shape[0], train_x.shape[0], max(1, queries.shape[1])
        out = np.empty((n, m))
        cols = max(1, min(m, _DIST_ELEMENTS // d))
        rows = max(1, _DIST_ELEMENTS // (cols * d))
        for i in range(0, n, rows):
            for j in range(0, m, cols):
                block = queries[i:i + rows, None, :] - train_x[None, j:j + cols, :]
                out[i:i + rows, j:j + cols] = np.abs(block, out=block).sum(axis=2)
        return out
    # cosine distance = 1 - cosine similarity; zero vectors are distance 1
    qn = np.linalg.norm(queries, axis=1)
    tn = np.linalg.norm(train_x, axis=1)
    out = queries @ train_x.T
    for lo in range(0, out.shape[0], step):
        block = out[lo:lo + step]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(block, qn[lo:lo + step, None] * tn[None, :], out=block)
        block[~np.isfinite(block)] = 0.0
        np.subtract(1.0, block, out=block)
    return out


def _nearest(dist: np.ndarray, top: int,
             columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first K = min(top, columns) entries in stable ``argsort``
    order, as (their distances, ``columns`` at their positions).

    A partition finds the K-th smallest value. The candidates are every
    column not above it: those below, and those equal to it (-0.0 equals
    +0.0, as in the sort), at least K per row. Sorted by (distance,
    position), their first K are the sort's. A NaN sorts last in both, and a
    NaN K-th value makes the whole row a candidate. Query rows are taken in
    chunks under ``_DIST_ELEMENTS``.
    """
    k = min(top, dist.shape[1])
    near = np.empty((dist.shape[0], k))
    at = np.empty((dist.shape[0], k), dtype=np.int64)
    step = max(1, _DIST_ELEMENTS // max(1, dist.shape[1]))
    for lo in range(0, dist.shape[0], step):
        chunk = dist[lo:lo + step]
        kth = np.partition(chunk, k - 1, axis=1)[:, k - 1, None]
        # row-major, so positions ascend within a row, and both stable
        # sorts below keep them in that order among equal distances
        rows, cols = np.divmod(np.flatnonzero(~(chunk > kth)), chunk.shape[1])
        values = chunk[rows, cols]
        if rows.size == k * chunk.shape[0]:
            # no row has a tie past its K-th value: K candidates per row
            take = (np.argsort(values.reshape(-1, k), axis=1, kind="stable")
                    + np.arange(0, rows.size, k)[:, None])
        else:
            order = np.lexsort((values, rows))
            counts = np.bincount(rows, minlength=chunk.shape[0])
            take = order[(counts.cumsum() - counts)[:, None] + np.arange(k)]
        near[lo:lo + step] = values[take]
        at[lo:lo + step] = columns[cols[take]]
    return near, at


def _neighbours(metric: str, x: np.ndarray, train_x: np.ndarray,
                top: int) -> tuple[np.ndarray, np.ndarray]:
    """Each query's K = min(top, training rows) nearest training rows in
    stable nearest-first order, as (distances, row indices).

    Manhattan distances are computed in blocks of query rows under
    ``_DIST_ELEMENTS``, at least one row per block, and each block keeps
    only its rows' K nearest, so no query x training matrix is ever whole.
    A row's distances and ranking depend on that row alone. Euclidean and
    cosine keep their one BLAS product, whose bits can depend on its shape.
    """
    if x.shape[1] != train_x.shape[1]:
        raise ValueError("query columns do not match the training matrix")
    columns = np.arange(train_x.shape[0])
    if metric != "manhattan":
        return _nearest(_distances(metric, x, train_x), top, columns)
    step = max(1, _DIST_ELEMENTS // max(1, train_x.shape[0]))
    # at least one block, so that no query rows give a 0 x K ranking
    parts = [_nearest(_distances(metric, x[lo:lo + step], train_x), top, columns)
             for lo in range(0, max(1, x.shape[0]), step)]
    return (np.concatenate([d for d, _ in parts]),
            np.concatenate([r for _, r in parts]))


def _knn_codes(dist: np.ndarray, nearest: np.ndarray, train_y: np.ndarray,
               n_classes: int, votes: set,
               present: Optional[np.ndarray] = None) -> dict[tuple, np.ndarray]:
    """Vote winners among the k nearest neighbours for each (k, weighted)
    pair in ``votes``, keyed by the pair.

    ``dist`` and ``nearest`` hold each row's nearest neighbours in rank
    order, at least the largest k of them. One loop over the ranks adds
    each rank's votes (1.0, or 1/d under distance weights) to per
    (weighting, row, class) totals, one indexed add per weighting, as a
    row has one neighbour per rank. So each total is the row's votes for
    the class summed in rank order from 0.0, and at each k in ``votes`` one
    argmax over the classes reads the winners, giving vote ties to the
    lowest class code. Under distance weights, exact-zero neighbours are
    counted beside the totals, and a row whose first k neighbours hold one
    counts only those neighbours. Query rows are taken in chunks under
    ``_VOTE_ELEMENTS``.

    ``present``, a rows x classes boolean array, names the classes each
    row's vote may go to, as if the others had no column; without it every
    class may win. The others total -inf, so they lose to any neighbour
    total, which can be negative (a cosine distance of -1 ulp under distance
    weights), and to the 0.0 of a class no neighbour has. Where every class
    the row may take totals -inf, the lowest of them wins, as over those
    columns alone. A neighbour may be of a class its row may not take only
    at distance +inf, as a search's pad columns are: its vote, 1.0 or
    1/inf = 0.0, leaves that class's -inf as it was, and +inf is never an
    exact zero.
    """
    weightings = sorted({w for _, w in votes})
    top = max(k for k, _ in votes)
    out = {vote: np.empty(dist.shape[0], dtype=np.int64) for vote in votes}
    step = max(1, _VOTE_ELEMENTS // ((len(weightings) + 1) * n_classes))
    for lo in range(0, dist.shape[0], step):
        idx, nd = nearest[lo:lo + step, :top], dist[lo:lo + step, :top]
        row = np.arange(idx.shape[0])
        totals = np.zeros((len(weightings), row.size, n_classes))
        if present is not None:
            allowed = present[lo:lo + step]
            totals[:, ~allowed] = -np.inf
        zero = nd == 0.0
        counting = zero.any()
        exact = np.zeros((row.size, n_classes), dtype=np.int64)
        seen = np.zeros(row.size, dtype=bool)
        for rank in range(top):
            ny = train_y[idx[:, rank]]
            for i, weighted in enumerate(weightings):
                if weighted:
                    # a subnormal distance's vote overflows to +-inf, and +0
                    # and -0 distances sum to inf - inf, in rows that exact
                    # counts decide
                    with np.errstate(divide="ignore", over="ignore",
                                     invalid="ignore"):
                        totals[i, row, ny] += 1.0 / nd[:, rank]
                    if counting:
                        exact[row, ny] += zero[:, rank]
                        seen |= zero[:, rank]
                else:
                    totals[i, row, ny] += 1.0
                if (rank + 1, weighted) not in votes:
                    continue
                won = totals[i].argmax(axis=1)
                if weighted:
                    won[seen] = exact[seen].argmax(axis=1)
                if present is not None:
                    np.copyto(won, allowed.argmax(axis=1),
                              where=~allowed[row, won])
                out[rank + 1, weighted][lo:lo + step] = won
    return out


def predict(model: TrainedModel, x: np.ndarray) -> np.ndarray:
    """Predicted labels for each row, an object array of ``model.classes``
    values; deterministic tie-breaking throughout."""
    x = np.asarray(x, dtype=np.float64)
    n_classes = len(model.classes)
    spec = model.spec
    if spec.family == "knn":
        k = min(spec.param("n_neighbors"), model.knn_x.shape[0])
        vote = (k, spec.param("weights") == "distance")
        dist, nearest = _neighbours(spec.param("metric"), x, model.knn_x, k)
        codes = _knn_codes(dist, nearest, model.knn_y, n_classes, {vote})[vote]
    elif spec.family == "decision-tree":
        codes = _tree_predict([model.tree], x, [np.arange(x.shape[0])])
    else:
        n = len(model.forest)
        codes = _tree_predict(model.forest, x, [np.arange(x.shape[0])] * n)
        codes = _forest_codes(codes.reshape(n, x.shape[0]), n_classes, {n})[n]
    return np.array(model.classes, dtype=object)[codes]


# ---------------------------------------------------------------------------
# splits and folds

class SplitError(ValueError):
    pass


def _round_half_up(v: float) -> int:
    return int(np.floor(v + 0.5))


# Share of each class's rows held out by ``stratified_split``.
_TEST_FRACTION = 0.2
_CV_FOLDS = 5  # stratified folds of a grid search's cross-validation


def stratified_split(labels: Sequence, seed: int = 0
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Per-class shuffled split; test count = round(n * _TEST_FRACTION), at
    least 1 and at most n - 1."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5F11]))
    classes, y = _class_codes(labels)
    train_idx, test_idx = [], []
    for code, cls in enumerate(classes):
        idx = np.flatnonzero(y == code)
        if idx.size < 2:
            raise SplitError(f"class {cls!r} has fewer than 2 rows")
        rng.shuffle(idx)
        n_test = min(max(1, _round_half_up(idx.size * _TEST_FRACTION)), idx.size - 1)
        test_idx.extend(idx[:n_test])
        train_idx.extend(idx[n_test:])
    return np.array(sorted(train_idx)), np.array(sorted(test_idx))


def stratified_kfold(labels: Sequence, k: int = 5,
                     seed: int = 0) -> list[np.ndarray]:
    """k disjoint folds; per-class counts across folds differ by at most 1."""
    if k < 2:
        raise ValueError("k must be >= 2")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF01D]))
    classes, y = _class_codes(labels)
    folds: list[list[int]] = [[] for _ in range(k)]
    for code in range(len(classes)):
        idx = np.flatnonzero(y == code)
        rng.shuffle(idx)
        for j, row in enumerate(idx):
            folds[j % k].append(int(row))
    return [np.array(sorted(f)) for f in folds]


# ---------------------------------------------------------------------------
# metrics

@dataclass(frozen=True)
class Scores:
    accuracy: float
    macro_f1: float
    positive_f1: Optional[float]


def _scores(y_true: np.ndarray, y_pred: np.ndarray, n_classes: int
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Accuracy, per-class F1 and the classes seen in ``y_true`` or the row,
    for each row of ``y_pred``, a stack of predicted class codes in
    ``range(n_classes)`` for the samples of ``y_true``.

    A class seen in neither scores an F1 of 0.0. Counts are rows x classes,
    never a confusion matrix per row.
    """
    n_rows = y_pred.shape[0]
    hit = y_pred == y_true
    offset = np.arange(n_rows)[:, None] * n_classes + y_pred
    size = n_rows * n_classes
    tp = np.bincount(offset[hit], minlength=size).reshape(n_rows, n_classes)
    p_den = np.bincount(offset.ravel(), minlength=size).reshape(n_rows, n_classes)
    r_den = np.bincount(y_true, minlength=n_classes)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(p_den > 0, tp / p_den, 0.0)
        r = np.where(r_den > 0, tp / r_den, 0.0)
        f1 = np.where(p + r > 0, 2 * p * r / (p + r), 0.0)
    return np.count_nonzero(hit, axis=1) / y_true.size, f1, (p_den + r_den) > 0


def score_predictions(y_true: Sequence[str], y_pred: Sequence[str],
                      positive_label: Optional[str] = None) -> Scores:
    """Accuracy, macro F1, and the F1 of ``positive_label`` (None without one)."""
    n = len(y_true)
    classes, y = _class_codes([*y_true, *y_pred], positive_label)
    accuracy, f1, seen = _scores(y[:n], y[None, n:], len(classes))
    return Scores(float(accuracy[0]), float(np.mean(f1[0][seen[0]])),
                  None if positive_label is None
                  else float(f1[0, classes.index(positive_label)]))


# ---------------------------------------------------------------------------
# grid search

@dataclass(frozen=True)
class GridSearchResult:
    best_spec: ClassifierSpec
    model: TrainedModel
    scores: np.ndarray  # specs x non-empty folds, in grid and fold order


def expand_grid(family: str, grid: dict) -> list[ClassifierSpec]:
    """Cartesian product in the grid's key order (first key varies slowest)."""
    keys = list(grid)
    combos = itertools.product(*(grid[k] for k in keys))
    return [ClassifierSpec(family, dict(zip(keys, values))) for values in combos]


def _group(specs: Sequence[ClassifierSpec], param: str) -> list[list[int]]:
    """Spec indices grouped by one hyper-parameter's value, first seen first."""
    groups: dict = {}
    for i, spec in enumerate(specs):
        groups.setdefault(spec.param(param), []).append(i)
    return list(groups.values())


# A search predictor takes (specs, x, class codes, class count, fold of
# each row, seed) and returns a specs x rows array: each spec's predicted
# class code for every row of x, by that spec fitted on the rows of the
# other folds. Each one fits as little as the grid allows. ``grid_search``
# has checked that every fold's training rows can be fitted.

def _knn_search(specs, x, y, n_classes, fold_of, seed):
    """Per metric, every row's K nearest among its fold's training rows, K
    the grid's largest k, named by their rows of ``x`` in one (metrics,
    rows, K) pair of arrays padded as ``_knn_votes`` says; then one vote
    over them all. The Manhattan rankings come from ``_fold_manhattan``;
    euclidean and cosine make one BLAS product per fold, on the fold's rows
    read from ``x``."""
    ranked = list(dict.fromkeys(spec.param("metric") for spec in specs))
    top = max(spec.param("n_neighbors") for spec in specs)
    dist = np.full((len(ranked), fold_of.size, top), np.inf)
    near = np.full(dist.shape, fold_of.size, dtype=np.int64)
    if "manhattan" in ranked:
        m = ranked.index("manhattan")
        _fold_manhattan(x, fold_of, dist[m], near[m])
    products = [m for m, metric in enumerate(ranked) if metric != "manhattan"]
    for j in range(int(fold_of.max()) + 1):
        test = np.flatnonzero(fold_of == j)
        train_rows = np.flatnonzero(fold_of != j)
        train_x = x[train_rows] if products else None
        for m in products:
            d, r = _nearest(_distances(ranked[m], x[test], train_x), top,
                            train_rows)
            dist[m, test, :d.shape[1]], near[m, test, :d.shape[1]] = d, r
    return _knn_votes(dist, near, fold_of, y, n_classes,
                      [(ranked.index(spec.param("metric")),
                        spec.param("n_neighbors"),
                        spec.param("weights") == "distance") for spec in specs])


def _knn_votes(dist: np.ndarray, near: np.ndarray, fold_of: np.ndarray,
               y: np.ndarray, n_classes: int, votes: Sequence[tuple]
               ) -> np.ndarray:
    """Each spec's predicted class code for every row of the search: spec i
    votes ``votes[i]`` = (r, k, weighted), the row's k nearest in ranking r
    of ``dist`` and ``near``, weighted by distance if ``weighted``.

    A ranking names each row's K nearest among its fold's training rows
    (``fold_of`` gives each row's fold) by their rows of the search, K the
    largest k; a fold with fewer than K training rows pads its other
    columns with row n, one past the last, at distance +inf. One
    ``_knn_codes`` call over the search's codes ``y`` gives each fold's own
    votes on its training rows' class codes, k clipped to its training
    rows: the codes keep the classes' order, so ties go to the same class,
    and ``present`` masks the classes a fold's training rows lack, which
    had no column there. Row n is of class ``n_classes``, masked for every
    row, whose -inf a pad's vote (1.0, or 1/inf = 0.0) leaves as it is.
    """
    n_rankings, n, top = dist.shape
    n_folds = int(fold_of.max()) + 1
    counts = np.bincount(fold_of * n_classes + y,
                         minlength=n_folds * n_classes).reshape(n_folds, n_classes)
    # per fold, the classes of its training rows
    present = counts.sum(axis=0) - counts > 0
    if (n - counts.sum(axis=1)).min() < top:  # some fold pads
        y = np.append(y, n_classes)
        present = np.c_[present, np.zeros(n_folds, dtype=bool)]
    mask = (None if present.all()
            else np.tile(present[fold_of], (n_rankings, 1)))
    codes = _knn_codes(dist.reshape(-1, top), near.reshape(-1, top), y,
                       present.shape[1], {(k, w) for _, k, w in votes}, mask)
    return np.stack([codes[k, w].reshape(n_rankings, n)[r]
                     for r, k, w in votes])


def _fold_manhattan(x: np.ndarray, fold_of: np.ndarray, dist: np.ndarray,
                    near: np.ndarray) -> None:
    """Fills each row's Manhattan ranking among its fold's training rows
    into its row of ``dist`` and ``near``, as ``_neighbours`` gives it on
    the fold's own test and training matrices, with each training position
    given as its row of ``x``: the first min(K, training rows) columns, K
    the arrays' width; ``fold_of`` holds each row's fold.

    Fold a computes one block of distances, from its rows to the rows of
    every later fold, so each pair of rows in different folds is computed
    once. The block's rows rank the later rows for fold a, and its
    transpose ranks fold a's rows for each later fold, since |u - v| ==
    |v - u| exactly. Each list holds the first K of one part of a fold's
    training rows in (distance, row) order, so together they hold the first
    K of all of them, and merged in that order they give them. A fold's
    training rows are the other folds' rows in ascending order, so ties by
    row are ties by training position, as in the fold's own matrix.
    """
    top = dist.shape[1]
    n_folds = int(fold_of.max()) + 1
    parts: list = [[] for _ in range(n_folds)]
    for a in range(n_folds):
        rows_a = np.flatnonzero(fold_of == a)
        later = np.flatnonzero(fold_of > a)
        if later.size:
            block = _distances("manhattan", x[rows_a], x[later])
            parts[a].append(_nearest(block, top, later))
            d, r = _nearest(block.T, top, rows_a)
            del block  # before the next fold's block is computed
            owner = fold_of[later]
            for b in range(a + 1, n_folds):
                parts[b].append((d[owner == b], r[owner == b]))
        d = np.hstack([d for d, _ in parts[a]])
        r = np.hstack([r for _, r in parts[a]])
        parts[a] = None
        order = np.lexsort((r, d))[:, :top]
        dist[rows_a, :order.shape[1]] = np.take_along_axis(d, order, axis=1)
        near[rows_a, :order.shape[1]] = np.take_along_axis(r, order, axis=1)


def _tree_search(specs, x, y, n_classes, fold_of, seed):
    """Per fold, one unlimited-depth tree per criterion, predicted at each
    depth cap, grown over the fold's rows of x on x's one value ranking (a
    node's ranks keep its rows' value order in any row subset) and on the
    fold's own class codes: entropy sums over the fold's classes, and a
    column for a class the fold lacks could change how ``np.sum`` groups
    them, and with that the last bits. ``searchsorted`` on the fold's
    classes, in the search's order, codes the training rows growth reads."""
    ranks = _ranks(x)
    out = np.empty((len(specs), y.size), dtype=np.int64)
    for j in range(int(fold_of.max()) + 1):
        test = np.flatnonzero(fold_of == j)
        train_rows = np.flatnonzero(fold_of != j)
        classes = np.unique(y[train_rows])
        fy = np.searchsorted(classes, y)
        for members in _group(specs, "criterion"):
            [tree] = _grow_trees(x, ranks, fy, classes.size,
                                 specs[members[0]].param("criterion"), None,
                                 [train_rows])
            codes = _tree_predict([tree] * len(members), x,
                                  [test] * len(members),
                                  [specs[i].param("max_depth") for i in members])
            out[np.ix_(members, test)] = classes[codes].reshape(len(members), test.size)
    return out


def _forest_search(specs, x, y, n_classes, fold_of, seed):
    """Each depth's forests for every fold, as large as the depth's largest
    tree count, from one lineage of trees per (fold, tree index).

    Tree t of fold j depends only on (seed, t, cap, fold j's training rows),
    so a cap's first n trees are its n-tree forest. The caps go from the
    largest down, ``None`` first. Lineage (j, t) holds its latest tree, from
    the nearest larger cap whose largest forest has more than t trees. A cap
    above that tree's reach keeps it, since it is the tree that cap grows,
    and its codes; a cap that cuts it regrows it, guided by it (see
    ``_grow_trees``). Each cap grows the regrowths of every fold in one
    lockstep growth over row indices of x, whose value ranks serve every
    cap and fold: a segment's ranks keep the order of its rows' values
    within any row subset. Fold j's tree t maps its bootstrap positions
    through fold j's training rows and reads the draw stream keyed by its
    training size (see ``_forest_trees``), shared by every cap and every
    fold of that size.

    Trees take the search's class codes, not the fold's. The codes keep the
    classes' order, and a class that a fold lacks only adds zero counts to
    gini's integer partial sums, so every split, tie and leaf is the fold's
    own, in the search's codes. Each cap sends each fold's test rows down
    that fold's new trees in one pass, and votes every tree count of the cap
    over all rows at once (``_forest_codes``).
    """
    n_folds = int(fold_of.max()) + 1
    narrow = np.min_scalar_type(max(y.size - 1, 0))
    train_rows = [np.flatnonzero(fold_of != j).astype(narrow)
                  for j in range(n_folds)]
    tests = [np.flatnonzero(fold_of == j) for j in range(n_folds)]
    ranks = _ranks(x)
    groups = sorted(_group(specs, "max_depth"),
                    key=lambda members: -_cap(specs[members[0]].param("max_depth")))
    n_trees = max(spec.param("n_estimators") for spec in specs)
    trees: list = [[None] * n_trees for _ in range(n_folds)]
    # each lineage's latest tree's codes, tree by tree, of its fold's test rows
    predicted = np.empty((n_trees, y.size),
                         dtype=np.min_scalar_type(max(n_classes - 1, 0)))
    streams: dict = {}
    out = np.empty((len(specs), y.size), dtype=np.int64)
    for members in groups:
        cap = specs[members[0]].param("max_depth")
        group_sizes = [specs[i].param("n_estimators") for i in members]
        regrow = [(j, t) for j in range(n_folds) for t in range(max(group_sizes))
                  if trees[j][t] is None or trees[j][t].reach >= _cap(cap)]
        if regrow:
            # the growth alone holds the trees it regrows (see _grow_trees)
            guides = []
            for j, t in regrow:
                guides.append(trees[j][t])
                trees[j][t] = None
            grown = _forest_trees(x, ranks, y, n_classes, seed,
                                  [(t, train_rows[j]) for j, t in regrow], cap,
                                  streams, guides)
            codes = _tree_predict(grown, x, [tests[j] for j, _ in regrow])
            start = 0
            for (j, t), tree in zip(regrow, grown):
                trees[j][t] = tree
                predicted[t, tests[j]] = codes[start:start + tests[j].size]
                start += tests[j].size
        votes = _forest_codes(predicted, n_classes, set(group_sizes))
        for i, n in zip(members, group_sizes):
            out[i] = votes[n]
    return out


_SEARCH_PREDICTORS = {"knn": _knn_search, "decision-tree": _tree_search,
                      "random-forest": _forest_search}


def grid_search(family: str, grid: dict, x: np.ndarray, labels: Sequence[str],
                seed: int = 0,
                positive_label: Optional[str] = None) -> GridSearchResult:
    """Best grid combination by mean stratified CV score, refitted on all rows.

    The score is the F1 of ``positive_label`` when one is given, else
    accuracy. The search shares fits across the grid and its folds; the
    scores equal fitting every combination on every fold on its own. A fold
    whose training rows cannot be fitted fails the search with
    ``TrainingError("CV fold j: ...")``, j counting the non-empty folds, the
    first such fold in fold order; ties keep the earliest grid combination.
    """
    if not grid:
        raise ValueError("empty grid")
    specs = expand_grid(family, grid)
    x = np.asarray(x, dtype=np.float64)
    classes, y = _class_codes(labels, positive_label)
    folds = [f for f in stratified_kfold(y, _CV_FOLDS, seed) if f.size]
    fold_of = np.empty(y.size, dtype=np.int64)
    for j, fold in enumerate(folds):
        fold_of[fold] = j
    for j in range(len(folds)):
        # train's checks on fold j's training rows: the shape and labels of
        # x[fold_of != j], without copying it
        train_y = y[fold_of != j]
        try:
            _check_training((train_y.size, *x.shape[1:]), train_y.size,
                            np.unique(train_y).size)
        except TrainingError as exc:
            raise TrainingError(f"CV fold {j}: {exc}") from exc
    predicted = _SEARCH_PREDICTORS[family](specs, x, y, len(classes), fold_of,
                                           seed)
    scores = np.empty((len(specs), len(folds)))
    for j, fold in enumerate(folds):
        accuracy, f1, _ = _scores(y[fold], predicted[:, fold], len(classes))
        scores[:, j] = (accuracy if positive_label is None
                        else f1[:, classes.index(positive_label)])
    # np.mean of each spec's fold scores: a row reduction adds in the same order
    best = int(np.argmax(scores.mean(axis=1)))  # first maximum
    return GridSearchResult(specs[best], train(specs[best], x, labels, seed),
                            scores)
