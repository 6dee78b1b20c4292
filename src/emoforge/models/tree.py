"""CART-style decision trees over flat node arrays.

Both tree flavors share one builder: classification trees split on Gini
impurity and keep class distributions at the leaves, regression trees split
on variance and keep means. Candidate thresholds are midpoints between
consecutive distinct sorted feature values a < b, or a itself where the
midpoint 0.5 * (a + b) is not in [a, b) (NaN for -inf and +inf, +inf when
the sum overflows, b for adjacent floats), so no split empties a child.
Equal-gain ties resolve to the lowest feature index, then the lowest
threshold, and a split needs a strictly positive gain.

A caller that grows many trees on one X, as boosting does, computes
``presort(X)`` once: per column, the row indices in stable sorted order and
the values in that order. Each node carries its share down the tree, a
split hands each child the entries of its own rows in the same order, and no
node sorts again; a child at ``max_depth`` is never searched and gets no
share. Without a presort a node sorts the columns it draws: a random forest
scores ceil(sqrt(d)) drawn columns per node, and carrying every column's
order down its deep trees fitted 1.2x slower on a 96 x 44 matrix. Both
orders agree, because a node's rows stay ascending and a stable sort breaks
ties by row. A node that instead filters its rows out of the whole presort
reads every row of X, whatever its size: on a 2-core Xeon that fitted a
forest 1.4x slower on a 96 x 1000 matrix and 1.7x on a 1000 x 2000 one, and
boosting on the latter 1.1x slower at depth 3 and 1.7x at depth 6.

The search scores only the valid positions of a column block: those between
two distinct sorted values that leave ``min_samples_leaf`` (at least 1) rows
on each side (a small share of a TFIDF column with two to four distinct
values). It gathers the cumulative class counts or target sums at those
entries alone and scatters their gains into a -inf (columns x positions)
matrix for the first-max rules. Every sum runs in the order a one-column
search would use, so trees match it bit for bit: cumulative sums run along
each sorted column, a position's class terms are summed along the last axis,
each column's regression parent variance is reduced over its contiguous
sorted row, and a node's mean and variance are the ``np.add.reduce`` sums of
``np.mean`` and ``np.var``. ``grow_tree`` also reports each training row's
leaf value, which boosting adds to its logits instead of walking the new
tree over X.

Memory: with int32 row indices a presort takes 1.5 x X.nbytes. A growing
tree adds at most 3 x X.nbytes of carried shares (pending nodes hold
disjoint rows, and a split fills its children before its own share goes),
so a boosting fit stays within 4.5 x X.nbytes plus the temporaries of one
column block: the search and the partition handle at most
``_BLOCK_ELEMENTS`` (rows x columns x classes) entries at a time, in about
twenty arrays. A forest holds no presort, only each tree's bootstrap copy
of X. Measured on a 300 x 2000 TFIDF-like matrix with 2**14-entry blocks, a
depth-3 boosting fit peaks at 4.5 x X.nbytes and a forest fit at 2.0 x.

A model keeps its trees once, in the packed arrays that ``pack_trees``
writes to a model file, and ``leaf_values`` is the one traversal of them:
it holds a (rows x trees) matrix of node indices and moves every entry one
level per pass, to the left child where the row's value is <= the
threshold and to the right child otherwise (NaN included), so the loop runs
once per level instead of once per tree and level. It relies on the
invariant that ``unpack_trees`` checks on every set of arrays a model
takes: each split node's children lie inside its own tree after itself, so
every walk moves forward and ends at a leaf. ``sum_leaf_values`` adds the
leaf values up over the trees with ``np.cumsum``, which adds strictly in
tree order (``np.sum`` may add pairwise), and adds that sum to zeros: it
therefore rounds exactly like a loop of ``total += value`` from zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from .base import one_hot

_NO_FEATURE = -1
# Upper bound on the elements of one (rows x columns x classes) block that the
# split search scores, or a split partitions, at once; nodes with more
# candidate columns work in column blocks, so no temporary grows with the
# width of a TFIDF matrix. The traversal likewise walks rows in blocks of at
# most this many (row, tree, value) leaf entries.
_BLOCK_ELEMENTS = 1 << 18


@dataclass
class TreeNodes:
    """One tree's flat node arrays (in a fitted model, views into its packed
    arrays); feature == -1 marks a leaf."""

    feature: np.ndarray  # (n_nodes,) int64
    threshold: np.ndarray  # (n_nodes,) float64
    left: np.ndarray  # (n_nodes,) int64
    right: np.ndarray  # (n_nodes,) int64
    value: np.ndarray  # (n_nodes, value_dim) float64
    importances: np.ndarray  # (n_features,) unnormalized impurity decrease

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)


def presort(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's row indices in stable sorted order and its values in that
    order, both (columns x rows) with one column per contiguous row; the
    indices are int32 while the row count allows it."""
    X = np.asarray(X, dtype=np.float64)
    order = np.argsort(X.T, axis=1, kind="stable")
    values = np.take_along_axis(X.T, order, axis=1)
    return order.astype(np.int32 if X.shape[0] < 2**31 else np.int64), values


def _best_splits(
    X: np.ndarray, idx: np.ndarray, candidates: np.ndarray | None,
    carried: tuple[np.ndarray, np.ndarray] | None, targets: np.ndarray, task: str,
    min_samples_leaf: int, parent: float,
) -> tuple[float, float, int]:
    """Best (gain, threshold, feature) over the ``candidates`` columns (None:
    all) of the node holding rows ``idx`` of X; gain 0.0 means no split.

    ``carried`` is the node's share of ``presort(X)``; without it each block
    of candidate columns is sorted here. ``targets`` is the one-hot labels
    (classification) or targets (regression) of every row of X. ``parent``
    is the node's Gini impurity; regression replaces it by each column's
    variance in that column's sorted order.
    """
    n = idx.size
    features = np.arange(X.shape[1]) if candidates is None else candidates
    width = max(1, _BLOCK_ELEMENTS // (n * targets[0].size))  # rows x classes per column
    # split after sorted position p: the left child takes the first p + 1 rows;
    # only p in [lo, hi) leave min_samples_leaf rows on each side
    lo, hi = min_samples_leaf - 1, n - min_samples_leaf
    best = (0.0, 0.0, _NO_FEATURE)
    for start in range(0, features.size, width):
        cols = features[start : start + width]
        if carried is None:
            block = X[idx, cols[:, None]]
            order = np.argsort(block, axis=1, kind="stable")
            rows, sv = idx[order], np.take_along_axis(block, order, axis=1)
        else:
            pick = slice(start, start + width) if candidates is None else cols
            rows, sv = carried[0][pick], carried[1][pick]
        # score only the positions between two distinct values: window
        # entry (c, q) is the split after sorted position p = lo + q of column c
        valid = sv[:, lo:hi] < sv[:, lo + 1 : hi + 1]
        flat = np.flatnonzero(valid)
        if not flat.size:
            continue
        c, q = np.divmod(flat, hi - lo)
        sizes_left = q + min_samples_leaf  # p + 1
        sizes_right = n - sizes_left
        at = c * n + (q + lo)  # (c, p) in a columns x rows matrix
        ys = targets[rows]  # columns x rows (x classes)
        cum = np.cumsum(ys, axis=1)
        if task == "classification":
            cum = cum.reshape(-1, cum.shape[2])
            left = cum[at]  # positions x classes
            right = cum[c * n + (n - 1)] - left
            impurity_left = 1.0 - np.add.reduce((left / sizes_left[:, None]) ** 2, axis=1)
            impurity_right = 1.0 - np.add.reduce((right / sizes_right[:, None]) ** 2, axis=1)
            column_parent = parent
        else:
            cum2 = np.square(ys)
            np.cumsum(cum2, axis=1, out=cum2)
            sum_left, sq_left = cum.take(at), cum2.take(at)
            last = c * n + (n - 1)
            sum_right, sq_right = cum.take(last) - sum_left, cum2.take(last) - sq_left
            impurity_left = sq_left / sizes_left - (sum_left / sizes_left) ** 2
            impurity_right = sq_right / sizes_right - (sum_right / sizes_right) ** 2
            # np.var of each sorted column, reduced over its contiguous row;
            # ys turns into the squared deviations from each column's mean
            ys -= np.add.reduce(ys, axis=1, keepdims=True) / n
            column_parent = (np.add.reduce(np.square(ys, out=ys), axis=1) / n).take(c)
        weighted = (sizes_left * impurity_left + sizes_right * impurity_right) / n
        gains = np.full(valid.shape, -np.inf)
        gains.ravel()[flat] = column_parent - weighted
        rows_best = np.argmax(gains, axis=1)  # first max: lowest threshold wins ties
        col_gains = gains[np.arange(cols.size), rows_best]
        col_gains = np.where(np.isfinite(col_gains) & (col_gains > 0.0), col_gains, 0.0)
        col = int(np.argmax(col_gains))  # first max: lowest feature wins ties
        if col_gains[col] > best[0]:
            r = lo + rows_best[col]
            a, b = float(sv[col, r]), float(sv[col, r + 1])
            threshold = 0.5 * (a + b)
            if not a <= threshold < b:  # -inf/+inf, an overflowing sum, adjacent floats
                threshold = a
            best = (float(col_gains[col]), threshold, int(cols[col]))
    return best


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    task: str,
    n_classes: int = 0,
    max_depth: int | None = None,
    min_samples_leaf: int = 1,
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
    presorted: tuple[np.ndarray, np.ndarray] | None = None,
    leaves: np.ndarray | None = None,
) -> TreeNodes:
    """Grow one tree. ``y`` is class indices (classification) or targets
    (regression). ``max_features`` draws that many split candidates per node
    from ``rng``; None considers every feature. ``presorted`` is
    ``presort(X)``, which a caller growing many trees on one X computes once;
    without it every node sorts its candidate columns. ``leaves``, an
    (n_samples, value_dim) array, receives each row's leaf value."""
    X = np.asarray(X, dtype=np.float64)
    n_samples, n_features = X.shape
    depth_cap = np.inf if max_depth is None else max_depth
    if task == "classification":
        targets = one_hot(np.asarray(y, dtype=np.int64), n_classes)
    elif task == "regression":
        targets = np.asarray(y, dtype=np.float64)
    else:
        raise ParameterError(f"unknown tree task {task!r}")
    if max_features is not None and rng is None:
        raise ParameterError("feature subsampling requires an rng")
    if min_samples_leaf < 1:
        raise ParameterError("min_samples_leaf must be >= 1")

    feature, threshold, left, right, value = [], [], [], [], []
    importances = np.zeros(n_features, dtype=np.float64)
    goes_left = np.zeros(n_samples, dtype=bool)  # per row of X, set at each split

    # (rows in ascending order, their share of presorted, depth, parent id, is left child)
    stack = [(np.arange(n_samples), presorted, 0, -1, False)]
    while stack:
        idx, carried, depth, parent, is_left = stack.pop()
        n = idx.size
        node_id = len(feature)
        if parent >= 0:
            (left if is_left else right)[parent] = node_id

        yn = targets[idx]  # the node's one-hot rows or residuals, gathered once
        mean = np.atleast_1d(np.add.reduce(yn, axis=0) / n)  # class distribution or target mean
        if task == "classification":
            impurity = 1.0 - float(np.dot(mean, mean))  # Gini
        else:
            impurity = float(np.add.reduce((yn - mean[0]) ** 2) / n)  # np.var(yn)
        best_gain, best_thr, best_feat = 0.0, 0.0, _NO_FEATURE
        if n >= 2 * min_samples_leaf and depth < depth_cap and impurity > 0.0:
            candidates = None
            if max_features is not None and max_features < n_features:
                candidates = np.sort(rng.choice(n_features, size=max_features, replace=False))
            best_gain, best_thr, best_feat = _best_splits(
                X, idx, candidates, carried, targets, task, min_samples_leaf, impurity
            )

        feature.append(best_feat)
        threshold.append(best_thr)
        left.append(-1)
        right.append(-1)
        value.append(mean)
        if best_feat == _NO_FEATURE:
            if leaves is not None:
                leaves[idx] = mean
            continue
        importances[best_feat] += (n / n_samples) * best_gain
        mask = X[idx, best_feat] <= best_thr
        searched = carried is not None and depth + 1 < depth_cap  # a capped child is a leaf
        shares = _partition(carried, goes_left, idx, mask) if searched else [None, None]
        # push right first so the left child is processed (and numbered) next;
        # popping the shares leaves no reference that outlives a child
        stack.append((idx[~mask], shares.pop(), depth + 1, node_id, False))
        stack.append((idx[mask], shares.pop(), depth + 1, node_id, True))

    return TreeNodes(
        np.asarray(feature, dtype=np.int64), np.asarray(threshold, dtype=np.float64),
        np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64),
        np.vstack(value), importances,
    )


def _partition(carried, goes_left, idx, mask):
    """The presorted (rows, values) shares of a node's left and right
    children: each column keeps its sorted order. Columns move in blocks of
    at most _BLOCK_ELEMENTS entries, so no temporary outgrows a block."""
    rows, sv = carried
    goes_left[idx] = mask
    n_left = int(np.count_nonzero(mask))
    shares = [(np.empty((rows.shape[0], size), rows.dtype), np.empty((rows.shape[0], size)))
              for size in (n_left, idx.size - n_left)]
    width = max(1, _BLOCK_ELEMENTS // idx.size)
    for start in range(0, rows.shape[0], width):
        block = slice(start, start + width)
        side = goes_left[rows[block]].ravel()
        for (child_rows, child_sv), keep in zip(shares, (side, ~side)):
            keep = np.flatnonzero(keep)
            child_rows[block].ravel()[:] = rows[block].take(keep)
            child_sv[block].ravel()[:] = sv[block].take(keep)
    return shares


def pack_trees(trees: list[TreeNodes]) -> dict[str, np.ndarray]:
    """Concatenate trees into offset-indexed flat arrays for serialization."""
    offsets = np.cumsum([0] + [t.n_nodes for t in trees])
    return {
        "offsets": offsets.astype(np.int64),
        "feature": np.concatenate([t.feature for t in trees]),
        "threshold": np.concatenate([t.threshold for t in trees]),
        "left": np.concatenate([t.left for t in trees]),
        "right": np.concatenate([t.right for t in trees]),
        "value": np.vstack([t.value for t in trees]),
        "importances": np.vstack([t.importances for t in trees]),
    }


def unpack_trees(arrays: dict[str, np.ndarray], width: int) -> list[TreeNodes]:
    """Split packed arrays into per-tree views; raise ValueError unless each
    is a tree that ``leaf_values`` walks to an end.

    Tree t holds nodes ``offsets[t]:offsets[t + 1]`` (at least one), each
    with a ``width``-entry value, and counts its child indices from its own
    first node. A leaf has feature -1 and children -1/-1. Any other node
    splits on a column of ``importances`` and has both children inside its
    own tree after itself, so every step of a walk moves forward and every
    walk ends at a leaf."""
    offsets, feature, left, right = (arrays[k] for k in ("offsets", "feature", "left", "right"))
    threshold, value, importances = arrays["threshold"], arrays["value"], arrays["importances"]
    if any(a.ndim != 1 or a.dtype.kind != "i" for a in (offsets, feature, left, right)):
        raise ValueError("tree offsets, features and children must be 1-D integer arrays")
    n, sizes = feature.size, np.diff(offsets)
    if (offsets[:1].tolist() != [0] or offsets[-1] != n or (sizes < 1).any()
            or not threshold.shape == left.shape == right.shape == (n,)
            or value.shape != (n, width) or importances.shape[:-1] != sizes.shape):
        raise ValueError("tree arrays disagree with their offsets")
    local = np.arange(n) - np.repeat(offsets[:-1], sizes)
    size = np.repeat(sizes, sizes)
    inner = (feature >= 0) & (feature < importances.shape[-1])
    inner &= (local < left) & (left < size) & (local < right) & (right < size)
    leaf = (feature == _NO_FEATURE) & (left == -1) & (right == -1)
    if not (inner | leaf).all():
        raise ValueError("a tree node has a feature or child out of range")
    bounds = zip(offsets[:-1].tolist(), offsets[1:].tolist())
    return [
        TreeNodes(feature[lo:hi], threshold[lo:hi], left[lo:hi], right[lo:hi], value[lo:hi], imp)
        for (lo, hi), imp in zip(bounds, importances)
    ]


def leaf_values(arrays: dict[str, np.ndarray], X: np.ndarray) -> np.ndarray:
    """The value of the leaf that each packed tree routes each row of X to,
    shape (rows, trees, value_dim). ``arrays`` must have passed
    ``unpack_trees``."""
    offsets, feature, threshold = arrays["offsets"], arrays["feature"], arrays["threshold"]
    left, right = arrays["left"], arrays["right"]
    roots = offsets[:-1]
    node = np.repeat(roots[None, :], X.shape[0], axis=0)  # (rows, trees) global node ids
    rows = np.arange(X.shape[0])[:, None]
    while True:
        feat = feature[node]
        split = feat != _NO_FEATURE
        if not split.any():
            return arrays["value"][node]
        # a leaf's feature -1 reads the last column; the result is discarded
        go_left = X[rows, feat] <= threshold[node]
        child = np.where(go_left, left[node], right[node])  # counted from the tree's root
        node = np.where(split, roots + child, node)


def sum_leaf_values(
    arrays: dict[str, np.ndarray], X: np.ndarray, n_groups: int, scale: float
) -> np.ndarray:
    """Per row of X, the sum over rounds of ``scale`` x the leaf value of each
    group's tree, shape (rows, n_groups x value_dim); tree t is the tree of
    group t % n_groups in round t // n_groups. ``arrays`` hold at least one
    tree."""
    X = np.asarray(X, dtype=np.float64)
    n_trees, width = arrays["offsets"].size - 1, arrays["value"].shape[1]
    total = np.zeros((X.shape[0], n_groups * width), dtype=np.float64)
    step = max(1, _BLOCK_ELEMENTS // (n_trees * width))
    for lo in range(0, X.shape[0], step):
        leaves = scale * leaf_values(arrays, X[lo : lo + step])
        rounds = leaves.reshape(leaves.shape[0], -1, n_groups * width)
        # adding to the zeros makes a -0.0 sum +0.0, as a loop starting at zero would
        total[lo : lo + step] += np.cumsum(rounds, axis=1)[:, -1]
    return total
