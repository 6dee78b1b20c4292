"""CART-style decision trees over flat node arrays.

Both tree flavors share one builder: classification trees split on Gini
impurity and keep class distributions at the leaves, regression trees split
on variance and keep means. Candidate thresholds are midpoints between
consecutive distinct sorted feature values. A node scores every candidate
feature in one pass (a stable argsort per column, cumulative class counts or
target sums, a position x feature gain matrix). Equal-gain ties resolve to
the lowest feature index, then the lowest threshold, and a split needs a
strictly positive gain. Every sum runs in the order a one-column search
would use, so trees match it bit for bit: class counts are summed along the
last axis, and the regression parent variance is taken on a Fortran-ordered
copy so that each column reduces over contiguous memory.

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
# split search gathers and scores at once; nodes with more candidate columns
# are scored in column blocks, so a wide TFIDF matrix is never copied whole.
# The traversal likewise walks rows in blocks of at most this many
# (row, tree, value) leaf entries.
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


def _best_splits(
    X: np.ndarray, idx: np.ndarray, candidates: np.ndarray, yn: np.ndarray, task: str,
    min_samples_leaf: int, parent: float,
) -> tuple[float, float, int]:
    """Best (gain, threshold, feature) over the ``candidates`` columns of the
    node holding rows ``idx`` of X; gain 0.0 means no split.

    ``yn`` is the node's one-hot labels (classification) or targets
    (regression). ``parent`` is the node's Gini impurity; regression replaces
    it by each column's variance in that column's sorted order.
    """
    n = idx.size
    # split after sorted position i: the left child takes the first i+1 rows
    sizes_left = np.arange(1, n)[:, None]
    sizes_right = n - sizes_left
    size_ok = (sizes_left >= min_samples_leaf) & (sizes_right >= min_samples_leaf)
    width = max(1, _BLOCK_ELEMENTS // yn.size)  # yn.size is rows x classes
    best = (0.0, 0.0, _NO_FEATURE)
    for lo in range(0, candidates.size, width):
        cols = candidates[lo : lo + width]
        block = X[np.ix_(idx, cols)]
        order = np.argsort(block, axis=0, kind="stable")
        sv = np.take_along_axis(block, order, axis=0)
        valid = (sv[:-1] < sv[1:]) & size_ok
        ys = yn[order]
        cum = np.cumsum(ys, axis=0)
        if task == "classification":
            left = cum[:-1]  # rows x columns x classes
            right = cum[-1] - left
            impurity_left = 1.0 - np.sum((left / sizes_left[..., None]) ** 2, axis=2)
            impurity_right = 1.0 - np.sum((right / sizes_right[..., None]) ** 2, axis=2)
        else:
            cum2 = np.cumsum(ys**2, axis=0)
            sum_left, sq_left = cum[:-1], cum2[:-1]
            sum_right, sq_right = cum[-1] - sum_left, cum2[-1] - sq_left
            impurity_left = sq_left / sizes_left - (sum_left / sizes_left) ** 2
            impurity_right = sq_right / sizes_right - (sum_right / sizes_right) ** 2
            parent = np.var(np.asfortranarray(ys), axis=0)  # == np.var(ys[:, j]) bit for bit
        weighted = (sizes_left * impurity_left + sizes_right * impurity_right) / n
        gains = np.where(valid, parent - weighted, -np.inf)
        rows = np.argmax(gains, axis=0)  # first max: lowest threshold wins ties
        col_gains = gains[rows, np.arange(cols.size)]
        col_gains = np.where(np.isfinite(col_gains) & (col_gains > 0.0), col_gains, 0.0)
        col = int(np.argmax(col_gains))  # first max: lowest feature wins ties
        if col_gains[col] > best[0]:
            r = rows[col]
            threshold = 0.5 * (sv[r, col] + sv[r + 1, col])
            best = (float(col_gains[col]), float(threshold), int(cols[col]))
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
) -> TreeNodes:
    """Grow one tree. ``y`` is class indices (classification) or targets
    (regression). ``max_features`` draws that many split candidates per node
    from ``rng``; None considers every feature."""
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

    feature, threshold, left, right, value = [], [], [], [], []
    importances = np.zeros(n_features, dtype=np.float64)

    stack = [(np.arange(n_samples), 0, -1, False)]  # (rows, depth, parent id, is left child)
    while stack:
        idx, depth, parent, is_left = stack.pop()
        node_id = len(feature)
        if parent >= 0:
            (left if is_left else right)[parent] = node_id

        yn = targets[idx]  # the node's one-hot rows or residuals, gathered once
        mean = np.atleast_1d(yn.mean(axis=0))  # class distribution or target mean
        if task == "classification":
            impurity = 1.0 - float(np.dot(mean, mean))  # Gini
        else:
            impurity = float(np.var(yn))
        best_gain, best_thr, best_feat = 0.0, 0.0, _NO_FEATURE
        if idx.size >= 2 * min_samples_leaf and depth < depth_cap and impurity > 0.0:
            if max_features is not None and max_features < n_features:
                candidates = np.sort(rng.choice(n_features, size=max_features, replace=False))
            else:
                candidates = np.arange(n_features)
            best_gain, best_thr, best_feat = _best_splits(
                X, idx, candidates, yn, task, min_samples_leaf, impurity
            )

        feature.append(best_feat)
        threshold.append(best_thr)
        left.append(-1)
        right.append(-1)
        value.append(mean)
        if best_feat == _NO_FEATURE:
            continue
        importances[best_feat] += (idx.size / n_samples) * best_gain
        mask = X[idx, best_feat] <= best_thr
        # push right first so the left child is processed (and numbered) next
        stack.append((idx[~mask], depth + 1, node_id, False))
        stack.append((idx[mask], depth + 1, node_id, True))

    return TreeNodes(
        np.asarray(feature, dtype=np.int64), np.asarray(threshold, dtype=np.float64),
        np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64),
        np.vstack(value), importances,
    )


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
    group t % n_groups in round t // n_groups. No trees sum to zero."""
    X = np.asarray(X, dtype=np.float64)
    n_trees, width = arrays["offsets"].size - 1, arrays["value"].shape[1]
    total = np.zeros((X.shape[0], n_groups * width), dtype=np.float64)
    if n_trees == 0:
        return total
    step = max(1, _BLOCK_ELEMENTS // (n_trees * width))
    for lo in range(0, X.shape[0], step):
        leaves = scale * leaf_values(arrays, X[lo : lo + step])
        rounds = leaves.reshape(leaves.shape[0], -1, n_groups * width)
        # adding to the zeros makes a -0.0 sum +0.0, as a loop starting at zero would
        total[lo : lo + step] += np.cumsum(rounds, axis=1)[:, -1]
    return total
