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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from .base import ProbabilisticClassifier, check_training_labels, one_hot

_NO_FEATURE = -1
# Upper bound on the elements of one (rows x columns x classes) block that the
# split search gathers and scores at once; nodes with more candidate columns
# are scored in column blocks, so a wide TFIDF matrix is never copied whole.
_BLOCK_ELEMENTS = 1 << 18


@dataclass
class TreeNodes:
    """Flat tree storage; feature == -1 marks a leaf."""

    feature: np.ndarray  # (n_nodes,) int64
    threshold: np.ndarray  # (n_nodes,) float64
    left: np.ndarray  # (n_nodes,) int64
    right: np.ndarray  # (n_nodes,) int64
    value: np.ndarray  # (n_nodes, value_dim) float64
    importances: np.ndarray  # (n_features,) unnormalized impurity decrease

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Route every row to its leaf value, shape (N, value_dim)."""
        X = np.asarray(X, dtype=np.float64)
        idx = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            feats = self.feature[idx]
            active = feats != _NO_FEATURE
            if not active.any():
                break
            rows = np.nonzero(active)[0]
            go_left = X[rows, feats[rows]] <= self.threshold[idx[rows]]
            idx[rows] = np.where(go_left, self.left[idx[rows]], self.right[idx[rows]])
        return self.value[idx]


def _gini(counts: np.ndarray, total: float) -> float:
    if total <= 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.dot(p, p))


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
        y = np.asarray(y, dtype=np.int64)
        y_hot = one_hot(y, n_classes)
        value_dim = n_classes
    elif task == "regression":
        y = np.asarray(y, dtype=np.float64)
        y_hot = None
        value_dim = 1
    else:
        raise ParameterError(f"unknown tree task {task!r}")
    if max_features is not None and rng is None:
        raise ParameterError("feature subsampling requires an rng")

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[np.ndarray] = []
    importances = np.zeros(n_features, dtype=np.float64)

    def node_value(idx: np.ndarray) -> np.ndarray:
        if task == "classification":
            counts = y_hot[idx].sum(axis=0)
            return counts / counts.sum()
        return np.array([y[idx].mean()])

    def node_impurity(idx: np.ndarray) -> float:
        if task == "classification":
            return _gini(y_hot[idx].sum(axis=0), float(idx.size))
        return float(np.var(y[idx]))

    # stack of (sample indices, depth, parent node id, is_left_child)
    stack: list[tuple[np.ndarray, int, int, bool]] = [
        (np.arange(n_samples), 0, -1, False)
    ]
    while stack:
        idx, depth, parent, is_left = stack.pop()
        node_id = len(feature)
        if parent >= 0:
            if is_left:
                left[parent] = node_id
            else:
                right[parent] = node_id

        impurity = node_impurity(idx)
        splittable = (
            idx.size >= 2 * min_samples_leaf
            and depth < depth_cap
            and impurity > 0.0
        )
        best_feat = _NO_FEATURE
        if splittable:
            if max_features is not None and max_features < n_features:
                candidates = np.sort(rng.choice(n_features, size=max_features, replace=False))
            else:
                candidates = np.arange(n_features)
            yn = y_hot[idx] if task == "classification" else y[idx]
            best_gain, best_thr, best_feat = _best_splits(
                X, idx, candidates, yn, task, min_samples_leaf, impurity
            )

        if best_feat == _NO_FEATURE:
            feature.append(_NO_FEATURE)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(node_value(idx))
            continue

        importances[best_feat] += (idx.size / n_samples) * best_gain
        feature.append(best_feat)
        threshold.append(best_thr)
        left.append(-1)
        right.append(-1)
        value.append(node_value(idx))
        mask = X[idx, best_feat] <= best_thr
        # push right first so the left child is processed (and numbered) next
        stack.append((idx[~mask], depth + 1, node_id, False))
        stack.append((idx[mask], depth + 1, node_id, True))

    return TreeNodes(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.vstack(value),
        importances=importances,
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


def unpack_trees(arrays: dict[str, np.ndarray]) -> list[TreeNodes]:
    offsets = arrays["offsets"]
    trees = []
    for i in range(offsets.size - 1):
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        trees.append(
            TreeNodes(
                feature=arrays["feature"][lo:hi],
                threshold=arrays["threshold"][lo:hi],
                left=arrays["left"][lo:hi],
                right=arrays["right"][lo:hi],
                value=arrays["value"][lo:hi],
                importances=arrays["importances"][i],
            )
        )
    return trees


class DecisionTreeClassifier(ProbabilisticClassifier):
    """Single Gini tree; building block for the forest and a model on its own."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        n_classes: int | None = None,
    ):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.n_classes = n_classes
        self.tree_: TreeNodes | None = None

    def fit(self, X, y):
        y = np.asarray(y, dtype=np.int64)
        self.n_classes = check_training_labels(y, self.n_classes)
        self.tree_ = grow_tree(
            X,
            y,
            task="classification",
            n_classes=self.n_classes,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
        )
        return self

    def predict_proba(self, X):
        if self.tree_ is None:
            raise ParameterError("tree is not fitted")
        return self.tree_.apply(X)
