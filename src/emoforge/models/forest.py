"""Random forest: bagged Gini trees with per-split feature subsampling."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ParameterError
from .base import ProbabilisticClassifier, check_training_labels
from .tree import TreeNodes, grow_tree, pack_trees, sum_leaf_values, unpack_trees


class RandomForest(ProbabilisticClassifier):
    """Ensemble of trees fit on bootstrap resamples.

    Each split considers ceil(sqrt(d)) randomly drawn features. Prediction
    averages the per-tree leaf class distributions (a soft vote; the argmax
    coincides with the hard majority when leaves are pure). Tree t draws all
    of its randomness from a generator seeded with seed + t, so fitting is
    reproducible and could run tree-parallel without changing the result.
    ``n_trees=1, bootstrap=False, max_features=None`` grows one plain CART
    tree on all rows and features.
    """

    def __init__(
        self,
        n_trees: int = 100,
        max_depth: int | None = 16,
        min_samples_leaf: int = 1,
        seed: int = 0,
        bootstrap: bool = True,
        max_features: int | str | None = "sqrt",
        n_classes: int | None = None,
    ):
        if n_trees < 1:
            raise ParameterError("n_trees must be >= 1")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed
        self.bootstrap = bootstrap
        self.max_features = max_features
        self.n_classes = n_classes
        self.packed_: dict[str, np.ndarray] | None = None  # the trees, as pack_trees writes them
        self.trees_: list[TreeNodes] = []  # per-tree views into packed_

    def _resolve_max_features(self, n_features: int) -> int | None:
        if self.max_features == "sqrt":
            return math.ceil(math.sqrt(n_features))
        if self.max_features is None:
            return None
        return int(self.max_features)

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self.n_classes = check_training_labels(y, self.n_classes)
        n = X.shape[0]
        max_features = self._resolve_max_features(X.shape[1])
        trees = []
        for t in range(self.n_trees):
            rng = np.random.default_rng(self.seed + t)
            if self.bootstrap:
                sample = rng.integers(0, n, size=n)
                Xs, ys = X[sample], y[sample]
            else:
                Xs, ys = X, y
            trees.append(
                grow_tree(
                    Xs,
                    ys,
                    task="classification",
                    n_classes=self.n_classes,
                    max_depth=self.max_depth,
                    min_samples_leaf=self.min_samples_leaf,
                    max_features=max_features,
                    rng=rng,
                )
            )
        self._set_arrays(pack_trees(trees))
        return self

    def predict_proba(self, X):
        if self.packed_ is None:
            raise ParameterError("forest is not fitted")
        return sum_leaf_values(self.packed_, X, 1, 1.0) / len(self.trees_)

    @property
    def feature_importances_(self) -> np.ndarray:
        if self.packed_ is None:
            raise ParameterError("forest is not fitted")
        return np.sum(self.packed_["importances"], axis=0)

    def _arrays(self) -> dict[str, np.ndarray]:
        return self.packed_

    def _set_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        trees = unpack_trees(arrays, self.n_classes)
        if not trees:
            raise ValueError("a forest needs at least one tree")
        self.packed_, self.trees_ = arrays, trees
