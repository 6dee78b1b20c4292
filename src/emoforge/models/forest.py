"""Random forest: bagged Gini trees with per-split feature subsampling."""

from __future__ import annotations

import math
from numbers import Integral

import numpy as np

from ..errors import ParameterError
from .base import check_training_data
from .tree import TreeModel, check_trees, grow_forest, sum_leaf_values


class RandomForest(TreeModel):
    """Ensemble of trees fit on bootstrap resamples.

    Each split considers ceil(sqrt(d)) randomly drawn features. Prediction
    averages the per-tree leaf class distributions (a soft vote; the argmax
    coincides with the hard majority when leaves are pure). Tree t draws all
    of its randomness from a generator seeded with seed + t, its bootstrap
    sample first, so each tree is the one it would be if grown alone, and the
    trees grow in lockstep (``grow_forest``), reading X through their sample
    indices. ``n_trees=1, bootstrap=False, max_features=None`` grows one plain
    CART tree on all rows and features.
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
        self._set_tree_params(max_depth, min_samples_leaf)
        if not (max_features is None or isinstance(max_features, str) and max_features == "sqrt"
                or isinstance(max_features, Integral) and not isinstance(max_features, bool)
                and max_features >= 1):
            raise ParameterError(f"max_features must be 'sqrt', None or an integer >= 1, "
                                 f"got {max_features!r}")
        self.n_trees = n_trees
        self.seed = seed
        self.bootstrap = bootstrap
        self.max_features = max_features
        self.n_classes = n_classes

    def fit(self, X, y):
        X, y, self.n_classes = check_training_data(X, y, self.n_classes)
        n = X.shape[0]
        rngs = [np.random.default_rng(self.seed + t) for t in range(self.n_trees)]
        if self.bootstrap:  # each tree's first draw; the trees read X through these rows
            samples = np.stack([rng.integers(0, n, size=n) for rng in rngs])
        else:
            samples = np.broadcast_to(np.arange(n), (self.n_trees, n))
        max_features = (math.ceil(math.sqrt(X.shape[1])) if self.max_features == "sqrt"
                        else self.max_features)
        self._set_arrays(grow_forest(X, y, samples, rngs, self.n_classes, self.max_depth,
                                     self.min_samples_leaf, max_features))
        return self

    def predict_proba(self, X):
        # _set_arrays holds the packed tree count to n_trees
        return sum_leaf_values(self._packed(), X, 1, 1.0) / self.n_trees

    def _set_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        n_trees = check_trees(arrays, self.n_classes)
        if n_trees != self.n_trees:
            raise ValueError(f"{n_trees} trees, not the forest's {self.n_trees}")
        self.packed_ = arrays
