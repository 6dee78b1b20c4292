"""Multinomial gradient boosting with regression trees.

Logits start at zero (a uniform prior). Every round fits one
variance-splitting tree per class to that class's softmax residual (the
negative cross-entropy gradient) and adds its prediction, scaled by the
learning rate, to the class logit. Leaves carry plain residual means;
there is no second-order weighting.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from .base import ProbabilisticClassifier, check_training_labels, log_loss, one_hot, softmax
from .tree import TreeNodes, grow_tree, leaf_values, pack_trees, sum_leaf_values, unpack_trees


class GradientBoosting(ProbabilisticClassifier):
    def __init__(
        self,
        n_rounds: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        seed: int = 0,
        n_classes: int | None = None,
    ):
        if n_rounds < 1:
            raise ParameterError("n_rounds must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ParameterError("learning_rate must be in (0, 1]")
        self.n_rounds = n_rounds
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed
        self.n_classes = n_classes
        self.packed_: dict[str, np.ndarray] | None = None  # the trees, as pack_trees writes them
        self.trees_: list[list[TreeNodes]] = []  # [round][class] views into packed_
        self.train_loss_history_: list[float] = []

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self.n_classes = check_training_labels(y, self.n_classes)
        targets = one_hot(y, self.n_classes)
        logits = np.zeros((X.shape[0], self.n_classes), dtype=np.float64)
        trees = []
        proba = softmax(logits)  # each round's probabilities serve its loss and the next residuals
        self.train_loss_history_ = [log_loss(proba, y)]
        for _ in range(self.n_rounds):
            for c in range(self.n_classes):
                residual = targets[:, c] - proba[:, c]
                tree = grow_tree(
                    X,
                    residual,
                    task="regression",
                    max_depth=self.max_depth,
                    min_samples_leaf=self.min_samples_leaf,
                )
                trees.append(tree)
                logits[:, c] += self.learning_rate * leaf_values(pack_trees([tree]), X)[:, 0, 0]
            proba = softmax(logits)
            self.train_loss_history_.append(log_loss(proba, y))
        self._set_arrays(pack_trees(trees))
        return self

    def decision_function(self, X) -> np.ndarray:
        if self.packed_ is None:  # no rounds yet: the uniform prior
            return np.zeros((np.shape(X)[0], self.n_classes), dtype=np.float64)
        return sum_leaf_values(self.packed_, X, self.n_classes, self.learning_rate)

    def predict_proba(self, X):
        if self.n_classes is None:
            raise ParameterError("model is not fitted")
        return softmax(self.decision_function(X))

    @property
    def feature_importances_(self) -> np.ndarray:
        if not self.trees_:
            raise ParameterError("model is not fitted")
        return np.sum(self.packed_["importances"], axis=0)

    def _arrays(self) -> dict[str, np.ndarray]:
        return self.packed_

    def _set_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        flat = unpack_trees(arrays, 1)
        c = self.n_classes
        if len(flat) % c:
            raise ValueError(f"{len(flat)} trees do not fill rounds of {c} classes")
        self.packed_ = arrays
        self.trees_ = [flat[i : i + c] for i in range(0, len(flat), c)]
