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
from .tree import TreeNodes, grow_tree, pack_trees, unpack_trees


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
        self.trees_: list[list[TreeNodes]] = []  # [round][class]
        self.train_loss_history_: list[float] = []

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self.n_classes = check_training_labels(y, self.n_classes)
        targets = one_hot(y, self.n_classes)
        logits = np.zeros((X.shape[0], self.n_classes), dtype=np.float64)
        self.trees_ = []
        proba = softmax(logits)  # each round's probabilities serve its loss and the next residuals
        self.train_loss_history_ = [log_loss(proba, y)]
        for _ in range(self.n_rounds):
            round_trees = []
            for c in range(self.n_classes):
                residual = targets[:, c] - proba[:, c]
                tree = grow_tree(
                    X,
                    residual,
                    task="regression",
                    max_depth=self.max_depth,
                    min_samples_leaf=self.min_samples_leaf,
                )
                round_trees.append(tree)
                logits[:, c] += self.learning_rate * tree.apply(X)[:, 0]
            self.trees_.append(round_trees)
            proba = softmax(logits)
            self.train_loss_history_.append(log_loss(proba, y))
        return self

    def decision_function(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        logits = np.zeros((X.shape[0], self.n_classes), dtype=np.float64)
        for round_trees in self.trees_:
            for c, tree in enumerate(round_trees):
                logits[:, c] += self.learning_rate * tree.apply(X)[:, 0]
        return logits

    def predict_proba(self, X):
        if self.n_classes is None:
            raise ParameterError("model is not fitted")
        return softmax(self.decision_function(X))

    @property
    def feature_importances_(self) -> np.ndarray:
        if not self.trees_:
            raise ParameterError("model is not fitted")
        flat = [t for round_trees in self.trees_ for t in round_trees]
        return np.sum([t.importances for t in flat], axis=0)

    def _arrays(self) -> dict[str, np.ndarray]:
        return pack_trees([t for round_trees in self.trees_ for t in round_trees])

    def _set_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        flat = unpack_trees(arrays, 1)
        c = self.n_classes
        self.trees_ = [flat[i : i + c] for i in range(0, len(flat), c)]
