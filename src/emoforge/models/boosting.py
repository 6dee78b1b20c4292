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
from .base import check_training_data, log_loss, one_hot, softmax
from .tree import TreeModel, check_trees, concat_trees, grow_tree, presort, sum_leaf_values


class GradientBoosting(TreeModel):
    def __init__(
        self,
        n_rounds: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        n_classes: int | None = None,
    ):
        if n_rounds < 1:
            raise ParameterError("n_rounds must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ParameterError("learning_rate must be in (0, 1]")
        self._set_tree_params(max_depth, min_samples_leaf)
        self.n_rounds = n_rounds
        self.learning_rate = learning_rate
        self.n_classes = n_classes
        self.train_loss_history_: list[float] = []

    def fit(self, X, y):
        X, y, self.n_classes = check_training_data(X, y, self.n_classes)
        targets = one_hot(y, self.n_classes)
        logits = np.zeros((X.shape[0], self.n_classes), dtype=np.float64)
        trees = []
        presorted = presort(X)  # every tree splits the same columns
        step = np.empty((X.shape[0], 1), dtype=np.float64)  # each row's leaf value
        proba = softmax(logits)  # each round's probabilities serve its loss and the next residuals
        self.train_loss_history_ = [log_loss(proba, y)]
        for _ in range(self.n_rounds):
            for c in range(self.n_classes):
                residual = targets[:, c] - proba[:, c]
                tree = grow_tree(
                    X,
                    residual,
                    presorted,
                    max_depth=self.max_depth,
                    min_samples_leaf=self.min_samples_leaf,
                    leaves=step,
                )
                trees.append(tree)
                logits[:, c] += self.learning_rate * step[:, 0]
            proba = softmax(logits)
            self.train_loss_history_.append(log_loss(proba, y))
        self._set_arrays(concat_trees(trees))
        return self

    def decision_function(self, X) -> np.ndarray:
        return sum_leaf_values(self._packed(), X, self.n_classes, self.learning_rate)

    def predict_proba(self, X):
        return softmax(self.decision_function(X))

    @property
    def trees_(self) -> list:
        """``TreeModel.trees_`` in rounds of one tree per class."""
        flat, c = super().trees_, self.n_classes
        return [flat[i : i + c] for i in range(0, len(flat), c)]

    def _set_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        n_trees, c = check_trees(arrays, 1), self.n_classes
        if n_trees != self.n_rounds * c:
            raise ValueError(f"{n_trees} trees, not {self.n_rounds} rounds of {c} classes")
        self.packed_ = arrays
