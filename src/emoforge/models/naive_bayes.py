"""Multinomial naive Bayes over non-negative count-like features."""

from __future__ import annotations

import numpy as np

from ..errors import DataError, ParameterError
from .base import ProbabilisticClassifier, check_training_data, softmax

# Finite stand-in for log(0): keeps zero-probability events at posterior 0
# without letting -inf * 0 produce NaN in the score matmul.
_LOG_FLOOR = -1e12


class MultinomialNaiveBayes(ProbabilisticClassifier):
    """Event-count model: class priors are empirical frequencies and feature
    probabilities are Lidstone-smoothed column sums. Scoring runs in log
    space; with alpha = 0, events unseen for a class send that class's
    posterior to zero rather than raising."""

    _ARRAYS = ("log_prior", "log_prob")

    def __init__(self, alpha: float = 1.0, n_classes: int | None = None):
        if alpha < 0:
            raise ParameterError("alpha must be >= 0")
        self.alpha = alpha
        self.n_classes = n_classes
        self.log_prior_: np.ndarray | None = None
        self.log_prob_: np.ndarray | None = None  # (C, d)

    def fit(self, X, y):
        X, y, self.n_classes = check_training_data(X, y, self.n_classes)
        if (X < 0).any():
            raise DataError("multinomial NB requires non-negative features")
        n, d = X.shape
        counts = np.zeros(self.n_classes, dtype=np.float64)
        totals = np.zeros((self.n_classes, d), dtype=np.float64)
        for c in range(self.n_classes):
            mask = y == c
            counts[c] = mask.sum()
            if mask.any():
                totals[c] = X[mask].sum(axis=0)
        prior = counts / n
        self.log_prior_ = np.where(prior > 0, np.log(np.where(prior > 0, prior, 1.0)), _LOG_FLOOR)

        smoothed = totals + self.alpha
        denom = smoothed.sum(axis=1, keepdims=True)
        prob = np.divide(smoothed, denom, out=np.full_like(smoothed, 1.0 / d), where=denom > 0)
        self.log_prob_ = np.where(prob > 0, np.log(np.where(prob > 0, prob, 1.0)), _LOG_FLOOR)
        return self

    def predict_proba(self, X):
        if self.log_prob_ is None:
            raise ParameterError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if (X < 0).any():
            raise DataError("multinomial NB requires non-negative features")
        return softmax(X @ self.log_prob_.T + self.log_prior_)
