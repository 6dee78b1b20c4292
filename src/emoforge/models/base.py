"""Shared classifier interface and small numeric helpers."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..errors import DegenerateLabelError, ParameterError


class ProbabilisticClassifier(ABC):
    """Multi-class classifier mapping feature rows to probability rows.

    predict_proba returns a row-stochastic (N, C) matrix; predict takes the
    argmax with ties broken toward the lowest class index.
    """

    n_classes: int | None = None

    @abstractmethod
    def fit(self, X: np.ndarray, y: np.ndarray) -> "ProbabilisticClassifier":
        ...

    @abstractmethod
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        ...

    def predict(self, X: np.ndarray) -> np.ndarray:
        return predict_from_proba(self.predict_proba(X))


def predict_from_proba(proba: np.ndarray) -> np.ndarray:
    """Argmax per row; np.argmax keeps the first maximum, i.e. lowest index."""
    return np.argmax(proba, axis=1)


def check_training_labels(y: np.ndarray, n_classes: int | None) -> int:
    """Validate integer labels and resolve the class count."""
    y = np.asarray(y)
    if y.size == 0:
        raise ParameterError("training labels are empty")
    if y.min() < 0:
        raise ParameterError("class labels must be non-negative integers")
    distinct = np.unique(y).size
    if distinct < 2:
        raise DegenerateLabelError("training data holds a single class")
    resolved = int(y.max()) + 1 if n_classes is None else int(n_classes)
    if y.max() >= resolved:
        raise ParameterError(f"label {int(y.max())} outside {resolved} classes")
    return resolved


def one_hot(y: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((y.size, n_classes), dtype=np.float64)
    out[np.arange(y.size), y] = 1.0
    return out


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, split by sign so exp never overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shift-stabilized."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def log_loss(proba: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy of true-class probabilities, floored away from 0."""
    p = np.clip(proba[np.arange(y.size), y], 1e-300, None)
    return float(-np.mean(np.log(p)))
