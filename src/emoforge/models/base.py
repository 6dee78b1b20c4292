"""Shared classifier interface and small numeric helpers."""

from __future__ import annotations

import inspect
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
        return np.argmax(self.predict_proba(X), axis=1)

    @classmethod
    def state_keys(cls) -> tuple[str, ...]:
        """Constructor parameters; each is kept as an attribute of the same
        name, so they double as the keys of the state meta."""
        return tuple(inspect.signature(cls).parameters)

    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """(meta, arrays): the constructor arguments and the fitted arrays
        that the subclass's ``_arrays`` names."""
        return {key: getattr(self, key) for key in self.state_keys()}, self._arrays()

    @classmethod
    def from_state(cls, meta: dict, arrays: dict[str, np.ndarray]):
        model = cls(**meta)
        model._set_arrays(arrays)
        return model


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
    """Elementwise logistic function, split by sign so exp never overflows:
    1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below, both from e = e^-|z|."""
    e = np.exp(np.minimum(z, -z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shift-stabilized."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def log_loss(proba: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy of true-class probabilities, floored away from 0."""
    p = np.clip(proba[np.arange(y.size), y], 1e-300, None)
    return float(-np.mean(np.log(p)))
