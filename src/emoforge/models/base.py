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
    #: The fitted arrays of the default ``_arrays``: each kept as the attribute
    #: of its name plus "_", and stored in a model file under its name.
    _ARRAYS: tuple[str, ...]

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

    def _arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, f"{name}_") for name in self._ARRAYS}

    def _set_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for name in self._ARRAYS:
            setattr(self, f"{name}_", arrays[name])


def check_training_data(X, y, n_classes: int | None, sequences: bool = False):
    """Validate a training set and resolve the class count: X is a 2-D matrix
    or, with ``sequences``, also a non-empty list of 2-D sequences of one
    width, with at least one column; y holds one non-negative integer label
    per row or sequence, of at least two classes. X need not be finite.
    Returns X as float64 (a list stays a list of sequences), y as int64 and
    the class count."""
    try:
        if sequences and isinstance(X, list):
            X = [np.asarray(s, dtype=np.float64) for s in X]
            if not X or X[0].ndim != 2 or len({s.shape[1:] for s in X}) != 1:
                raise ParameterError("training sequences must be a non-empty list of 2-D "
                                     "arrays of one width")
        else:
            X = np.asarray(X, dtype=np.float64)
            if X.ndim != 2:
                raise ParameterError(f"training input must be a 2-D matrix, not {X.ndim}-D")
        y = np.asarray(y, dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"training input is not numeric ({exc})") from exc
    if (X[0] if isinstance(X, list) else X).shape[1] == 0:
        raise ParameterError("training input has no column")
    if y.ndim != 1 or y.size != len(X):
        raise ParameterError(f"{y.size} labels do not match {len(X)} training rows")
    if y.size == 0:
        raise ParameterError("training labels are empty")
    if y.min() < 0:
        raise ParameterError("class labels must be non-negative integers")
    if np.unique(y).size < 2:
        raise DegenerateLabelError("training data holds a single class")
    resolved = int(y.max()) + 1 if n_classes is None else int(n_classes)
    if y.max() >= resolved:
        raise ParameterError(f"label {int(y.max())} outside {resolved} classes")
    return X, y, resolved


def flatten(arrays) -> np.ndarray:
    """The arrays raveled into one parameter vector, in order."""
    return np.concatenate([a.ravel() for a in arrays])


def assign(arrays, vec: np.ndarray) -> None:
    """Write ``vec``, laid out as ``flatten`` lays out ``arrays``, back into
    those arrays in place; ParameterError unless the sizes match."""
    if vec.size != sum(a.size for a in arrays):
        raise ParameterError("parameter vector size mismatch")
    pos = 0
    for a in arrays:
        a[...] = vec[pos : pos + a.size].reshape(a.shape)
        pos += a.size


def one_hot(y: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((y.size, n_classes), dtype=np.float64)
    out[np.arange(y.size), y] = 1.0
    return out


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise logistic function, split by sign so exp never overflows:
    1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below, both from e = e^-|z|.
    ``out``, which may be ``z`` itself, receives the result."""
    e = np.exp(np.minimum(z, -z))
    return np.divide(np.where(z >= 0, 1.0, e), 1.0 + e, out=out)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shift-stabilized."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def log_loss(proba: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy of true-class probabilities, floored away from 0."""
    p = np.clip(proba[np.arange(y.size), y], 1e-300, None)
    return float(-np.mean(np.log(p)))
