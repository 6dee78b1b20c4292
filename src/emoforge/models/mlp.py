"""Feed-forward network: rectifier hidden layers, softmax cross-entropy,
mini-batch gradient descent with momentum.

Hidden weights start uniform in +-1/sqrt(fan_in); the output layer starts at
zero so an untrained network predicts uniform probabilities and relabeling
classes permutes the training trajectory column-for-column.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from .base import ProbabilisticClassifier, check_training_labels, log_loss, one_hot, softmax


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "tanh":
        return np.tanh(z)
    raise ParameterError(f"unknown activation {kind!r}")


def _activate_grad(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    return 1.0 - a**2


class MlpClassifier(ProbabilisticClassifier):
    def __init__(
        self,
        hidden_sizes: tuple[int, ...] = (64,),
        epochs: int = 200,
        learning_rate: float = 0.05,
        batch_size: int = 32,
        momentum: float = 0.9,
        activation: str = "relu",
        seed: int = 0,
        n_classes: int | None = None,
    ):
        if not hidden_sizes:
            raise ParameterError("hidden_sizes must be non-empty")
        if epochs < 1:
            raise ParameterError("epochs must be >= 1")
        if batch_size < 1:
            raise ParameterError("batch_size must be >= 1")
        if not learning_rate > 0:
            raise ParameterError("learning_rate must be > 0")
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        if min(self.hidden_sizes) < 1:
            raise ParameterError("every hidden size must be >= 1")
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.momentum = momentum
        self.activation = activation
        self.seed = seed
        self.n_classes = n_classes
        self.weights_: list[np.ndarray] = []
        self.biases_: list[np.ndarray] = []
        self.loss_history_: list[float] = []

    def init_params(self, n_features: int, n_classes: int,
                    rng: np.random.Generator | None = None) -> None:
        rng = rng or np.random.default_rng(self.seed)
        self.n_classes = n_classes
        sizes = [n_features, *self.hidden_sizes, n_classes]
        self.weights_ = []
        self.biases_ = []
        for i in range(len(sizes) - 1):
            fan_in = sizes[i]
            if i == len(sizes) - 2:
                w = np.zeros((sizes[i + 1], fan_in))
            else:
                bound = 1.0 / np.sqrt(fan_in)
                w = rng.uniform(-bound, bound, size=(sizes[i + 1], fan_in))
            self.weights_.append(w)
            self.biases_.append(np.zeros(sizes[i + 1]))

    def _forward(self, X: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Return pre-activations and activations per layer (inputs first)."""
        zs: list[np.ndarray] = []
        activations = [X]
        a = X
        last = len(self.weights_) - 1
        for i, (w, b) in enumerate(zip(self.weights_, self.biases_)):
            z = a @ w.T + b
            zs.append(z)
            a = z if i == last else _activate(z, self.activation)
            activations.append(a)
        return zs, activations

    def predict_proba(self, X):
        if not self.weights_:
            raise ParameterError("network is not initialized")
        X = np.asarray(X, dtype=np.float64)
        _, activations = self._forward(X)
        return softmax(activations[-1])

    def loss(self, X: np.ndarray, y: np.ndarray) -> float:
        return log_loss(self.predict_proba(X), np.asarray(y, dtype=np.int64))

    def gradients(self, X: np.ndarray, y: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Mean cross-entropy gradients for every weight matrix and bias."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        n = X.shape[0]
        zs, activations = self._forward(X)
        delta = (softmax(activations[-1]) - one_hot(y, self.n_classes)) / n
        grads_w = [np.zeros_like(w) for w in self.weights_]
        grads_b = [np.zeros_like(b) for b in self.biases_]
        for i in range(len(self.weights_) - 1, -1, -1):
            grads_w[i] = delta.T @ activations[i]
            grads_b[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights_[i]) * _activate_grad(
                    zs[i - 1], activations[i], self.activation
                )
        return grads_w, grads_b

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self.n_classes = check_training_labels(y, self.n_classes)
        rng = np.random.default_rng(self.seed)
        self.init_params(X.shape[1], self.n_classes, rng)
        vel_w = [np.zeros_like(w) for w in self.weights_]
        vel_b = [np.zeros_like(b) for b in self.biases_]
        n = X.shape[0]
        batch = min(self.batch_size, n)
        self.loss_history_ = []
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                grads_w, grads_b = self.gradients(X[idx], y[idx])
                for i in range(len(self.weights_)):
                    vel_w[i] = self.momentum * vel_w[i] - self.learning_rate * grads_w[i]
                    vel_b[i] = self.momentum * vel_b[i] - self.learning_rate * grads_b[i]
                    self.weights_[i] += vel_w[i]
                    self.biases_[i] += vel_b[i]
            self.loss_history_.append(self.loss(X, y))
        return self

    # --- flat parameter vector helpers (used by the finite-difference check)

    def get_param_vector(self) -> np.ndarray:
        parts = [w.ravel() for w in self.weights_] + [b.ravel() for b in self.biases_]
        return np.concatenate(parts)

    def set_param_vector(self, vec: np.ndarray) -> None:
        pos = 0
        for w in self.weights_:
            w[...] = vec[pos : pos + w.size].reshape(w.shape)
            pos += w.size
        for b in self.biases_:
            b[...] = vec[pos : pos + b.size].reshape(b.shape)
            pos += b.size
        if pos != vec.size:
            raise ParameterError("parameter vector size mismatch")

    def get_grad_vector(self, X, y) -> np.ndarray:
        grads_w, grads_b = self.gradients(X, y)
        parts = [g.ravel() for g in grads_w] + [g.ravel() for g in grads_b]
        return np.concatenate(parts)

    def _arrays(self) -> dict[str, np.ndarray]:
        arrays = {}
        for i, (w, b) in enumerate(zip(self.weights_, self.biases_)):
            arrays[f"w{i}"] = w
            arrays[f"b{i}"] = b
        return arrays

    def _set_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        n_layers = len(self.hidden_sizes) + 1
        self.weights_ = [arrays[f"w{i}"] for i in range(n_layers)]
        self.biases_ = [arrays[f"b{i}"] for i in range(n_layers)]
        for i, size in enumerate(self.hidden_sizes):
            if self.weights_[i].shape[:1] != (size,):
                raise ValueError(f"w{i} has shape {self.weights_[i].shape}, not {size} rows")
