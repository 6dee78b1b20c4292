"""Feed-forward network: ReLU hidden layers (max(z, 0), the only
activation), softmax cross-entropy, mini-batch gradient descent with momentum.

Hidden weights start uniform in +-1/sqrt(fan_in); the output layer starts at
zero so an untrained network predicts uniform probabilities and relabeling
classes permutes the training trajectory column-for-column.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from ..errors import ParameterError
from .base import (ProbabilisticClassifier, assign, check_training_data, flatten, log_loss,
                   one_hot, softmax)


class MlpClassifier(ProbabilisticClassifier):
    """``hidden_sizes`` is one size (64), comma-separated sizes ("64,32") or a sequence."""

    def __init__(
        self,
        hidden_sizes: int | str | tuple[int, ...] = (64,),
        epochs: int = 200,
        learning_rate: float = 0.05,
        batch_size: int = 32,
        momentum: float = 0.9,
        seed: int = 0,
        n_classes: int | None = None,
    ):
        if epochs < 1:
            raise ParameterError("epochs must be >= 1")
        if batch_size < 1:
            raise ParameterError("batch_size must be >= 1")
        if not learning_rate > 0:
            raise ParameterError("learning_rate must be > 0")
        if not 0.0 <= momentum < 1.0:
            raise ParameterError("momentum must lie in [0, 1)")
        sizes = hidden_sizes
        if isinstance(sizes, str):
            sizes = [int(s) if s.isascii() and s.isdigit() else s for s in sizes.split(",")]
        elif not isinstance(sizes, (tuple, list)):
            sizes = [sizes]
        if not sizes or not all(isinstance(s, Integral) and not isinstance(s, bool) and s >= 1
                                for s in sizes):
            raise ParameterError("hidden_sizes must be a non-empty int, comma list or sequence "
                                 f"of sizes >= 1, got {hidden_sizes!r}")
        self.hidden_sizes = tuple(int(s) for s in sizes)
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.momentum = momentum
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
            a = z if i == last else np.maximum(z, 0.0)
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
        grads_w, grads_b = [], []  # output layer first
        for i in range(len(self.weights_) - 1, -1, -1):
            grads_w.append(delta.T @ activations[i])
            grads_b.append(delta.sum(axis=0))
            if i > 0:
                delta = (delta @ self.weights_[i]) * (zs[i - 1] > 0.0)
        return grads_w[::-1], grads_b[::-1]

    def fit(self, X, y):
        X, y, self.n_classes = check_training_data(X, y, self.n_classes)
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
        return flatten([*self.weights_, *self.biases_])

    def set_param_vector(self, vec: np.ndarray) -> None:
        assign([*self.weights_, *self.biases_], vec)

    def get_grad_vector(self, X, y) -> np.ndarray:
        grads_w, grads_b = self.gradients(X, y)
        return flatten([*grads_w, *grads_b])

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
