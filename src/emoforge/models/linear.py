"""One-vs-rest linear models: hinge-loss SVM and logistic regression.

Both keep a (C, d) coefficient matrix plus intercepts and break class ties
toward the lowest index. The SVM maps margins to probabilities through a
per-class logistic link fitted on the training decisions, then renormalizes
across classes; logistic regression renormalizes the per-class sigmoids
directly.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from .base import ProbabilisticClassifier, check_training_data, sigmoid


def fit_logistic_link(scores: np.ndarray, targets: np.ndarray) -> tuple[float, float]:
    """Fit p = sigmoid(a * score + b) by at most 100 damped Newton iterations.

    The tiny ridge keeps the fit bounded on separable scores.
    """
    ridge = 1e-6
    a, b = 1.0, 0.0
    for _ in range(100):
        z = a * scores + b
        p = sigmoid(z)
        w = np.maximum(p * (1.0 - p), 1e-12)
        grad_a = float(np.dot(p - targets, scores)) + 2.0 * ridge * a
        grad_b = float(np.sum(p - targets)) + 2.0 * ridge * b
        h_aa = float(np.dot(w, scores**2)) + 2.0 * ridge
        h_ab = float(np.dot(w, scores))
        h_bb = float(np.sum(w)) + 2.0 * ridge
        det = h_aa * h_bb - h_ab * h_ab
        if det <= 1e-12:
            break
        da = (h_bb * grad_a - h_ab * grad_b) / det
        db = (h_aa * grad_b - h_ab * grad_a) / det
        step = max(abs(da), abs(db))
        if step > 10.0:  # damp huge early steps
            da *= 10.0 / step
            db *= 10.0 / step
        a -= da
        b -= db
        if max(abs(da), abs(db)) < 1e-10:
            break
    return a, b


def normalize_sigmoids(s: np.ndarray) -> np.ndarray:
    """Scale each row of per-class sigmoids to sum to one; a row whose
    sigmoids all underflow to zero (every logit below about -745) becomes
    uniform."""
    total = s.sum(axis=1, keepdims=True)
    out = s / np.where(total > 0.0, total, 1.0)
    out[total[:, 0] <= 0.0] = 1.0 / s.shape[1]
    return out


class _OneVsRest(ProbabilisticClassifier):
    """One linear scorer per class: decisions X coef^T + intercept."""

    _ARRAYS = ("coef", "intercept")
    coef_: np.ndarray | None = None  # (C, d)
    intercept_: np.ndarray | None = None  # (C,)

    def init_params(self, n_features: int, n_classes: int) -> None:
        """Zero weights: every class scores equally until training moves them."""
        self.n_classes = n_classes
        self.coef_ = np.zeros((n_classes, n_features), dtype=np.float64)
        self.intercept_ = np.zeros(n_classes, dtype=np.float64)

    def decision_function(self, X) -> np.ndarray:
        if self.coef_ is None:
            raise ParameterError("model parameters are not initialized")
        X = np.asarray(X, dtype=np.float64)
        return X @ self.coef_.T + self.intercept_


class LinearSVM(_OneVsRest):
    """L2-regularized hinge loss, one binary machine per class, trained by
    seeded stochastic subgradient descent with a 1/(reg*(t0+t)) step size."""

    _ARRAYS = ("coef", "intercept", "link")

    def __init__(
        self,
        reg: float = 1e-3,
        epochs: int = 30,
        seed: int = 0,
        n_classes: int | None = None,
    ):
        if reg <= 0:
            raise ParameterError("reg must be > 0")
        if epochs < 1:
            raise ParameterError("epochs must be >= 1")
        self.reg = reg
        self.epochs = epochs
        self.seed = seed
        self.n_classes = n_classes
        self.link_: np.ndarray | None = None  # (C, 2) logistic link (a, b)
        self.objective_history_: list[float] = []

    def init_params(self, n_features: int, n_classes: int) -> None:
        super().init_params(n_features, n_classes)
        self.link_ = np.tile([1.0, 0.0], (n_classes, 1))

    def _set_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        super()._set_arrays(arrays)
        if self.link_.shape != (self.n_classes, 2):
            raise ValueError(f"link has shape {self.link_.shape}, not ({self.n_classes}, 2)")

    def _objective(self, X, signs) -> float:
        margins = 1.0 - signs * self.decision_function(X)
        hinge = np.maximum(margins, 0.0).mean(axis=0).sum()
        return float(0.5 * self.reg * np.sum(self.coef_**2) + hinge)

    def fit(self, X, y):
        X, y, self.n_classes = check_training_data(X, y, self.n_classes)
        n, d = X.shape
        self.init_params(d, self.n_classes)
        signs = np.where(y[:, None] == np.arange(self.n_classes)[None, :], 1.0, -1.0)

        rng = np.random.default_rng(self.seed)
        t0 = max(n, int(1.0 / self.reg))
        t = 0
        self.objective_history_ = []
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for i in order:
                t += 1
                eta = 1.0 / (self.reg * (t0 + t))
                scores = self.coef_ @ X[i] + self.intercept_
                active = signs[i] * scores < 1.0
                self.coef_ *= 1.0 - eta * self.reg
                if active.any():
                    self.coef_[active] += eta * signs[i, active][:, None] * X[i][None, :]
                    self.intercept_[active] += eta * signs[i, active]
            self.objective_history_.append(self._objective(X, signs))

        scores = self.decision_function(X)
        self.link_ = np.array(
            [
                fit_logistic_link(scores[:, c], (y == c).astype(np.float64))
                for c in range(self.n_classes)
            ]
        )
        return self

    def predict_proba(self, X):
        scores = self.decision_function(X)  # link_ is set wherever coef_ is
        return normalize_sigmoids(sigmoid(self.link_[:, 0] * scores + self.link_[:, 1]))


class LogisticRegression(_OneVsRest):
    """One-vs-rest logistic regression by full-batch gradient descent.

    The intercept is left unregularized; per-class sigmoid scores are
    renormalized to sum to one.
    """

    def __init__(
        self,
        reg: float = 1e-4,
        epochs: int = 300,
        learning_rate: float = 0.5,
        n_classes: int | None = None,
    ):
        if reg < 0:
            raise ParameterError("reg must be >= 0")
        if epochs < 1:
            raise ParameterError("epochs must be >= 1")
        if not learning_rate > 0:
            raise ParameterError("learning_rate must be > 0")
        self.reg = reg
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.n_classes = n_classes
        self.loss_history_: list[float] = []

    def fit(self, X, y):
        X, y, self.n_classes = check_training_data(X, y, self.n_classes)
        n, d = X.shape
        self.init_params(d, self.n_classes)
        targets = (y[:, None] == np.arange(self.n_classes)[None, :]).astype(np.float64)

        self.loss_history_ = []
        for _ in range(self.epochs):
            p = sigmoid(self.decision_function(X))
            err = p - targets  # (n, C)
            grad_w = err.T @ X / n + self.reg * self.coef_
            grad_b = err.mean(axis=0)
            self.coef_ -= self.learning_rate * grad_w
            self.intercept_ -= self.learning_rate * grad_b
            eps = 1e-12
            ce = -(targets * np.log(p + eps) + (1 - targets) * np.log(1 - p + eps)).mean()
            self.loss_history_.append(float(ce + 0.5 * self.reg * np.sum(self.coef_**2)))
        return self

    def predict_proba(self, X):
        return normalize_sigmoids(sigmoid(self.decision_function(X)))
