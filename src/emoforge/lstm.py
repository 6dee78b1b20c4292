"""Minimal LSTM classifier trained by backpropagation through time.

One recurrent cell with logistic-sigmoid input/forget/output gates and tanh
candidate and output nonlinearities, a softmax projection of the final
hidden state, inverted dropout on that state during training, gradient-norm
clipping, and early stopping on a held-out validation slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError
from .models.base import check_training_labels, sigmoid

_GATES = ("f", "i", "o", "c")


@dataclass
class LstmState:
    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, hidden_size: int) -> "LstmState":
        return cls(h=np.zeros(hidden_size), c=np.zeros(hidden_size))


@dataclass
class LstmParams:
    """Gate weights W (hidden x input), recurrences U (hidden x hidden),
    biases b, plus the class projection.

    Internally the four gates live in stacked (4*hidden, ...) matrices so a
    step costs two matmuls instead of eight; the per-gate dict entries are
    views into the stacks, so in-place edits stay coherent.
    """

    w: dict[str, np.ndarray]
    u: dict[str, np.ndarray]
    b: dict[str, np.ndarray]
    w_out: np.ndarray  # (classes, hidden)
    b_out: np.ndarray  # (classes,)
    dropout_rate: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ParameterError("dropout_rate must lie in [0, 1)")
        h, d = self.w["f"].shape
        for g in _GATES:
            if self.w[g].shape != (h, d) or self.u[g].shape != (h, h) or self.b[g].shape != (h,):
                raise ParameterError("gate parameter shapes do not chain")
        if self.w_out.shape[1] != h or self.b_out.shape != (self.w_out.shape[0],):
            raise ParameterError("projection shape does not chain")
        self._restack()

    def _restack(self) -> None:
        h = self.w["f"].shape[0]
        self._w_stack = np.vstack([np.asarray(self.w[g], dtype=np.float64) for g in _GATES])
        self._u_stack = np.vstack([np.asarray(self.u[g], dtype=np.float64) for g in _GATES])
        self._b_stack = np.concatenate(
            [np.asarray(self.b[g], dtype=np.float64) for g in _GATES]
        )
        self.w_out = np.asarray(self.w_out, dtype=np.float64)
        self.b_out = np.asarray(self.b_out, dtype=np.float64)
        for i, g in enumerate(_GATES):
            self.w[g] = self._w_stack[i * h : (i + 1) * h]
            self.u[g] = self._u_stack[i * h : (i + 1) * h]
            self.b[g] = self._b_stack[i * h : (i + 1) * h]

    @property
    def hidden_size(self) -> int:
        return self.w["f"].shape[0]

    @property
    def input_size(self) -> int:
        return self.w["f"].shape[1]

    @property
    def n_classes(self) -> int:
        return self.w_out.shape[0]

    @classmethod
    def init(
        cls,
        input_size: int,
        hidden_size: int,
        n_classes: int,
        rng: np.random.Generator,
        dropout_rate: float = 0.0,
    ) -> "LstmParams":
        wb = 1.0 / np.sqrt(input_size)
        ub = 1.0 / np.sqrt(hidden_size)
        w = {g: rng.uniform(-wb, wb, size=(hidden_size, input_size)) for g in _GATES}
        u = {g: rng.uniform(-ub, ub, size=(hidden_size, hidden_size)) for g in _GATES}
        b = {g: np.zeros(hidden_size) for g in _GATES}
        # zero projection: untrained nets predict uniform and training is
        # equivariant under class relabeling
        return cls(w=w, u=u, b=b, w_out=np.zeros((n_classes, hidden_size)),
                   b_out=np.zeros(n_classes), dropout_rate=dropout_rate)

    def copy(self) -> "LstmParams":
        return LstmParams(
            w={g: self.w[g].copy() for g in _GATES},
            u={g: self.u[g].copy() for g in _GATES},
            b={g: self.b[g].copy() for g in _GATES},
            w_out=self.w_out.copy(),
            b_out=self.b_out.copy(),
            dropout_rate=self.dropout_rate,
        )

    def to_vector(self) -> np.ndarray:
        parts = [self.w[g].ravel() for g in _GATES]
        parts += [self.u[g].ravel() for g in _GATES]
        parts += [self.b[g].ravel() for g in _GATES]
        parts += [self.w_out.ravel(), self.b_out.ravel()]
        return np.concatenate(parts)

    def set_vector(self, vec: np.ndarray) -> None:
        pos = 0
        for group in (self.w, self.u, self.b):
            for g in _GATES:
                arr = group[g]
                arr[...] = vec[pos : pos + arr.size].reshape(arr.shape)
                pos += arr.size
        for arr in (self.w_out, self.b_out):
            arr[...] = vec[pos : pos + arr.size].reshape(arr.shape)
            pos += arr.size
        if pos != vec.size:
            raise ParameterError("parameter vector size mismatch")


def _gates(params: LstmParams, h: np.ndarray, c: np.ndarray, x_t: np.ndarray):
    """One fused gate evaluation; returns (f, i, o, cand, c_t, tanh_c, h_t)."""
    hidden = params.hidden_size
    z = params._w_stack @ x_t + params._u_stack @ h + params._b_stack
    gates = sigmoid(z[: 3 * hidden])
    f = gates[:hidden]
    i = gates[hidden : 2 * hidden]
    o = gates[2 * hidden :]
    cand = np.tanh(z[3 * hidden :])
    c_t = f * c + i * cand
    tanh_c = np.tanh(c_t)
    return f, i, o, cand, c_t, tanh_c, o * tanh_c


def lstm_step(params: LstmParams, state: LstmState, x_t: np.ndarray) -> LstmState:
    """One gate update: sigmoid forget/input/output gates, tanh candidate,
    c_t = f*c + i*cand, h_t = o*tanh(c_t)."""
    x_t = np.asarray(x_t, dtype=np.float64)
    if x_t.shape != (params.input_size,):
        raise ParameterError(
            f"input has shape {x_t.shape}, expected ({params.input_size},)"
        )
    if state.h.shape != (params.hidden_size,):
        raise ParameterError("state size does not match parameters")
    _, _, _, _, c_t, _, h_t = _gates(params, state.h, state.c, x_t)
    return LstmState(h=h_t, c=c_t)


def _forward_cached(params: LstmParams, xs: np.ndarray):
    h = np.zeros(params.hidden_size)
    c = np.zeros(params.hidden_size)
    caches = []
    for x_t in xs:
        f, i, o, cand, c_t, tanh_c, h_t = _gates(params, h, c, x_t)
        caches.append((x_t, h, c, f, i, o, cand, tanh_c))
        h, c = h_t, c_t
    return LstmState(h=h, c=c), caches


def _softmax_vec(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def lstm_forward(
    params: LstmParams,
    sequence: np.ndarray,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Class probabilities for one sequence, shape (timesteps, input_size).

    During training an inverted-dropout mask scales the final hidden state;
    at inference the pass is deterministic.
    """
    xs = np.atleast_2d(np.asarray(sequence, dtype=np.float64))
    if xs.shape[0] == 0:
        raise DataError("cannot run an LSTM on an empty sequence")
    state, _ = _forward_cached(params, xs)
    h = state.h
    if training and params.dropout_rate > 0.0:
        if rng is None:
            raise ParameterError("training-mode forward pass needs an rng for dropout")
        keep = 1.0 - params.dropout_rate
        mask = (rng.random(h.size) < keep).astype(np.float64) / keep
        h = h * mask
    return _softmax_vec(params.w_out @ h + params.b_out)


def _zero_grads(params: LstmParams) -> LstmParams:
    return LstmParams(
        w={g: np.zeros_like(params.w[g]) for g in _GATES},
        u={g: np.zeros_like(params.u[g]) for g in _GATES},
        b={g: np.zeros_like(params.b[g]) for g in _GATES},
        w_out=np.zeros_like(params.w_out),
        b_out=np.zeros_like(params.b_out),
        dropout_rate=0.0,
    )


def _backward(
    params: LstmParams,
    xs: np.ndarray,
    label: int,
    grads: LstmParams,
    dropout_mask: np.ndarray | None = None,
) -> float:
    """Accumulate cross-entropy BPTT gradients for one sequence into
    ``grads``; returns the example loss."""
    state, caches = _forward_cached(params, xs)
    h = state.h if dropout_mask is None else state.h * dropout_mask
    probs = _softmax_vec(params.w_out @ h + params.b_out)
    loss = -float(np.log(max(probs[label], 1e-300)))

    dlogits = probs.copy()
    dlogits[label] -= 1.0
    grads.w_out += np.outer(dlogits, h)
    grads.b_out += dlogits
    dh = params.w_out.T @ dlogits
    if dropout_mask is not None:
        dh = dh * dropout_mask
    dc_next = np.zeros_like(dh)

    dz = np.empty(4 * params.hidden_size)
    hidden = params.hidden_size
    for x_t, h_prev, c_prev, f, i, o, cand, tanh_c in reversed(caches):
        do = dh * tanh_c
        dc = dc_next + dh * o * (1.0 - tanh_c**2)
        dz[:hidden] = dc * c_prev * f * (1.0 - f)
        dz[hidden : 2 * hidden] = dc * cand * i * (1.0 - i)
        dz[2 * hidden : 3 * hidden] = do * o * (1.0 - o)
        dz[3 * hidden :] = dc * i * (1.0 - cand**2)
        grads._w_stack += np.outer(dz, x_t)
        grads._u_stack += np.outer(dz, h_prev)
        grads._b_stack += dz
        dh = params._u_stack.T @ dz
        dc_next = dc * f
    return loss


def sequence_gradients(
    params: LstmParams, xs: np.ndarray, label: int
) -> tuple[float, LstmParams]:
    """Loss and gradient structure for one (sequence, label) pair."""
    grads = _zero_grads(params)
    loss = _backward(params, np.atleast_2d(np.asarray(xs, dtype=np.float64)), label, grads)
    return loss, grads


def _grad_arrays(grads: LstmParams) -> tuple[np.ndarray, ...]:
    return (grads._w_stack, grads._u_stack, grads._b_stack, grads.w_out, grads.b_out)


def _clip_gradients(grads: LstmParams, threshold: float) -> None:
    arrays = _grad_arrays(grads)
    norm = np.sqrt(sum(float(np.sum(a**2)) for a in arrays))
    if norm > threshold > 0:
        scale = threshold / norm
        for a in arrays:
            a *= scale


class LstmClassifier:
    """Sequence classifier around the cell, with the models-module interface
    for matrix inputs (each row treated as a one-step sequence) and list
    inputs of per-frame matrices."""

    def __init__(
        self,
        hidden_size: int = 32,
        epochs: int = 100,
        learning_rate: float = 0.05,
        batch_size: int = 16,
        dropout_rate: float = 0.2,
        clip_threshold: float = 5.0,
        patience: int = 10,
        validation_fraction: float = 0.1,
        seed: int = 0,
        n_classes: int | None = None,
    ):
        if epochs < 1:
            raise ParameterError("epochs must be >= 1")
        if not 0.0 <= dropout_rate < 1.0:
            raise ParameterError("dropout_rate must lie in [0, 1)")
        self.hidden_size = hidden_size
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.dropout_rate = dropout_rate
        self.clip_threshold = clip_threshold
        self.patience = patience
        self.validation_fraction = validation_fraction
        self.seed = seed
        self.n_classes = n_classes
        self.params_: LstmParams | None = None
        self.loss_history_: list[float] = []
        self.val_accuracy_history_: list[float] = []

    @staticmethod
    def _as_sequences(X) -> list[np.ndarray]:
        if isinstance(X, np.ndarray) and X.ndim == 2:
            return [row[np.newaxis, :] for row in np.asarray(X, dtype=np.float64)]
        return [np.atleast_2d(np.asarray(s, dtype=np.float64)) for s in X]

    def _accuracy(self, sequences: list[np.ndarray], y: np.ndarray) -> float:
        preds = [int(np.argmax(lstm_forward(self.params_, s))) for s in sequences]
        return float(np.mean(np.asarray(preds) == y))

    def fit(self, X, y):
        sequences = self._as_sequences(X)
        y = np.asarray(y, dtype=np.int64)
        if len(sequences) == 0:
            raise DataError("training set is empty")
        self.n_classes = check_training_labels(y, self.n_classes)
        rng = np.random.default_rng(self.seed)
        self.params_ = LstmParams.init(
            input_size=sequences[0].shape[1],
            hidden_size=self.hidden_size,
            n_classes=self.n_classes,
            rng=rng,
            dropout_rate=self.dropout_rate,
        )

        n = len(sequences)
        n_val = min(max(1, int(round(self.validation_fraction * n))), n - 1)
        order = rng.permutation(n)
        val_idx, train_idx = order[:n_val], order[n_val:]
        val_seqs = [sequences[i] for i in val_idx]
        val_y = y[val_idx]
        train_seqs = [sequences[i] for i in train_idx]
        train_y = y[train_idx]

        keep = 1.0 - self.dropout_rate
        best_params = self.params_.copy()
        best_val = -1.0
        epochs_since_best = 0
        self.loss_history_ = []
        self.val_accuracy_history_ = []

        n_train = len(train_seqs)
        batch = min(self.batch_size, n_train)
        for _ in range(self.epochs):
            epoch_order = rng.permutation(n_train)
            epoch_loss = 0.0
            for start in range(0, n_train, batch):
                idx = epoch_order[start : start + batch]
                grads = _zero_grads(self.params_)
                for j in idx:  # fixed order keeps the reduction deterministic
                    mask = None
                    if self.dropout_rate > 0.0:
                        mask = (rng.random(self.hidden_size) < keep).astype(np.float64) / keep
                    epoch_loss += _backward(
                        self.params_, train_seqs[j], int(train_y[j]), grads, mask
                    )
                scale = 1.0 / idx.size
                for arr in _grad_arrays(grads):
                    arr *= scale
                _clip_gradients(grads, self.clip_threshold)
                for target, grad in zip(_grad_arrays(self.params_), _grad_arrays(grads)):
                    target -= self.learning_rate * grad

            self.loss_history_.append(epoch_loss / n_train)
            val_acc = self._accuracy(val_seqs, val_y)
            self.val_accuracy_history_.append(val_acc)
            if val_acc >= best_val:
                # ties refresh the checkpoint (never worse than any seen) but
                # only strict improvement resets the stopping counter
                best_params = self.params_.copy()
            if val_acc > best_val:
                best_val = val_acc
                epochs_since_best = 0
            else:
                epochs_since_best += 1
                if epochs_since_best > self.patience:
                    break

        self.params_ = best_params
        self.best_val_accuracy_ = best_val
        return self

    def predict_proba(self, X) -> np.ndarray:
        if self.params_ is None:
            raise ParameterError("model is not fitted")
        sequences = self._as_sequences(X)
        return np.vstack([lstm_forward(self.params_, s) for s in sequences])

    def predict(self, X) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)

    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        meta = {
            "hidden_size": self.hidden_size,
            "epochs": self.epochs,
            "learning_rate": self.learning_rate,
            "batch_size": self.batch_size,
            "dropout_rate": self.dropout_rate,
            "clip_threshold": self.clip_threshold,
            "patience": self.patience,
            "validation_fraction": self.validation_fraction,
            "seed": self.seed,
            "n_classes": self.n_classes,
        }
        p = self.params_
        arrays = {"w_out": p.w_out, "b_out": p.b_out}
        for g in _GATES:
            arrays[f"w_{g}"] = p.w[g]
            arrays[f"u_{g}"] = p.u[g]
            arrays[f"b_{g}"] = p.b[g]
        return meta, arrays

    @classmethod
    def from_state(cls, meta, arrays) -> "LstmClassifier":
        model = cls(**{k: meta[k] for k in (
            "hidden_size", "epochs", "learning_rate", "batch_size", "dropout_rate",
            "clip_threshold", "patience", "validation_fraction", "seed", "n_classes",
        )})
        model.params_ = LstmParams(
            w={g: arrays[f"w_{g}"] for g in _GATES},
            u={g: arrays[f"u_{g}"] for g in _GATES},
            b={g: arrays[f"b_{g}"] for g in _GATES},
            w_out=arrays["w_out"],
            b_out=arrays["b_out"],
            dropout_rate=meta["dropout_rate"],
        )
        return model
