"""Minimal LSTM classifier trained by minibatched backpropagation through
time.

One recurrent cell with logistic-sigmoid input/forget/output gates and tanh
candidate and output nonlinearities (Hochreiter & Schmidhuber 1997), a
softmax projection of the final hidden state, inverted dropout on that state
during training, gradient-norm clipping, and early stopping on a held-out
validation slice.

The parameters are five arrays (``LstmParams``): the four gates stacked in
``_GATES`` order (forget, input, output, candidate) as W (4*hidden, input),
U (4*hidden, hidden) and b (4*hidden,), plus the projection w_out and b_out.
A step costs two matmuls over the stacks, and the backward pass returns its
gradients in the same five arrays, so clipping and the SGD update walk one
tuple. Model files keep one array per gate (``w_f`` ... ``b_c``): saving
slices the stacks, and loading checks each slice's shape before stacking.

Every pass runs a whole batch of sequences through the cell as one
(batch, hidden) state. The batch is sorted by length (descending, stable)
and packed time-major, so the sequences still running at step t are a
prefix of the batch: step t advances only that active prefix, no work is
spent on padding, and each sequence ends on its own last state. Training,
validation accuracy and ``predict_proba`` use this one forward pass; a
single sequence is a batch of one. The backward pass (BPTT, Werbos 1990)
walks the steps in reverse over the same prefixes and forms the weight
gradients from the packed rows, dW = sum_t dZ_t^T X_t and
dU = sum_t dZ_t^T H_{t-1}, as single matmuls.

``fit`` draws a batch's dropout masks before its forward pass, one
``rng.random(hidden)`` row per sequence in epoch order; the forward pass
itself has no training mode. Models are not byte-identical to the earlier
per-sequence trainer's: a matmul over a block of rows does not round like
one matrix-vector product per row, so gradients differ in the last few bits
(tests/test_lstm.py pins them to a per-sequence oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError
from .models.base import ProbabilisticClassifier, check_training_labels, sigmoid, softmax

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
    """The five parameter arrays of the cell and its class projection, all
    float64: gate weights W (4*hidden, input), recurrences U (4*hidden,
    hidden), biases b (4*hidden,), projection w_out (classes, hidden) and
    b_out (classes,). Rows k*hidden:(k+1)*hidden of W, U and b belong to
    gate ``_GATES[k]``. Gradients come back in the same layout.
    """

    W: np.ndarray
    U: np.ndarray
    b: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray

    def __post_init__(self):
        self.W, self.U, self.b, self.w_out, self.b_out = (
            np.asarray(a, dtype=np.float64) for a in self.arrays()
        )
        if self.W.ndim != 2 or self.U.ndim != 2 or self.w_out.ndim != 2:
            raise ParameterError("W, U and w_out must be matrices")
        h, d = self.hidden_size, self.input_size
        if self.W.shape != (4 * h, d) or self.U.shape != (4 * h, h) or self.b.shape != (4 * h,):
            raise ParameterError("gate parameter shapes do not chain")
        if self.w_out.shape[1] != h or self.b_out.shape != self.w_out.shape[:1]:
            raise ParameterError("projection shape does not chain")

    def arrays(self) -> tuple[np.ndarray, ...]:
        """(W, U, b, w_out, b_out), the order of ``to_vector``."""
        return self.W, self.U, self.b, self.w_out, self.b_out

    @property
    def hidden_size(self) -> int:
        return self.U.shape[1]

    @property
    def input_size(self) -> int:
        return self.W.shape[1]

    @property
    def n_classes(self) -> int:
        return self.w_out.shape[0]

    @classmethod
    def init(
        cls, input_size: int, hidden_size: int, n_classes: int, rng: np.random.Generator
    ) -> "LstmParams":
        wb = 1.0 / np.sqrt(input_size)
        ub = 1.0 / np.sqrt(hidden_size)
        W = rng.uniform(-wb, wb, size=(4 * hidden_size, input_size))
        U = rng.uniform(-ub, ub, size=(4 * hidden_size, hidden_size))
        # zero projection: untrained nets predict uniform and training is
        # equivariant under class relabeling
        return cls(W, U, np.zeros(4 * hidden_size), np.zeros((n_classes, hidden_size)),
                   np.zeros(n_classes))

    def copy(self) -> "LstmParams":
        return LstmParams(*(a.copy() for a in self.arrays()))

    def to_vector(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.arrays()])

    def set_vector(self, vec: np.ndarray) -> None:
        pos = 0
        for arr in self.arrays():
            arr[...] = vec[pos : pos + arr.size].reshape(arr.shape)
            pos += arr.size
        if pos != vec.size:
            raise ParameterError("parameter vector size mismatch")


def _gates(params: LstmParams, x: np.ndarray, h: np.ndarray, c: np.ndarray):
    """One fused gate evaluation for one state or a (rows, hidden) block of
    states; returns (acts, c_t, tanh_c, h_t), where ``acts`` holds the
    forget, input and output gates and the candidate side by side."""
    hidden = params.hidden_size
    acts = x @ params.W.T + h @ params.U.T + params.b
    acts[..., : 3 * hidden] = sigmoid(acts[..., : 3 * hidden])
    np.tanh(acts[..., 3 * hidden :], out=acts[..., 3 * hidden :])
    f, i, o, cand = (acts[..., k * hidden : (k + 1) * hidden] for k in range(4))
    c_t = f * c + i * cand
    tanh_c = np.tanh(c_t)
    return acts, c_t, tanh_c, o * tanh_c


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
    _, c_t, _, h_t = _gates(params, x_t, state.h, state.c)
    return LstmState(h=h_t, c=c_t)


@dataclass
class _Tape:
    """What the backward pass reads of a forward pass, one row per
    (sequence, step) in packed order: step t fills rows bounds[t]:bounds[t+1],
    one per sequence still running, in length-sorted order."""

    order: np.ndarray  # batch position of each length-sorted sequence
    bounds: list[int]
    xs: np.ndarray  # (rows, input) inputs
    h_prev: np.ndarray  # (rows, hidden) state each step starts from
    c_prev: np.ndarray  # (rows, hidden)
    acts: np.ndarray  # (rows, 4*hidden) gates and candidate
    tanh_c: np.ndarray  # (rows, hidden)


def _pack(sequences: list[np.ndarray]) -> tuple[np.ndarray, list[int], np.ndarray]:
    """(order, bounds, xs): the sequences sorted by length (descending,
    stable) and packed time-major, step t's inputs in rows
    bounds[t]:bounds[t+1] of xs."""
    if not sequences:
        raise DataError("cannot run an LSTM on an empty batch")
    lengths = np.array([s.shape[0] for s in sequences], dtype=np.int64)
    if lengths.min() == 0:
        raise DataError("cannot run an LSTM on an empty sequence")
    order = np.argsort(-lengths, kind="stable")
    padded = np.zeros((int(lengths.max()), len(sequences), sequences[0].shape[1]))
    for row, j in enumerate(order):
        padded[: lengths[j], row] = sequences[j]
    running = lengths[order] > np.arange(padded.shape[0])[:, np.newaxis]
    bounds = [0, *np.cumsum(running.sum(axis=1)).tolist()]
    return order, bounds, padded[running]


def _forward_cached(
    params: LstmParams, sequences: list[np.ndarray], cache: bool = False
) -> tuple[np.ndarray, _Tape | None]:
    """Final hidden states (batch, hidden) in input order and, with
    ``cache``, the tape for ``_bptt``. Step t advances only the sequences
    still running, which are a prefix of the length-sorted batch."""
    order, bounds, xs = _pack(sequences)
    hidden = params.hidden_size
    h = np.zeros((len(sequences), hidden))
    c = np.zeros_like(h)
    last = np.empty_like(h)
    tape = None
    if cache:
        rows = xs.shape[0]
        tape = _Tape(order, bounds, xs, np.empty((rows, hidden)), np.empty((rows, hidden)),
                     np.empty((rows, 4 * hidden)), np.empty((rows, hidden)))
    active = [*np.diff(bounds).tolist(), 0]  # sequences running at each step
    for t, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        h, c = h[: hi - lo], c[: hi - lo]
        acts, c_t, tanh_c, h_t = _gates(params, xs[lo:hi], h, c)
        if tape is not None:
            tape.h_prev[lo:hi] = h
            tape.c_prev[lo:hi] = c
            tape.acts[lo:hi] = acts
            tape.tanh_c[lo:hi] = tanh_c
        h, c = h_t, c_t
        last[active[t + 1] : active[t]] = h[active[t + 1] :]  # sequences that end at t
    final = np.empty_like(last)
    final[order] = last
    return final, tape


def lstm_forward(params: LstmParams, sequence: np.ndarray) -> np.ndarray:
    """Class probabilities for one sequence, shape (timesteps, input_size)."""
    h, _ = _forward_cached(params, [np.atleast_2d(np.asarray(sequence, dtype=np.float64))])
    return _class_probs(params, h)[0]


def _class_probs(params: LstmParams, h: np.ndarray) -> np.ndarray:
    return softmax(h @ params.w_out.T + params.b_out)


def _bptt(
    params: LstmParams,
    sequences: list[np.ndarray],
    labels: np.ndarray,
    dropout_masks: np.ndarray | None = None,
) -> tuple[float, LstmParams]:
    """Summed cross-entropy loss of a batch and its BPTT gradients, with an
    optional (batch, hidden) dropout mask on the final hidden states."""
    h_last, tape = _forward_cached(params, sequences, cache=True)
    h = h_last if dropout_masks is None else h_last * dropout_masks
    probs = _class_probs(params, h)
    picked = np.arange(len(sequences)), np.asarray(labels, dtype=np.int64)
    loss = -float(np.sum(np.log(np.maximum(probs[picked], 1e-300))))

    dlogits = probs
    dlogits[picked] -= 1.0
    dh_last = dlogits @ params.w_out
    if dropout_masks is not None:
        dh_last *= dropout_masks
    dh_last = dh_last[tape.order]

    # dz starts as the factors of the gate gradients that do not depend on
    # (dh, dc), for every row at once: dz_f = dc*c_prev*f(1-f),
    # dz_i = dc*cand*i(1-i), dz_o = dh*tanh_c*o(1-o), dz_cand = dc*i(1-cand^2);
    # and dc gains dh*o(1-tanh_c^2). The sweep turns it into dz step by step.
    hidden = params.hidden_size
    acts = tape.acts
    f, i, o, cand = (acts[:, k * hidden : (k + 1) * hidden] for k in range(4))
    dz = 1.0 - acts
    dz[:, : 3 * hidden] *= acts[:, : 3 * hidden]
    dz[:, :hidden] *= tape.c_prev
    dz[:, hidden : 2 * hidden] *= cand
    dz[:, 2 * hidden : 3 * hidden] *= tape.tanh_c
    dz[:, 3 * hidden :] *= (1.0 + cand) * i
    dc_from_dh = o * (1.0 - tape.tanh_c**2)

    dh = dc = np.empty((0, hidden))
    bounds = tape.bounds
    for lo, hi in zip(reversed(bounds[:-1]), reversed(bounds[1:])):
        n, carried = hi - lo, dh.shape[0]
        if n > carried:  # sequences whose last step this is join the sweep
            dh = np.concatenate((dh, dh_last[carried:n]))
            dc = np.concatenate((dc, np.zeros((n - carried, hidden))))
        dc = dc + dh * dc_from_dh[lo:hi]
        dz[lo:hi] *= np.concatenate((dc, dc, dh, dc), axis=1)
        dh = dz[lo:hi] @ params.U
        dc = dc * f[lo:hi]
    return loss, LstmParams(dz.T @ tape.xs, dz.T @ tape.h_prev, dz.sum(axis=0), dlogits.T @ h,
                            dlogits.sum(axis=0))


def sequence_gradients(
    params: LstmParams, xs: np.ndarray, label: int
) -> tuple[float, LstmParams]:
    """Loss and gradient structure for one (sequence, label) pair."""
    return _bptt(params, [np.atleast_2d(np.asarray(xs, dtype=np.float64))], np.array([label]))


def _clip_gradients(grads: LstmParams, threshold: float) -> None:
    arrays = grads.arrays()
    norm = np.sqrt(sum(float(np.sum(a**2)) for a in arrays))
    if norm > threshold:
        scale = threshold / norm
        for a in arrays:
            a *= scale


class LstmClassifier(ProbabilisticClassifier):
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
        if hidden_size < 1:
            raise ParameterError("hidden_size must be >= 1")
        if batch_size < 1:
            raise ParameterError("batch_size must be >= 1")
        if not 0.0 <= dropout_rate < 1.0:
            raise ParameterError("dropout_rate must lie in [0, 1)")
        if not learning_rate > 0:
            raise ParameterError("learning_rate must be > 0")
        if not clip_threshold > 0:
            raise ParameterError("clip_threshold must be > 0")
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
        h, _ = _forward_cached(self.params_, sequences)
        return float(np.mean(np.argmax(_class_probs(self.params_, h), axis=1) == y))

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
                masks = None
                if self.dropout_rate > 0.0:
                    # one rng.random(hidden) row per sequence, in epoch order
                    masks = (rng.random((idx.size, self.hidden_size)) < keep) / keep
                loss, grads = _bptt(self.params_, [train_seqs[j] for j in idx], train_y[idx], masks)
                epoch_loss += loss
                scale = 1.0 / idx.size
                for arr in grads.arrays():
                    arr *= scale
                _clip_gradients(grads, self.clip_threshold)
                for target, grad in zip(self.params_.arrays(), grads.arrays()):
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
        h, _ = _forward_cached(self.params_, self._as_sequences(X))
        return _class_probs(self.params_, h)

    def _arrays(self) -> dict[str, np.ndarray]:
        p = self.params_
        h = p.hidden_size
        arrays = {"w_out": p.w_out, "b_out": p.b_out}
        for k, g in enumerate(_GATES):
            rows = slice(k * h, (k + 1) * h)
            arrays[f"w_{g}"] = p.W[rows]
            arrays[f"u_{g}"] = p.U[rows]
            arrays[f"b_{g}"] = p.b[rows]
        return arrays

    def _set_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        # each gate is checked before stacking: w_f with h+1 rows over w_i
        # with h-1 would stack into a valid-looking W
        h = self.hidden_size
        inputs = arrays["w_f"].shape[1:]
        for g in _GATES:
            for name, shape in ((f"w_{g}", (h, *inputs)), (f"u_{g}", (h, h)), (f"b_{g}", (h,))):
                if arrays[name].shape != shape:
                    raise ValueError(
                        f"{name} has shape {arrays[name].shape}, not {shape} of hidden_size {h}"
                    )
        self.params_ = LstmParams(
            np.vstack([arrays[f"w_{g}"] for g in _GATES]),
            np.vstack([arrays[f"u_{g}"] for g in _GATES]),
            np.concatenate([arrays[f"b_{g}"] for g in _GATES]),
            arrays["w_out"],
            arrays["b_out"],
        )
