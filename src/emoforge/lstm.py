"""Minimal LSTM classifier trained by minibatched backpropagation through
time.

One recurrent cell with logistic-sigmoid input/forget/output gates and tanh
candidate and output nonlinearities (Hochreiter & Schmidhuber 1997), a
softmax projection of the final hidden state, inverted dropout on that state
during training, gradient-norm clipping, and early stopping on a held-out
validation slice, a fixed 10 % of the sequences (at least one).

The parameters are five arrays (``LstmParams``): the four gates stacked in
``_GATES`` order (forget, input, output, candidate) as W (4*hidden, input),
U (4*hidden, hidden) and b (4*hidden,), plus the projection w_out and b_out.
A step costs two matmuls over the stacks, and the backward pass returns its
gradients in the same five arrays, so clipping and the SGD update walk one
tuple. Model files store the same five arrays under the same names.

Every pass runs a whole batch of sequences through the cell as one
(batch, hidden) state. The batch is sorted by length (descending, stable)
and packed time-major, so the sequences still running at step t are a
prefix of the batch: step t advances only that active prefix, no work is
spent on padding, and each sequence ends on its own last state. Training,
validation accuracy and ``predict_proba`` use this one forward pass, the
last two on ``batch_size`` sequences at a time; a single sequence is a
batch of one. The input projection X W^T + b of every packed row is one
matmul per batch, so a step adds only H_{t-1} U^T to its rows. The
backward pass (BPTT, Werbos 1990) walks the steps in reverse over the same
prefixes and forms the weight gradients from the packed rows,
dW = sum_t dZ_t^T X_t and dU = sum_t dZ_t^T H_{t-1}, as single matmuls.

``fit`` draws a batch's dropout masks before its forward pass, one
``rng.random(hidden)`` row per sequence in epoch order; the forward pass
itself has no training mode. Models are not byte-identical to the
per-sequence trainer's: a step sums its pre-activations as
(x W^T + b) + h U^T where that trainer took W x + U h + b, and a matmul over
a block of rows does not round like one matrix-vector product per row, so
gradients differ in the last few bits (tests/test_lstm.py pins them to a
per-sequence oracle). How a matmul rounds also depends on how many BLAS
threads share it, so ``train_bundle`` and ``ModelBundle.predict_proba`` run
models on one (``emoforge._blas``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError, ParameterError
from .models.base import (ProbabilisticClassifier, assign, check_training_data, flatten,
                          sigmoid, softmax)

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
        return flatten(self.arrays())

    def set_vector(self, vec: np.ndarray) -> None:
        assign(self.arrays(), vec)


def _cell(acts: np.ndarray, c: np.ndarray, c_t: np.ndarray, tanh_c: np.ndarray,
          h_t: np.ndarray) -> None:
    """One gate update for one state or a (rows, hidden) block of states.
    Turns the pre-activations ``acts`` (x W^T + b + h U^T) into the forget,
    input and output gates and the candidate in place, and writes
    c_t = f*c + i*cand, tanh(c_t) and h_t = o*tanh(c_t) into the arrays
    given."""
    hidden = c.shape[-1]
    gates = acts[..., : 3 * hidden]
    sigmoid(gates, out=gates)
    np.tanh(acts[..., 3 * hidden :], out=acts[..., 3 * hidden :])
    f, i, o, cand = (acts[..., k * hidden : (k + 1) * hidden] for k in range(4))
    np.multiply(f, c, out=c_t)
    c_t += i * cand
    np.tanh(c_t, out=tanh_c)
    np.multiply(o, tanh_c, out=h_t)


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
    acts = x_t @ params.W.T + params.b
    acts += state.h @ params.U.T
    out = LstmState.zeros(params.hidden_size)
    _cell(acts, state.c, out.c, np.empty_like(out.c), out.h)
    return out


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
    params: LstmParams, sequences: list[np.ndarray]
) -> tuple[np.ndarray, _Tape]:
    """Final hidden states (batch, hidden) in input order and the tape for
    ``_bptt``. Step t advances only the sequences still running, which are a
    prefix of the length-sorted batch."""
    order, bounds, xs = _pack(sequences)
    hidden = params.hidden_size
    rows, batch = xs.shape[0], len(sequences)
    acts = xs @ params.W.T  # every step's input projection in one product
    acts += params.b
    # Step t starts from the states in rows lo:hi of h_prev/c_prev and writes
    # its n new states to rows hi:hi+n. The first of these belong to the
    # sequences still running and are step t+1's start; the others end at t
    # and go to ``last`` before step t+1 overwrites them. The last step
    # writes up to ``batch`` rows past ``rows``.
    h_prev, c_prev = np.zeros((rows + batch, hidden)), np.zeros((rows + batch, hidden))
    tanh_c = np.empty((rows, hidden))
    last = np.empty((batch, hidden))
    active = [*np.diff(bounds).tolist(), 0]  # sequences running at each step
    for t, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        n, running = hi - lo, active[t + 1]
        step = acts[lo:hi]
        step += h_prev[lo:hi] @ params.U.T
        _cell(step, c_prev[lo:hi], c_prev[hi : hi + n], tanh_c[lo:hi], h_prev[hi : hi + n])
        last[running:n] = h_prev[hi + running : hi + n]
    final = np.empty_like(last)
    final[order] = last
    return final, _Tape(order, bounds, xs, h_prev[:rows], c_prev[:rows], acts, tanh_c)


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
    h_last, tape = _forward_cached(params, sequences)
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

    # the sweep carries (dh, dc) of the running sequences in the first rows
    dh_all, dc_all = np.empty_like(dh_last), np.zeros_like(dh_last)
    carried = 0
    bounds = tape.bounds
    for lo, hi in zip(reversed(bounds[:-1]), reversed(bounds[1:])):
        n = hi - lo
        if n > carried:  # sequences whose last step this is join the sweep
            dh_all[carried:n] = dh_last[carried:n]
            carried = n
        dh, dc = dh_all[:n], dc_all[:n]
        dc += dh * dc_from_dh[lo:hi]
        dz[lo:hi] *= np.concatenate((dc, dc, dh, dc), axis=1)
        np.matmul(dz[lo:hi], params.U, out=dh)
        dc *= f[lo:hi]
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
        if patience < 0:
            raise ParameterError("patience must be >= 0")
        self.hidden_size = hidden_size
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.dropout_rate = dropout_rate
        self.clip_threshold = clip_threshold
        self.patience = patience
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

    def _final_states(self, sequences: list[np.ndarray]) -> np.ndarray:
        """Final hidden states, ``batch_size`` sequences per forward pass, so
        that a pass holds the input projections of one batch, not of all."""
        starts = range(0, max(len(sequences), 1), self.batch_size)  # [] raises in _pack
        return np.vstack([_forward_cached(self.params_, sequences[s : s + self.batch_size])[0]
                          for s in starts])

    def _accuracy(self, sequences: list[np.ndarray], y: np.ndarray) -> float:
        h = self._final_states(sequences)
        return float(np.mean(np.argmax(_class_probs(self.params_, h), axis=1) == y))

    def fit(self, X, y):
        X, y, self.n_classes = check_training_data(X, y, self.n_classes, sequences=True)
        sequences = self._as_sequences(X)
        rng = np.random.default_rng(self.seed)
        self.params_ = LstmParams.init(
            input_size=sequences[0].shape[1],
            hidden_size=self.hidden_size,
            n_classes=self.n_classes,
            rng=rng,
        )

        n = len(sequences)
        n_val = max(1, round(0.1 * n))  # n >= 2 (two classes), so training keeps one too
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
        return _class_probs(self.params_, self._final_states(self._as_sequences(X)))

    def _arrays(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self.params_, f.name) for f in fields(LstmParams)}

    def _set_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        params = LstmParams(**{f.name: arrays[f.name] for f in fields(LstmParams)})
        if params.hidden_size != self.hidden_size:
            raise ValueError(f"hidden size is {params.hidden_size}, not {self.hidden_size}")
        self.params_ = params
