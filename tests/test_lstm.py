import math

import numpy as np
import pytest

from emoforge.errors import DataError, ParameterError
from emoforge.lstm import (
    LstmClassifier,
    LstmParams,
    LstmState,
    _GATES,
    _bptt,
    lstm_forward,
    lstm_step,
    sequence_gradients,
)
from emoforge.models.base import sigmoid, softmax

# an overflow or a 0/0 in the batched kernel fails the test instead of warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def zero_params(input_size=2, hidden=3, classes=2):
    return LstmParams(np.zeros((4 * hidden, input_size)), np.zeros((4 * hidden, hidden)),
                      np.zeros(4 * hidden), np.zeros((classes, hidden)), np.zeros(classes))


def zero_grads(params):
    return LstmParams(*(np.zeros_like(a) for a in params.arrays()))


def cumsum_task(seed, n=100, tmax=8):
    rng = np.random.default_rng(seed)
    seqs, labels = [], []
    for _ in range(n):
        steps = int(rng.integers(4, tmax + 1))
        xs = rng.uniform(-1, 1, size=(steps, 1))
        seqs.append(xs)
        labels.append(int(xs.sum() > 0))
    return seqs, np.asarray(labels)


def random_params(rng, input_size, hidden, classes):
    params = LstmParams.init(input_size, hidden, classes, rng)
    params.set_vector(rng.uniform(-1, 1, size=params.to_vector().size))
    return params


# --- per-sequence oracle: the trainer's kernel before minibatching, one
# sequence and one matrix-vector product per step


def oracle_forward(params, xs):
    """Final hidden state of one sequence and each step's cache."""
    hidden = params.hidden_size
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    caches = []
    for x_t in xs:
        z = params.W @ x_t + params.U @ h + params.b
        gates = sigmoid(z[: 3 * hidden])
        f, i, o = gates[:hidden], gates[hidden : 2 * hidden], gates[2 * hidden :]
        cand = np.tanh(z[3 * hidden :])
        c_t = f * c + i * cand
        tanh_c = np.tanh(c_t)
        caches.append((x_t, h, c, f, i, o, cand, tanh_c))
        h, c = o * tanh_c, c_t
    return h, caches


def oracle_proba(params, xs):
    h, _ = oracle_forward(params, xs)
    return softmax((params.w_out @ h + params.b_out)[np.newaxis])[0]


def oracle_backward(params, xs, label, grads, dropout_mask=None):
    """Accumulate one sequence's cross-entropy BPTT gradients into grads;
    returns its loss."""
    h, caches = oracle_forward(params, xs)
    if dropout_mask is not None:
        h = h * dropout_mask
    probs = softmax((params.w_out @ h + params.b_out)[np.newaxis])[0]
    loss = -float(np.log(max(probs[label], 1e-300)))

    dlogits = probs.copy()
    dlogits[label] -= 1.0
    grads.w_out += np.outer(dlogits, h)
    grads.b_out += dlogits
    dh = params.w_out.T @ dlogits
    if dropout_mask is not None:
        dh = dh * dropout_mask
    dc_next = np.zeros_like(dh)
    hidden = params.hidden_size
    dz = np.empty(4 * hidden)
    for x_t, h_prev, c_prev, f, i, o, cand, tanh_c in reversed(caches):
        do = dh * tanh_c
        dc = dc_next + dh * o * (1.0 - tanh_c**2)
        dz[:hidden] = dc * c_prev * f * (1.0 - f)
        dz[hidden : 2 * hidden] = dc * cand * i * (1.0 - i)
        dz[2 * hidden : 3 * hidden] = do * o * (1.0 - o)
        dz[3 * hidden :] = dc * i * (1.0 - cand**2)
        grads.W += np.outer(dz, x_t)
        grads.U += np.outer(dz, h_prev)
        grads.b += dz
        dh = params.U.T @ dz
        dc_next = dc * f
    return loss


def oracle_fit_losses(model, sequences, y):
    """``loss_history_`` of ``LstmClassifier.fit`` re-run on the oracle: one
    sequence at a time, each drawing its own dropout mask in batch order.
    Needs ``patience >= epochs`` (validation never stops it early)."""
    rng = np.random.default_rng(model.seed)
    params = LstmParams.init(sequences[0].shape[1], model.hidden_size, int(y.max()) + 1, rng)
    n = len(sequences)
    n_val = max(1, round(0.1 * n))
    train_idx = rng.permutation(n)[n_val:]
    keep = 1.0 - model.dropout_rate
    batch = min(model.batch_size, train_idx.size)
    history = []
    for _ in range(model.epochs):
        epoch_order = train_idx[rng.permutation(train_idx.size)]
        epoch_loss = 0.0
        for start in range(0, epoch_order.size, batch):
            idx = epoch_order[start : start + batch]
            grads = zero_grads(params)
            for j in idx:
                mask = (rng.random(model.hidden_size) < keep).astype(np.float64) / keep
                epoch_loss += oracle_backward(params, sequences[j], int(y[j]), grads, mask)
            arrays = grads.arrays()
            for a in arrays:
                a /= idx.size
            norm = np.sqrt(sum(float(np.sum(a**2)) for a in arrays))
            if norm > model.clip_threshold:
                for a in arrays:
                    a *= model.clip_threshold / norm
            for target, grad in zip(params.arrays(), arrays):
                target -= model.learning_rate * grad
        history.append(epoch_loss / train_idx.size)
    return history


# --- single step


def test_zero_params_step():
    params = zero_params()
    state = LstmState(h=np.zeros(3), c=np.array([1.0, -2.0, 0.5]))
    out = lstm_step(params, state, np.array([3.0, -1.0]))
    # all gates sit at sigmoid(0) = 0.5, so the cell halves and h = 0.5*tanh(c)
    assert np.allclose(out.c, 0.5 * state.c)
    assert np.allclose(out.h, 0.5 * np.tanh(out.c))
    from_rest = lstm_step(params, LstmState.zeros(3), np.array([3.0, -1.0]))
    assert np.all(from_rest.h == 0.0) and np.all(from_rest.c == 0.0)


def test_two_step_matches_scalar_oracle():
    scal = dict(wf=0.7, wi=-0.3, wo=0.5, wc=1.1, uf=0.2, ui=0.9, uo=-0.6, uc=0.4,
                bf=0.1, bi=-0.2, bo=0.3, bc=0.0)
    xs = [0.8, -0.45]

    def sig(z):
        return 1.0 / (1.0 + math.exp(-z))

    h = c = 0.0
    for x in xs:
        f = sig(scal["wf"] * x + scal["uf"] * h + scal["bf"])
        i = sig(scal["wi"] * x + scal["ui"] * h + scal["bi"])
        o = sig(scal["wo"] * x + scal["uo"] * h + scal["bo"])
        g = math.tanh(scal["wc"] * x + scal["uc"] * h + scal["bc"])
        c = f * c + i * g
        h = o * math.tanh(c)

    params = LstmParams(
        W=np.array([[scal[f"w{g}"]] for g in "fioc"]),
        U=np.array([[scal[f"u{g}"]] for g in "fioc"]),
        b=np.array([scal[f"b{g}"] for g in "fioc"]),
        w_out=np.zeros((2, 1)),
        b_out=np.zeros(2),
    )
    state = LstmState.zeros(1)
    for x in xs:
        state = lstm_step(params, state, np.array([x]))
    assert abs(state.h[0] - h) < 1e-12
    assert abs(state.c[0] - c) < 1e-12


def test_saturating_inputs_pin_gates():
    rng = np.random.default_rng(0)
    params = LstmParams.init(2, 4, 2, rng)
    big = np.array([1e4, -1e4])
    hidden = params.hidden_size
    z = params.W @ big + params.b
    gates = 1.0 / (1.0 + np.exp(-np.clip(z[: 3 * hidden], -700, 700)))
    assert np.all((gates < 1e-6) | (gates > 1 - 1e-6))


def test_step_shape_errors():
    params = zero_params()
    with pytest.raises(ParameterError):
        lstm_step(params, LstmState.zeros(3), np.zeros(5))
    with pytest.raises(ParameterError):
        lstm_step(params, LstmState.zeros(2), np.zeros(2))


def test_hidden_state_bounded():
    rng = np.random.default_rng(1)
    params = LstmParams.init(3, 5, 2, rng)
    params.set_vector(rng.uniform(-2, 2, size=params.to_vector().size))
    state = LstmState.zeros(5)
    for _ in range(20):
        state = lstm_step(params, state, rng.normal(size=3))
        assert np.all(np.abs(state.h) < 1.0)
        assert np.isfinite(state.c).all()


# --- forward pass


def test_forward_probabilities_sum_to_one():
    rng = np.random.default_rng(2)
    params = LstmParams.init(4, 6, 3, rng)
    params.set_vector(rng.uniform(-1, 1, size=params.to_vector().size))
    for _ in range(10):
        seq = rng.normal(size=(int(rng.integers(1, 7)), 4))
        probs = lstm_forward(params, seq)
        assert probs.shape == (3,)
        assert abs(probs.sum() - 1.0) < 1e-9


def test_forward_length_one_equals_step_plus_projection():
    rng = np.random.default_rng(4)
    params = LstmParams.init(3, 4, 2, rng)
    params.set_vector(rng.uniform(-1, 1, size=params.to_vector().size))
    x = rng.normal(size=3)
    state = lstm_step(params, LstmState.zeros(4), x)
    logits = params.w_out @ state.h + params.b_out
    expected = np.exp(logits - logits.max())
    expected /= expected.sum()
    assert np.allclose(lstm_forward(params, x[np.newaxis, :]), expected, atol=1e-12)


def test_forward_empty_sequence_errors():
    params = zero_params()
    with pytest.raises(DataError):
        lstm_forward(params, np.zeros((0, 2)))


# --- gradients


@pytest.mark.parametrize("seed", range(20))
def test_bptt_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 7))
    hidden = int(rng.integers(2, 9))
    steps = int(rng.integers(1, 6))
    classes = int(rng.integers(2, 5))
    params = LstmParams.init(d, hidden, classes, rng)
    vec = rng.uniform(-0.7, 0.7, size=params.to_vector().size)
    params.set_vector(vec)
    xs = rng.normal(size=(steps, d))
    label = int(rng.integers(0, classes))

    _, grads = sequence_gradients(params, xs, label)
    analytic = grads.to_vector()
    eps = 1e-5
    fd = np.zeros_like(vec)
    for i in range(vec.size):
        up = vec.copy()
        up[i] += eps
        params.set_vector(up)
        loss_up = -np.log(lstm_forward(params, xs)[label])
        down = vec.copy()
        down[i] -= eps
        params.set_vector(down)
        loss_down = -np.log(lstm_forward(params, xs)[label])
        fd[i] = (loss_up - loss_down) / (2 * eps)
    rel = np.abs(analytic - fd) / np.maximum(np.abs(analytic) + np.abs(fd), 1e-8)
    assert rel.max() < 1e-4


# --- the batched kernel against the per-sequence oracle


@pytest.mark.parametrize("lengths", [
    [3, 9, 1, 5, 5, 2, 9, 7, 1, 4, 6, 8, 2],  # ragged, with ties
    [7],  # a batch of one
    [6, 6, 6, 6, 6],  # all lengths equal
    [1, 1, 2, 1],  # mostly single steps
    [int(n) for n in np.random.default_rng(5).integers(1, 10, size=16)],
], ids=["ragged", "one", "equal", "short", "random"])
@pytest.mark.parametrize("dropout", [False, True], ids=["no-mask", "mask"])
def test_batched_bptt_matches_per_sequence_oracle(lengths, dropout):
    rng = np.random.default_rng(len(lengths) + 100 * dropout)
    params = random_params(rng, 3, 5, 4)
    sequences = [rng.normal(size=(n, 3)) for n in lengths]
    labels = rng.integers(0, 4, size=len(lengths))
    masks = (rng.random((len(lengths), 5)) < 0.6) / 0.6 if dropout else None

    loss, grads = _bptt(params, sequences, labels, masks)
    oracle = zero_grads(params)
    oracle_loss = sum(
        oracle_backward(params, xs, int(label), oracle, None if masks is None else masks[k])
        for k, (xs, label) in enumerate(zip(sequences, labels))
    )
    assert abs(loss - oracle_loss) <= 1e-12 * abs(oracle_loss)
    for got, want in zip(grads.arrays(), oracle.arrays()):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_batched_predict_proba_matches_per_sequence_oracle():
    rng = np.random.default_rng(41)
    model = LstmClassifier(hidden_size=6)
    model.params_ = random_params(rng, 2, 6, 3)
    sequences = [rng.normal(size=(int(n), 2)) for n in rng.integers(1, 10, size=25)]
    proba = model.predict_proba(sequences)
    expected = np.vstack([oracle_proba(model.params_, xs) for xs in sequences])
    assert proba.shape == (25, 3)
    assert np.abs(proba - expected).max() <= 1e-12
    # each row is the sequence's own batch of one, up to rounding
    for xs, row in zip(sequences, proba):
        assert np.abs(lstm_forward(model.params_, xs) - row).max() <= 1e-12


def test_dropout_fit_replays_the_per_sequence_trainer():
    seqs, labels = cumsum_task(17, n=45, tmax=9)
    model = LstmClassifier(
        hidden_size=5, epochs=4, learning_rate=0.3, batch_size=8, dropout_rate=0.4,
        patience=10, seed=3,
    ).fit(seqs, labels)
    expected = oracle_fit_losses(model, seqs, labels)
    assert len(model.loss_history_) == len(expected) == 4
    assert np.allclose(model.loss_history_, expected, rtol=1e-10, atol=0.0)


def test_batch_inputs_are_checked():
    params = zero_params()
    with pytest.raises(DataError):
        _bptt(params, [], np.array([], dtype=np.int64))
    with pytest.raises(DataError):
        LstmClassifier(hidden_size=3).fit([np.zeros((2, 2)), np.zeros((0, 2))], [0, 1])


@pytest.mark.parametrize("key", ["hidden_size", "batch_size"])
@pytest.mark.parametrize("value", [0, -1])
def test_constructor_rejects_sizes_below_one(key, value):
    with pytest.raises(ParameterError):
        LstmClassifier(**{key: value})


def test_fit_keeps_one_sequence_each_side_on_tiny_sets():
    # the 10 % validation slice holds at least one sequence and leaves at
    # least one to train on: two sequences split one and one
    model = LstmClassifier(hidden_size=2, epochs=1, seed=0)
    model.fit([np.zeros((2, 3)), np.ones((3, 3))], np.array([0, 1]))
    assert len(model.loss_history_) == 1


@pytest.mark.parametrize("key", ["learning_rate", "clip_threshold"])
@pytest.mark.parametrize("value", [0.0, -0.5])
def test_constructor_rejects_steps_and_thresholds_not_above_zero(key, value):
    with pytest.raises(ParameterError):
        LstmClassifier(**{key: value})


# --- parameter layout: four gates stacked in W, U and b


@pytest.mark.parametrize("hidden, inputs", [(3, 2), (32, 6), (5, 1)])
def test_init_draws_the_per_gate_stream(hidden, inputs):
    rng, reference = np.random.default_rng(8), np.random.default_rng(8)
    params = LstmParams.init(inputs, hidden, 3, rng)
    wb, ub = 1.0 / np.sqrt(inputs), 1.0 / np.sqrt(hidden)
    w = [reference.uniform(-wb, wb, size=(hidden, inputs)) for _ in _GATES]
    u = [reference.uniform(-ub, ub, size=(hidden, hidden)) for _ in _GATES]
    assert np.array_equal(params.W, np.vstack(w))
    assert np.array_equal(params.U, np.vstack(u))
    assert not params.b.any() and not params.w_out.any() and not params.b_out.any()
    assert [a.shape for a in params.arrays()] == [
        (4 * hidden, inputs), (4 * hidden, hidden), (4 * hidden,), (3, hidden), (3,)]
    assert rng.bit_generator.state == reference.bit_generator.state


def fitted_model():
    seqs, labels = cumsum_task(19, n=24)
    return LstmClassifier(hidden_size=3, epochs=3, seed=4).fit(seqs, labels)


def test_saved_arrays_are_the_gate_rows_and_load_back_exactly():
    model = fitted_model()
    params = model.params_
    arrays = model._arrays()
    assert list(arrays) == ["W", "U", "b", "w_out", "b_out"]
    for name, array in zip(arrays, params.arrays()):
        assert np.array_equal(arrays[name], array)
    loaded = LstmClassifier.from_state(*model.state())
    assert np.array_equal(loaded.params_.to_vector(), params.to_vector())
    assert all(a.dtype == np.float64 for a in loaded.params_.arrays())


@pytest.mark.parametrize("name", ["W", "U", "b"])
def test_load_rejects_a_stack_missing_a_row(name):
    meta, arrays = fitted_model().state()
    arrays[name] = arrays[name][1:]
    with pytest.raises(ParameterError):
        LstmClassifier.from_state(meta, arrays)


def test_load_rejects_a_hidden_size_the_arrays_do_not_have():
    meta, arrays = fitted_model().state()
    with pytest.raises(ValueError):
        LstmClassifier.from_state(dict(meta, hidden_size=4), arrays)


def test_params_reject_shapes_that_do_not_chain():
    good = zero_params(input_size=2, hidden=3, classes=2).arrays()
    for k, bad in enumerate([np.zeros((11, 2)), np.zeros((12, 4)), np.zeros(3), np.zeros((2, 4)),
                             np.zeros(3)]):
        with pytest.raises(ParameterError):
            LstmParams(*good[:k], bad, *good[k + 1 :])


# --- training


def test_cumsum_task_quick():
    seqs, labels = cumsum_task(101)
    model = LstmClassifier(
        hidden_size=6, epochs=150, learning_rate=0.3, batch_size=16,
        dropout_rate=0.0, patience=150, seed=1,
    ).fit(seqs, labels)
    assert (model.predict(seqs) == labels).mean() >= 0.9


def test_training_deterministic():
    seqs, labels = cumsum_task(7, n=40)
    a = LstmClassifier(hidden_size=4, epochs=15, seed=5).fit(seqs, labels)
    b = LstmClassifier(hidden_size=4, epochs=15, seed=5).fit(seqs, labels)
    assert np.array_equal(a.params_.to_vector(), b.params_.to_vector())


def test_early_stopping_and_best_checkpoint():
    seqs, labels = cumsum_task(13, n=60)
    model = LstmClassifier(
        hidden_size=4, epochs=400, learning_rate=0.3, patience=5, seed=2,
        dropout_rate=0.0,
    ).fit(seqs, labels)
    history = model.val_accuracy_history_
    assert len(history) < 400  # patience fired
    assert model.best_val_accuracy_ == max(history)


def test_dropout_training_still_learns_and_is_deterministic():
    seqs, labels = cumsum_task(23, n=50)
    a = LstmClassifier(hidden_size=4, epochs=20, dropout_rate=0.3, seed=9).fit(seqs, labels)
    b = LstmClassifier(hidden_size=4, epochs=20, dropout_rate=0.3, seed=9).fit(seqs, labels)
    assert np.array_equal(a.params_.to_vector(), b.params_.to_vector())
    assert np.isfinite(a.loss_history_).all()


def test_matrix_input_is_one_step_sequences():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(30, 5))
    y = rng.integers(0, 2, size=30)
    model = LstmClassifier(hidden_size=4, epochs=10, seed=0).fit(X, y)
    proba = model.predict_proba(X)
    assert proba.shape == (30, 2)
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)


def test_label_permutation_permutes_columns():
    rng = np.random.default_rng(37)
    seqs = [rng.normal(size=(int(rng.integers(2, 6)), 2)) for _ in range(40)]
    y = rng.integers(0, 3, size=40)
    perm = np.array([2, 0, 1])
    a = LstmClassifier(hidden_size=4, epochs=12, dropout_rate=0.0, seed=3).fit(seqs, y)
    b = LstmClassifier(hidden_size=4, epochs=12, dropout_rate=0.0, seed=3).fit(seqs, perm[y])
    assert np.allclose(b.predict_proba(seqs)[:, perm], a.predict_proba(seqs), atol=1e-9)
