import numpy as np
import pytest

from emoforge.errors import DegenerateLabelError, ParameterError
from emoforge.models import LinearSVM, LogisticRegression
from emoforge.models.base import sigmoid
from emoforge.persistence import save_container

# an overflow or a 0/0 fails the test instead of warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def separable_blobs(n=80, seed=0, centers=((0.0, 0.0), (6.0, 0.0), (0.0, 6.0))):
    rng = np.random.default_rng(seed)
    X = np.vstack([np.asarray(c) + rng.normal(0, 0.5, size=(n, 2)) for c in centers])
    y = np.repeat(np.arange(len(centers)), n)
    order = rng.permutation(len(y))
    X, y = X[order], y[order]
    cut = int(0.75 * len(y))
    return X[:cut], y[:cut], X[cut:], y[cut:]


def _bytes(model, tmp_path, name):
    meta, arrays = model.state()
    path = tmp_path / name
    save_container(path, meta, arrays)
    return path.read_bytes()


# --- linear SVM


def test_svm_separable_blobs():
    Xtr, ytr, Xte, yte = separable_blobs()
    model = LinearSVM(reg=1e-3, epochs=20, seed=0).fit(Xtr, ytr)
    assert (model.predict(Xte) == yte).mean() >= 0.95


def test_svm_objective_decreases():
    Xtr, ytr, _, _ = separable_blobs(seed=3)
    model = LinearSVM(reg=1e-3, epochs=15, seed=1).fit(Xtr, ytr)
    history = model.objective_history_
    assert len(history) == 15
    assert history[-1] < history[0]
    assert all(np.isfinite(v) for v in history)


@pytest.mark.parametrize("cls", [LinearSVM, LogisticRegression])
def test_unfitted_linear_models_do_not_score(cls):
    model = cls(n_classes=3)
    for method in (model.decision_function, model.predict_proba):
        with pytest.raises(ParameterError, match="not initialized"):
            method(np.zeros((2, 2)))


def test_svm_zero_weights_score_equally():
    model = LinearSVM(n_classes=4)
    model.init_params(n_features=3, n_classes=4)
    scores = model.decision_function(np.random.default_rng(0).normal(size=(5, 3)))
    assert np.array_equal(scores, np.zeros((5, 4)))


def test_svm_probability_rows():
    Xtr, ytr, Xte, _ = separable_blobs(seed=5)
    model = LinearSVM(epochs=10, seed=2).fit(Xtr, ytr)
    proba = model.predict_proba(Xte)
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
    assert (proba >= 0).all() and (proba <= 1).all()


def test_svm_deterministic(tmp_path):
    Xtr, ytr, _, _ = separable_blobs(seed=7)
    a = LinearSVM(epochs=5, seed=9).fit(Xtr, ytr)
    b = LinearSVM(epochs=5, seed=9).fit(Xtr, ytr)
    assert _bytes(a, tmp_path, "a") == _bytes(b, tmp_path, "b")


def test_svm_label_permutation():
    Xtr, ytr, _, _ = separable_blobs(seed=11)
    perm = np.array([2, 0, 1])
    a = LinearSVM(epochs=8, seed=4).fit(Xtr, ytr)
    b = LinearSVM(epochs=8, seed=4).fit(Xtr, perm[ytr])
    assert np.allclose(b.predict_proba(Xtr)[:, perm], a.predict_proba(Xtr), atol=1e-9)


def test_svm_parameter_validation():
    with pytest.raises(ParameterError):
        LinearSVM(reg=0.0)
    with pytest.raises(DegenerateLabelError):
        LinearSVM().fit(np.zeros((4, 2)), np.zeros(4, dtype=int))


# --- logistic regression


@pytest.mark.parametrize("learning_rate", [0.0, -0.5])
def test_lr_rejects_a_step_not_above_zero(learning_rate):
    with pytest.raises(ParameterError):
        LogisticRegression(learning_rate=learning_rate)


def test_lr_separable_blobs():
    Xtr, ytr, Xte, yte = separable_blobs(seed=1)
    model = LogisticRegression(reg=1e-4, epochs=300, learning_rate=0.5).fit(Xtr, ytr)
    assert (model.predict(Xte) == yte).mean() >= 0.95


def test_lr_identical_features_yield_priors():
    X = np.tile([1.0, 0.5], (20, 1))
    y = np.array([0] * 10 + [1] * 6 + [2] * 4)
    model = LogisticRegression(reg=0.0, epochs=4000, learning_rate=1.0).fit(X, y)
    proba = model.predict_proba(X[:1])[0]
    assert np.allclose(proba, [0.5, 0.3, 0.2], atol=1e-3)


def _direct_binary_logistic(X, y, epochs=2000, lr=0.5):
    # independent flat implementation used as the comparison oracle
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(epochs):
        p = 1.0 / (1.0 + np.exp(-(X @ w + b)))
        err = p - y
        w -= lr * (X.T @ err) / len(y)
        b -= lr * err.mean()
    return w, b


def test_lr_two_class_matches_direct_binary_argmax():
    rng = np.random.default_rng(42)
    X = np.vstack([rng.normal(-1, 1, size=(50, 3)), rng.normal(1, 1, size=(50, 3))])
    y = np.repeat([0, 1], 50)
    model = LogisticRegression(reg=0.0, epochs=2000, learning_rate=0.5).fit(X, y)
    w, b = _direct_binary_logistic(X, (y == 1).astype(float))
    direct = ((X @ w + b) > 0).astype(int)
    assert np.array_equal(model.predict(X), direct)


def test_lr_loss_history_finite():
    Xtr, ytr, _, _ = separable_blobs(seed=13)
    model = LogisticRegression(epochs=100).fit(Xtr, ytr)
    assert len(model.loss_history_) == 100
    assert np.isfinite(model.loss_history_).all()


def test_lr_label_permutation():
    Xtr, ytr, _, _ = separable_blobs(seed=17)
    perm = np.array([1, 2, 0])
    a = LogisticRegression(epochs=50).fit(Xtr, ytr)
    b = LogisticRegression(epochs=50).fit(Xtr, perm[ytr])
    assert np.allclose(b.predict_proba(Xtr)[:, perm], a.predict_proba(Xtr), atol=1e-9)


def test_lr_deterministic(tmp_path):
    Xtr, ytr, _, _ = separable_blobs(seed=19)
    a = LogisticRegression(epochs=40).fit(Xtr, ytr)
    b = LogisticRegression(epochs=40).fit(Xtr, ytr)
    assert _bytes(a, tmp_path, "a") == _bytes(b, tmp_path, "b")


@pytest.mark.parametrize("cls", [LogisticRegression, LinearSVM])
def test_saturated_logits_give_uniform_rows(cls):
    Xtr, ytr, _, _ = separable_blobs(seed=6)
    model = cls(epochs=5).fit(Xtr, ytr)
    if cls is LinearSVM:
        model.link_ = np.tile([1.0, 0.0], (3, 1))
    model.coef_ = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    model.intercept_ = np.full(3, -2400.0)
    # row 0: every logit below -745, so every sigmoid underflows to 0
    proba = model.predict_proba(np.array([[0.0, 0.0], [790.0, 0.0]]))
    assert np.array_equal(proba[0], np.full(3, 1.0 / 3.0))
    s = sigmoid(np.array([790.0, 1580.0, 2370.0]) - 2400.0)  # only the last is above -745
    assert np.array_equal(proba[1], s / s.sum())


def _split_sigmoid(z):
    """The logistic function as two masked halves, exp(-z) above zero and
    exp(z) below: the reference that ``sigmoid`` must match bit for bit."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sigmoid_bits_match_split_reference(dtype):
    rng = np.random.default_rng(8)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 709.8, -709.8,
               745.2, -745.2, 1e308, -1e308]
    for scale in (1e-300, 1e-8, 1.0, 30.0, 800.0, 1e5):
        with np.errstate(over="ignore"):  # float32 holds +-1e308 as +-inf
            z = np.concatenate((rng.normal(size=2002) * scale, special)).astype(dtype)
        for block in (z, z.reshape(-1, 7)[:, 1:5]):  # contiguous and strided
            assert sigmoid(block).dtype == dtype
            assert sigmoid(block).tobytes() == _split_sigmoid(block).tobytes()
