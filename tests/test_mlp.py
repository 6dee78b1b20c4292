import numpy as np
import pytest

from emoforge.errors import ParameterError
from emoforge.models import MlpClassifier
from emoforge.persistence import save_container

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


def finite_difference_grad(model, vec, X, y, eps=1e-5):
    fd = np.zeros_like(vec)
    for i in range(vec.size):
        up = vec.copy()
        up[i] += eps
        model.set_param_vector(up)
        loss_up = model.loss(X, y)
        down = vec.copy()
        down[i] -= eps
        model.set_param_vector(down)
        loss_down = model.loss(X, y)
        fd[i] = (loss_up - loss_down) / (2 * eps)
    model.set_param_vector(vec)
    return fd


@pytest.mark.parametrize("seed", range(10))
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    n_classes = int(rng.integers(2, 5))
    hidden = tuple(int(h) for h in rng.integers(2, 7, size=int(rng.integers(1, 3))))
    model = MlpClassifier(hidden_sizes=hidden, n_classes=n_classes, seed=seed)
    model.init_params(d, n_classes)
    vec = rng.uniform(-0.8, 0.8, size=model.get_param_vector().size)
    model.set_param_vector(vec)
    X = rng.normal(size=(3, d))
    y = rng.integers(0, n_classes, size=3)
    analytic = model.get_grad_vector(X, y)
    fd = finite_difference_grad(model, vec, X, y)
    rel = np.abs(analytic - fd) / np.maximum(np.abs(analytic) + np.abs(fd), 1e-8)
    assert rel.max() < 1e-4


def test_xor_solved_for_most_seeds():
    wins = 0
    for seed in range(10):
        model = MlpClassifier(
            hidden_sizes=(8,), epochs=2000, learning_rate=0.5, batch_size=4, seed=seed
        ).fit(XOR_X, XOR_Y)
        wins += (model.predict(XOR_X) == XOR_Y).mean() == 1.0
    assert wins >= 8


def test_zero_network_predicts_uniform():
    model = MlpClassifier(hidden_sizes=(4,), n_classes=3, seed=0)
    model.init_params(n_features=2, n_classes=3)
    model.set_param_vector(np.zeros(model.get_param_vector().size))
    proba = model.predict_proba(np.random.default_rng(0).normal(size=(5, 2)))
    assert np.allclose(proba, 1.0 / 3)


def test_untrained_output_layer_is_uniform():
    # fresh init zeroes the softmax projection, so predictions start uniform
    model = MlpClassifier(hidden_sizes=(6,), n_classes=4, seed=1)
    model.init_params(n_features=3, n_classes=4)
    proba = model.predict_proba(np.random.default_rng(1).normal(size=(7, 3)))
    assert np.allclose(proba, 0.25)


def test_training_losses_finite():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(60, 4))
    y = rng.integers(0, 3, size=60)
    model = MlpClassifier(hidden_sizes=(16,), epochs=50, seed=3).fit(X, y)
    assert len(model.loss_history_) == 50
    assert np.isfinite(model.loss_history_).all()


def test_rows_sum_to_one():
    model = MlpClassifier(hidden_sizes=(8,), epochs=30, seed=0).fit(XOR_X, XOR_Y)
    proba = model.predict_proba(np.random.default_rng(5).normal(size=(20, 2)))
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
    assert (proba >= 0).all() and (proba <= 1).all()


def test_seed_determinism(tmp_path):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 3))
    y = rng.integers(0, 2, size=40)

    def data(model, name):
        path = tmp_path / name
        save_container(path, {}, model._arrays())
        return path.read_bytes()

    a = MlpClassifier(hidden_sizes=(8,), epochs=20, seed=6).fit(X, y)
    b = MlpClassifier(hidden_sizes=(8,), epochs=20, seed=6).fit(X, y)
    assert data(a, "a") == data(b, "b")


def test_label_permutation_permutes_columns():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(45, 3))
    y = rng.integers(0, 3, size=45)
    perm = np.array([2, 0, 1])
    a = MlpClassifier(hidden_sizes=(6,), epochs=30, seed=9).fit(X, y)
    b = MlpClassifier(hidden_sizes=(6,), epochs=30, seed=9).fit(X, perm[y])
    assert np.allclose(b.predict_proba(X)[:, perm], a.predict_proba(X), atol=1e-9)


def test_constructor_validation():
    with pytest.raises(ParameterError):
        MlpClassifier(hidden_sizes=())
    with pytest.raises(ParameterError):
        MlpClassifier(epochs=0)
    with pytest.raises(ParameterError):
        MlpClassifier(hidden_sizes=(0,))
    with pytest.raises(ParameterError):
        MlpClassifier(hidden_sizes=(4, -1))
    for batch_size in (0, -1):
        with pytest.raises(ParameterError):
            MlpClassifier(batch_size=batch_size)
    for learning_rate in (0.0, -0.5):
        with pytest.raises(ParameterError):
            MlpClassifier(learning_rate=learning_rate)
    for momentum in (1.0, 1.5, -0.1, float("nan")):
        with pytest.raises(ParameterError):
            MlpClassifier(momentum=momentum)
    MlpClassifier(momentum=0.0)


@pytest.mark.parametrize("sizes", [8, "8,4", (8, 4), [8, 4]])
def test_hidden_sizes_take_an_int_a_comma_list_or_a_sequence(sizes):
    expected = (8,) if sizes == 8 else (8, 4)
    assert MlpClassifier(hidden_sizes=sizes).hidden_sizes == expected


@pytest.mark.parametrize("sizes", [",", "", ",,", "8,,4", ",8", "8,", 8.7, True, (8, 4.9), "a",
                                   None])
def test_hidden_sizes_that_parse_to_none_raise_parameter_error(sizes):
    with pytest.raises(ParameterError, match="non-empty"):
        MlpClassifier(hidden_sizes=sizes)


def test_load_rejects_layers_that_are_not_the_hidden_sizes():
    rng = np.random.default_rng(10)
    model = MlpClassifier(hidden_sizes=(5, 4), epochs=2, seed=0)
    model.fit(rng.normal(size=(20, 3)), rng.integers(0, 2, size=20))
    arrays = model._arrays()
    loaded = MlpClassifier(hidden_sizes=(5, 4))
    loaded._set_arrays(arrays)
    assert np.array_equal(loaded.get_param_vector(), model.get_param_vector())
    for sizes in ((9, 4), (5, 3), (4, 5)):
        with pytest.raises(ValueError):
            MlpClassifier(hidden_sizes=sizes)._set_arrays(arrays)
