import numpy as np
import pytest

from emoforge.errors import DegenerateLabelError, ParameterError
from emoforge.models import GradientBoosting, RandomForest
from emoforge.models import tree as tree_module
from emoforge.models.base import one_hot
from emoforge.models.tree import grow_tree
from emoforge.persistence import save_container


def make_xor(n_rep=50, seed=0, jitter=0.05):
    rng = np.random.default_rng(seed)
    base = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels = np.array([0, 1, 1, 0])
    X = np.tile(base, (n_rep, 1)) + rng.normal(0, jitter, size=(4 * n_rep, 2))
    y = np.tile(labels, n_rep)
    return X, y


def make_3class_blobs(n=60, seed=1):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    X = np.vstack([c + rng.normal(0, 0.4, size=(n, 2)) for c in centers])
    y = np.repeat(np.arange(3), n)
    return X, y


def serialized_bytes(model, tmp_path, name):
    meta, arrays = model.state()
    path = tmp_path / name
    save_container(path, meta, arrays)
    return path.read_bytes()


# --- single decision tree: a one-tree forest on all rows and features


def plain_tree(**kwargs):
    return RandomForest(n_trees=1, bootstrap=False, max_features=None, **kwargs)


def test_tree_separates_xor():
    X, y = make_xor()
    tree = plain_tree(max_depth=4).fit(X, y)
    assert (tree.predict(X) == y).mean() >= 0.95


def test_tree_leaf_distributions_are_stochastic():
    X, y = make_3class_blobs()
    tree = plain_tree(max_depth=3).fit(X, y)
    proba = tree.predict_proba(X)
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
    assert (proba >= 0).all() and (proba <= 1).all()


def test_tree_single_class_raises():
    X = np.zeros((5, 2))
    with pytest.raises(DegenerateLabelError):
        plain_tree().fit(X, np.zeros(5, dtype=int))


# --- random forest


def test_forest_xor_train_accuracy():
    X, y = make_xor()
    forest = RandomForest(n_trees=30, max_depth=6, seed=0).fit(X, y)
    assert (forest.predict(X) == y).mean() >= 0.95


def test_forest_perfect_on_identity_feature():
    rng = np.random.default_rng(2)
    y = rng.integers(0, 4, size=80)
    X = np.column_stack([y.astype(float), rng.normal(size=80)])
    forest = RandomForest(n_trees=20, seed=1).fit(X, y)
    assert (forest.predict(X) == y).mean() == 1.0


def test_forest_seed_determinism_byte_equal(tmp_path):
    X, y = make_3class_blobs()
    a = RandomForest(n_trees=10, seed=7).fit(X, y)
    b = RandomForest(n_trees=10, seed=7).fit(X, y)
    assert serialized_bytes(a, tmp_path, "a.emf") == serialized_bytes(b, tmp_path, "b.emf")
    c = RandomForest(n_trees=10, seed=8).fit(X, y)
    assert serialized_bytes(a, tmp_path, "a2.emf") != serialized_bytes(c, tmp_path, "c.emf")


def test_forest_rows_sum_to_one():
    X, y = make_xor(n_rep=10)
    forest = RandomForest(n_trees=5, seed=3).fit(X, y)
    proba = forest.predict_proba(np.random.default_rng(0).normal(size=(50, 2)))
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
    assert (proba >= 0).all() and (proba <= 1).all()


def test_forest_label_permutation_permutes_columns():
    X, y = make_3class_blobs(n=40)
    perm = np.array([2, 0, 1])
    a = RandomForest(n_trees=8, max_depth=4, seed=5).fit(X, y)
    b = RandomForest(n_trees=8, max_depth=4, seed=5).fit(X, perm[y])
    pa = a.predict_proba(X)
    pb = b.predict_proba(X)
    assert np.allclose(pb[:, perm], pa, atol=1e-12)


def test_forest_importances_cover_features():
    X, y = make_3class_blobs()
    forest = RandomForest(n_trees=10, seed=0).fit(X, y)
    imp = forest.feature_importances_
    assert imp.shape == (2,)
    assert (imp >= 0).all() and imp.sum() > 0


# --- gradient boosting


def test_boosting_uniform_prior_before_training():
    model = GradientBoosting(n_classes=4)
    proba = model.predict_proba(np.random.default_rng(0).normal(size=(6, 3)))
    assert np.allclose(proba, 0.25)


def test_boosting_rounds_validation():
    with pytest.raises(ParameterError):
        GradientBoosting(n_rounds=0)
    with pytest.raises(ParameterError):
        GradientBoosting(learning_rate=0.0)
    with pytest.raises(ParameterError):
        GradientBoosting(learning_rate=1.5)


def test_boosting_single_round_beats_chance_on_xor():
    X, y = make_xor()
    model = GradientBoosting(n_rounds=1, learning_rate=1.0, max_depth=2).fit(X, y)
    assert (model.predict(X) == y).mean() > 0.5


def test_boosting_training_loss_monotone():
    X, y = make_3class_blobs(n=40)
    model = GradientBoosting(n_rounds=25, learning_rate=0.1, max_depth=3).fit(X, y)
    losses = np.asarray(model.train_loss_history_)
    assert losses.size == 26
    assert np.all(np.diff(losses) <= 1e-9)


def test_boosting_xor_train_accuracy():
    X, y = make_xor()
    model = GradientBoosting(n_rounds=20, learning_rate=0.3, max_depth=3).fit(X, y)
    assert (model.predict(X) == y).mean() >= 0.95


def test_boosting_deterministic(tmp_path):
    X, y = make_3class_blobs(n=30)
    a = GradientBoosting(n_rounds=5, seed=1).fit(X, y)
    b = GradientBoosting(n_rounds=5, seed=1).fit(X, y)
    assert serialized_bytes(a, tmp_path, "a.emf") == serialized_bytes(b, tmp_path, "b.emf")


def test_boosting_label_permutation_permutes_columns():
    X, y = make_3class_blobs(n=30)
    perm = np.array([1, 2, 0])
    a = GradientBoosting(n_rounds=6, learning_rate=0.2).fit(X, y)
    b = GradientBoosting(n_rounds=6, learning_rate=0.2).fit(X, perm[y])
    assert np.allclose(b.predict_proba(X)[:, perm], a.predict_proba(X), atol=1e-12)


def test_boosting_rows_sum_to_one():
    X, y = make_xor(n_rep=8)
    model = GradientBoosting(n_rounds=5).fit(X, y)
    proba = model.predict_proba(X)
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
    assert (proba >= 0).all() and (proba <= 1).all()


# --- oracle: the one-column-at-a-time split search the node-wide search replaced


def _gini(counts, total):
    if total <= 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.dot(p, p))


def _best_split_classification(
    Xf: np.ndarray, y_hot: np.ndarray, min_samples_leaf: int
) -> tuple[float, float]:
    """Best (gain, threshold) for one feature column; gain <= 0 means none."""
    order = np.argsort(Xf, kind="stable")
    sv = Xf[order]
    cum = np.cumsum(y_hot[order], axis=0)
    n = sv.size
    total = cum[-1]
    # split after position i: left = first i+1 samples
    valid = sv[:-1] < sv[1:]
    sizes_left = np.arange(1, n)
    sizes_right = n - sizes_left
    if min_samples_leaf > 1:
        valid &= (sizes_left >= min_samples_leaf) & (sizes_right >= min_samples_leaf)
    if not valid.any():
        return 0.0, 0.0
    left_counts = cum[:-1]
    right_counts = total[np.newaxis, :] - left_counts
    gini_left = 1.0 - np.sum((left_counts / sizes_left[:, None]) ** 2, axis=1)
    gini_right = 1.0 - np.sum((right_counts / sizes_right[:, None]) ** 2, axis=1)
    weighted = (sizes_left * gini_left + sizes_right * gini_right) / n
    parent = _gini(total, float(n))
    gains = np.where(valid, parent - weighted, -np.inf)
    best = int(np.argmax(gains))  # first max: lowest threshold wins ties
    if not np.isfinite(gains[best]) or gains[best] <= 0.0:
        return 0.0, 0.0
    return float(gains[best]), float(0.5 * (sv[best] + sv[best + 1]))


def _best_split_regression(
    Xf: np.ndarray, y: np.ndarray, min_samples_leaf: int
) -> tuple[float, float]:
    order = np.argsort(Xf, kind="stable")
    sv = Xf[order]
    ys = y[order]
    n = sv.size
    cum = np.cumsum(ys)
    cum2 = np.cumsum(ys**2)
    valid = sv[:-1] < sv[1:]
    sizes_left = np.arange(1, n)
    sizes_right = n - sizes_left
    if min_samples_leaf > 1:
        valid &= (sizes_left >= min_samples_leaf) & (sizes_right >= min_samples_leaf)
    if not valid.any():
        return 0.0, 0.0
    sum_left = cum[:-1]
    sum_right = cum[-1] - sum_left
    sq_left = cum2[:-1]
    sq_right = cum2[-1] - sq_left
    var_left = sq_left / sizes_left - (sum_left / sizes_left) ** 2
    var_right = sq_right / sizes_right - (sum_right / sizes_right) ** 2
    weighted = (sizes_left * var_left + sizes_right * var_right) / n
    parent = float(np.var(ys))
    gains = np.where(valid, parent - weighted, -np.inf)
    best = int(np.argmax(gains))
    if not np.isfinite(gains[best]) or gains[best] <= 0.0:
        return 0.0, 0.0
    return float(gains[best]), float(0.5 * (sv[best] + sv[best + 1]))


def reference_grow_tree(X, y, task, n_classes=0, max_depth=None, min_samples_leaf=1,
                        max_features=None, rng=None):
    """grow_tree as it was with a per-feature loop over the functions above."""
    X = np.asarray(X, dtype=np.float64)
    n_samples, n_features = X.shape
    depth_cap = np.inf if max_depth is None else max_depth
    y_hot = one_hot(y, n_classes) if task == "classification" else None
    feature, threshold, left, right, value = [], [], [], [], []
    importances = np.zeros(n_features)

    def node_value(idx):
        if task == "classification":
            counts = y_hot[idx].sum(axis=0)
            return counts / counts.sum()
        return np.array([y[idx].mean()])

    def node_impurity(idx):
        if task == "classification":
            return _gini(y_hot[idx].sum(axis=0), float(idx.size))
        return float(np.var(y[idx]))

    stack = [(np.arange(n_samples), 0, -1, False)]
    while stack:
        idx, depth, parent, is_left = stack.pop()
        node_id = len(feature)
        if parent >= 0:
            (left if is_left else right)[parent] = node_id
        splittable = (
            idx.size >= 2 * min_samples_leaf
            and depth < depth_cap
            and node_impurity(idx) > 0.0
        )
        best_gain, best_thr, best_feat = 0.0, 0.0, -1
        if splittable:
            if max_features is not None and max_features < n_features:
                candidates = np.sort(rng.choice(n_features, size=max_features, replace=False))
            else:
                candidates = np.arange(n_features)
            for f in candidates:
                col = X[idx, f]
                if task == "classification":
                    gain, thr = _best_split_classification(col, y_hot[idx], min_samples_leaf)
                else:
                    gain, thr = _best_split_regression(col, y[idx], min_samples_leaf)
                if gain > best_gain:
                    best_gain, best_thr, best_feat = gain, thr, int(f)
        left.append(-1)
        right.append(-1)
        value.append(node_value(idx))
        if best_feat == -1:
            feature.append(-1)
            threshold.append(0.0)
            continue
        importances[best_feat] += (idx.size / n_samples) * best_gain
        feature.append(best_feat)
        threshold.append(best_thr)
        mask = X[idx, best_feat] <= best_thr
        stack.append((idx[~mask], depth + 1, node_id, False))
        stack.append((idx[mask], depth + 1, node_id, True))
    return tree_module.TreeNodes(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.vstack(value),
        importances=importances,
    )


def oracle_problem(seed, task, n=90, d=7):
    """Random matrix with tied values, a constant column, a last column equal
    to the first (equal gains across features) and duplicated (bootstrap) rows."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X[:, 1] = rng.integers(0, 4, size=n)
    X[:, 2] = 3.0
    X[:, 3] = np.round(X[:, 3], 1)
    X[:, -1] = X[:, 0]
    if task == "classification":
        y = (X[:, 0] + 0.5 * X[:, 1] + rng.normal(0, 0.7, size=n) > 1.0).astype(int)
        y += (X[:, 4] > 0.8).astype(int)
    else:
        y = np.sin(X[:, 0]) + 0.3 * X[:, 1] + rng.normal(0, 0.2, size=n)
    sample = rng.integers(0, n, size=n)
    return X[sample], y[sample]


def assert_same_tree(a, b):
    for name in ("feature", "threshold", "left", "right", "value", "importances"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert getattr(a, name).dtype == getattr(b, name).dtype, name


@pytest.mark.parametrize("task", ["classification", "regression"])
@pytest.mark.parametrize("min_samples_leaf", [1, 3])
@pytest.mark.parametrize("max_features", [None, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grow_tree_matches_per_feature_oracle(task, min_samples_leaf, max_features, seed):
    X, y = oracle_problem(seed, task)
    kwargs = dict(task=task, n_classes=3, max_depth=None if seed % 2 else 4,
                  min_samples_leaf=min_samples_leaf, max_features=max_features)
    new = grow_tree(X, y, rng=np.random.default_rng(seed), **kwargs)
    old = reference_grow_tree(X, y, rng=np.random.default_rng(seed), **kwargs)
    assert new.n_nodes > 1
    assert_same_tree(new, old)


@pytest.mark.parametrize("task", ["classification", "regression"])
def test_grow_tree_column_blocks_match_oracle(task, monkeypatch):
    # root blocks of 2 (classification) or 6 (regression) of the 9 columns,
    # so the last column, equal to the first, sits in a later block
    X, y = oracle_problem(5, task, n=60, d=9)
    monkeypatch.setattr(tree_module, "_BLOCK_ELEMENTS", 60 * 3 * 2)
    new = grow_tree(X, y, task=task, n_classes=3)
    old = reference_grow_tree(X, y, task=task, n_classes=3)
    assert_same_tree(new, old)
