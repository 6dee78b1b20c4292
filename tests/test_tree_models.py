import math
import tracemalloc

import numpy as np
import pytest

from emoforge.errors import DegenerateLabelError, ParameterError
from emoforge.models import GradientBoosting, RandomForest
from emoforge.models import tree as tree_module
from emoforge.models.base import log_loss, one_hot, softmax
from emoforge.models.tree import concat_trees, grow_tree, leaf_values, presort
from emoforge.persistence import save_container
from emoforge.pipeline import ModelBundle, load_bundle, save_bundle, train_bundle

# an overflow or a 0/0 fails the test instead of warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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


@pytest.mark.parametrize("max_features", [0, -1, 2.5, "log2", True],
                         ids=["zero", "negative", "fraction", "log2", "bool"])
def test_forest_rejects_max_features_other_than_sqrt_none_or_positive_int(max_features):
    with pytest.raises(ParameterError, match="max_features"):
        RandomForest(max_features=max_features)


def test_forest_max_features_takes_ints_and_caps_at_the_width():
    X, y = make_3class_blobs(n=30)
    one = RandomForest(n_trees=3, max_features=np.int64(1), seed=2).fit(X, y)
    assert one.packed_["feature"].max() >= 0
    every = RandomForest(n_trees=3, max_features=None, seed=2).fit(X, y).packed_
    wide = RandomForest(n_trees=3, max_features=5, seed=2).fit(X, y).packed_
    for name, array in every.items():
        assert np.array_equal(wide[name], array), name


# --- gradient boosting


def test_boosting_rejects_prediction_before_training():
    model = GradientBoosting(n_classes=4)
    with pytest.raises(ParameterError, match="not fitted"):
        model.predict_proba(np.random.default_rng(0).normal(size=(6, 3)))


@pytest.mark.parametrize("model", [RandomForest(), GradientBoosting()], ids=["rf", "xgb"])
def test_unfitted_trees_have_no_importances(model):
    with pytest.raises(ParameterError, match="not fitted"):
        model.feature_importances_
    with pytest.raises(ParameterError, match="not fitted"):
        model.trees_


def test_boosting_rounds_validation():
    with pytest.raises(ParameterError):
        GradientBoosting(n_rounds=0)
    with pytest.raises(ParameterError):
        GradientBoosting(learning_rate=0.0)
    with pytest.raises(ParameterError):
        GradientBoosting(learning_rate=1.5)


@pytest.mark.parametrize("min_samples_leaf", [0, -1])
def test_tree_models_reject_min_samples_leaf_below_one(min_samples_leaf):
    # the split search's window of valid positions needs a leaf of >= 1 row
    X, y = make_xor(n_rep=5)
    with pytest.raises(ParameterError, match="min_samples_leaf"):
        GradientBoosting(min_samples_leaf=min_samples_leaf)
    with pytest.raises(ParameterError, match="min_samples_leaf"):
        RandomForest(min_samples_leaf=min_samples_leaf)
    with pytest.raises(ParameterError, match="min_samples_leaf"):
        grow_tree(X, y, presort(X), min_samples_leaf=min_samples_leaf)


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
    a = GradientBoosting(n_rounds=5).fit(X, y)
    b = GradientBoosting(n_rounds=5).fit(X, y)
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
    return {
        "offsets": np.array([0, len(feature)], dtype=np.int64),
        "feature": np.asarray(feature, dtype=np.int64),
        "threshold": np.asarray(threshold),
        "left": np.asarray(left, dtype=np.int64),
        "right": np.asarray(right, dtype=np.int64),
        "value": np.vstack(value),
        "importances": importances[None, :],
    }


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


def tfidf_problem(seed, task, n=90, d=9):
    """TFIDF-like columns: mostly 0.0 with one to three idf weights, a
    two-value column, an all-zero column beside a column of +0.0 and -0.0
    (equal values, so neither splits), a column mixing +0.0, -0.0 and one
    weight, and a last column equal to the first."""
    rng = np.random.default_rng(seed)
    weights = np.array([0.41, 0.92, 1.39])
    X = np.where(rng.random((n, d)) < 0.75, 0.0, weights[rng.integers(0, 3, size=(n, d))])
    X[:, 1] = np.where(rng.random(n) < 0.5, 0.0, 0.69)
    X[:, 2] = 0.0
    X[:, 3] = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    X[:, 4] = np.where(rng.random(n) < 0.3, 1.1, np.where(rng.random(n) < 0.5, 0.0, -0.0))
    X[:, -1] = X[:, 0]
    if task == "classification":
        y = (X[:, 0] > 0).astype(int) + ((X[:, 1] > 0) & (X[:, 4] > 0))
    else:
        y = X[:, 0] + 0.5 * X[:, 1] - X[:, 4] + rng.normal(0, 0.2, size=n)
    return X, y


def upsampled_problem(seed, task):
    """oracle_problem with 60 rows of its first class (or of its 30 lowest
    targets) repeated as upsampling does, so a node holds more than the 128
    values after which numpy sums pairwise in blocks."""
    X, y = oracle_problem(seed, task)
    pool = np.flatnonzero(y == 0) if task == "classification" else np.argsort(y)[:30]
    extra = np.random.default_rng(seed + 100).choice(pool, size=60)
    return np.vstack([X, X[extra]]), np.concatenate([y, y[extra]])


PROBLEMS = {"mixed": oracle_problem, "tfidf": tfidf_problem, "upsampled": upsampled_problem}


def assert_same_tree(a, b):
    for name in ("offsets", "feature", "threshold", "left", "right", "value", "importances"):
        assert np.array_equal(a[name], b[name]), name
        assert a[name].dtype == b[name].dtype, name


def grow(X, y, seed=0, task="classification", n_classes=3, max_depth=None, min_samples_leaf=1,
         max_features=None):
    """The tree that the grower for ``task`` makes: the forest's lockstep
    grower as a one-tree forest on every row, whose generator is
    default_rng(seed) as the oracle's is, for classification; for regression
    (which draws no features) grow_tree on presort(X), after checking that it
    reports every row's leaf value as the traversal finds it."""
    if task == "classification":
        forest = RandomForest(n_trees=1, max_depth=max_depth, min_samples_leaf=min_samples_leaf,
                              seed=seed, bootstrap=False, max_features=max_features,
                              n_classes=n_classes)
        return forest.fit(X, y).packed_
    assert max_features is None
    leaves = np.full((X.shape[0], 1), np.nan)
    tree = grow_tree(X, y, presort(X), max_depth=max_depth, min_samples_leaf=min_samples_leaf,
                     leaves=leaves)
    assert np.array_equal(leaves, leaf_values(tree, X)[:, 0])
    return tree


def assert_matches_oracle(problem, task, min_samples_leaf, max_features, seed):
    X, y = PROBLEMS[problem](seed, task)
    kwargs = dict(task=task, n_classes=3, max_depth=None if seed % 2 else 4,
                  min_samples_leaf=min_samples_leaf, max_features=max_features)
    old = reference_grow_tree(X, y, rng=np.random.default_rng(seed), **kwargs)
    new = grow(X, y, seed, **kwargs)
    assert new["offsets"][-1] > 1
    assert_same_tree(new, old)


# forests draw max_features columns per node; boosting's regression trees draw none
GROWERS = [("classification", None), ("classification", 3), ("regression", None)]


@pytest.mark.parametrize("task, max_features", GROWERS)
@pytest.mark.parametrize("min_samples_leaf", [1, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grow_tree_matches_per_feature_oracle(task, min_samples_leaf, max_features, seed):
    assert_matches_oracle("mixed", task, min_samples_leaf, max_features, seed)


@pytest.mark.parametrize("problem", ["tfidf", "upsampled"])
@pytest.mark.parametrize("task, max_features", GROWERS)
@pytest.mark.parametrize("min_samples_leaf", [1, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grow_tree_on_tfidf_and_upsampled_rows_matches_oracle(problem, task, min_samples_leaf,
                                                              max_features, seed):
    assert_matches_oracle(problem, task, min_samples_leaf, max_features, seed)


def assert_blocks_match_oracle(problem, task, monkeypatch):
    # root blocks of 2 (classification) or 6 (regression) of the 9 columns,
    # so the last column, equal to the first, sits in a later block; the
    # presorted columns are partitioned 6 at a time. In the TFIDF problem
    # the classification block of columns 2 and 3 holds no valid position.
    X, y = PROBLEMS[problem](5, task, n=60, d=9)
    monkeypatch.setattr(tree_module, "_BLOCK_ELEMENTS", 60 * 3 * 2)
    old = reference_grow_tree(X, y, task=task, n_classes=3)
    assert_same_tree(grow(X, y, task=task, n_classes=3), old)


@pytest.mark.parametrize("task", ["classification", "regression"])
def test_grow_tree_column_blocks_match_oracle(task, monkeypatch):
    assert_blocks_match_oracle("mixed", task, monkeypatch)


@pytest.mark.parametrize("task", ["classification", "regression"])
def test_grow_tree_tfidf_column_blocks_match_oracle(task, monkeypatch):
    assert_blocks_match_oracle("tfidf", task, monkeypatch)


def reference_boosting_fit(X, y, n_classes, n_rounds, learning_rate, max_depth,
                           min_samples_leaf):
    """GradientBoosting.fit as a loop that grows each tree with the
    per-feature oracle and then walks the tree over X for its leaf values;
    returns the packed trees and the training losses."""
    targets = one_hot(y, n_classes)
    logits = np.zeros((X.shape[0], n_classes))
    proba = softmax(logits)
    trees, history = [], [log_loss(proba, y)]
    for _ in range(n_rounds):
        for c in range(n_classes):
            tree = reference_grow_tree(X, targets[:, c] - proba[:, c], task="regression",
                                       max_depth=max_depth, min_samples_leaf=min_samples_leaf)
            trees.append(tree)
            logits[:, c] += learning_rate * leaf_values(tree, X)[:, 0, 0]
        proba = softmax(logits)
        history.append(log_loss(proba, y))
    return concat_trees(trees), history


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@pytest.mark.parametrize("min_samples_leaf", [1, 3])
def test_boosting_matches_per_tree_loop(problem, min_samples_leaf):
    X, y = PROBLEMS[problem](3, "classification")
    kwargs = dict(n_rounds=4, learning_rate=0.3, max_depth=3, min_samples_leaf=min_samples_leaf)
    model = GradientBoosting(n_classes=3, **kwargs).fit(X, y)
    packed, history = reference_boosting_fit(X, y, n_classes=3, **kwargs)
    for name, array in packed.items():
        assert np.array_equal(model.packed_[name], array), name
        assert model.packed_[name].dtype == array.dtype, name
    assert model.train_loss_history_ == history


def reference_forest_fit(X, y, n_classes, n_trees, seed, min_samples_leaf=1, max_depth=16,
                         bootstrap=True, max_features="sqrt"):
    """RandomForest.fit (by default bootstrap, ceil(sqrt(d)) drawn columns per
    node, depth 16) as a loop that grows each tree with the per-feature oracle
    on a copy of its bootstrap rows; returns the packed trees."""
    if max_features == "sqrt":
        max_features = math.ceil(math.sqrt(X.shape[1]))
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng(seed + t)
        sample = rng.integers(0, X.shape[0], size=X.shape[0]) if bootstrap else slice(None)
        trees.append(reference_grow_tree(
            X[sample], y[sample], task="classification", n_classes=n_classes,
            max_depth=max_depth, min_samples_leaf=min_samples_leaf, max_features=max_features,
            rng=rng))
    return concat_trees(trees)


def assert_same_packed(model, packed):
    for name, array in packed.items():
        assert np.array_equal(model.packed_[name], array), name
        assert model.packed_[name].dtype == array.dtype, name


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@pytest.mark.parametrize("min_samples_leaf", [1, 3])
def test_forest_matches_per_tree_loop(problem, min_samples_leaf):
    X, y = PROBLEMS[problem](3, "classification")
    model = RandomForest(n_trees=5, seed=3, min_samples_leaf=min_samples_leaf).fit(X, y)
    packed = reference_forest_fit(X, y, n_classes=3, n_trees=5, seed=3,
                                  min_samples_leaf=min_samples_leaf)
    assert max(np.diff(packed["offsets"])) > 7
    assert_same_packed(model, packed)


# the lockstep grower against the per-tree loop: 24 unbounded trees that end
# at different steps; leaves of at least 3 rows; classes beyond the labels;
# every row and column; and batches that the block size splits into groups of
# two nodes (90 rows x 3 drawn columns x 3 classes each) or into one column
# of one node at a time
LOCKSTEP_CASES = {
    "deep": ({"n_trees": 24, "max_depth": None}, None),
    "min-leaf-3": ({"n_trees": 8, "min_samples_leaf": 3}, None),
    "unseen-classes": ({"n_trees": 8, "n_classes": 5}, None),
    "all-rows-and-columns": ({"n_trees": 3, "bootstrap": False, "max_features": None}, None),
    "node-blocks": ({"n_trees": 8}, 2 * 90 * 3 * 3),
    "column-blocks": ({"n_trees": 8, "max_depth": None}, 400),
}


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
def test_lockstep_forest_matches_per_tree_loop(problem, case, monkeypatch):
    kwargs, block = LOCKSTEP_CASES[case]
    if block is not None:
        monkeypatch.setattr(tree_module, "_BLOCK_ELEMENTS", block)
    X, y = PROBLEMS[problem](4, "classification")
    kwargs = {"seed": 11, "n_classes": 3, **kwargs}
    model = RandomForest(**kwargs).fit(X, y)
    sizes = np.diff(model.packed_["offsets"])
    assert sizes.max() > 7 and (case != "deep" or np.unique(sizes).size > 5)
    assert_same_packed(model, reference_forest_fit(X, y, **kwargs))


def test_boosting_partitions_shares_only_for_searched_children(monkeypatch):
    # a child at max_depth is a leaf whatever its rows, so no share is made for it
    calls = []
    partition = tree_module._partition
    monkeypatch.setattr(tree_module, "_partition",
                        lambda *args: calls.append(args) or partition(*args))
    X, y = make_3class_blobs()
    GradientBoosting(n_rounds=2, max_depth=1).fit(X, y)
    assert not calls
    GradientBoosting(n_rounds=2, max_depth=2).fit(X, y)
    assert len(calls) == 2 * 3  # each tree's root split, whose children are searched


def wide_problem():
    """A 300 x 2000 TFIDF-like matrix with three classes, after a small fit of
    each tree model has done the first-call imports."""
    rng = np.random.default_rng(0)
    X = np.where(rng.random((300, 2000)) < 0.9, 0.0, rng.choice([0.4, 0.9, 1.4], size=(300, 2000)))
    y = rng.integers(0, 3, size=300)
    GradientBoosting(n_rounds=1, max_depth=1).fit(X[:30, :4], y[:30])
    RandomForest(n_trees=1, max_depth=1).fit(X[:30, :4], y[:30])
    return X, y


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


BLOCKS = pytest.mark.parametrize("block", [None, 1 << 14], ids=["default-blocks", "small-blocks"])


@BLOCKS
def test_boosting_working_set_within_stated_bound(monkeypatch, block):
    # the bound in the tree module's docstring: 4.5 x X.nbytes of presorted
    # shares plus about twenty arrays of one column block; a forest holds no
    # presort and stays well within it
    if block is not None:
        monkeypatch.setattr(tree_module, "_BLOCK_ELEMENTS", block)
    X, y = wide_problem()
    for model in (GradientBoosting(n_rounds=1, max_depth=3), RandomForest(n_trees=2)):
        peak = traced_peak(lambda: model.fit(X, y))
        assert peak <= 4.5 * X.nbytes + 20 * 8 * tree_module._BLOCK_ELEMENTS, type(model)


@BLOCKS
def test_presort_peak_within_stated_bound(monkeypatch, block):
    # the kept presort (int32 rows and float64 values) is 1.5 x X.nbytes, and
    # sorting a block of columns at a time adds its int64 order and its
    # gathered values; an int64 order of the whole matrix peaked at 2.5 x,
    # above this bound with small blocks
    if block is not None:
        monkeypatch.setattr(tree_module, "_BLOCK_ELEMENTS", block)
    X, _ = wide_problem()
    peak = traced_peak(lambda: presort(X))
    assert peak <= 1.5 * X.nbytes + 3 * 8 * tree_module._BLOCK_ELEMENTS


@BLOCKS
def test_forest_working_set_does_not_grow_with_trees(monkeypatch, block):
    # every tree reads X through its sample rows, so a fit holds one copy of X
    # (transposed, for the split search) plus one block's arrays however many
    # trees it grows; a bootstrap copy of X per tree would take 100 x X.nbytes
    if block is not None:
        monkeypatch.setattr(tree_module, "_BLOCK_ELEMENTS", block)
    X, y = wide_problem()
    peak = traced_peak(lambda: RandomForest(n_trees=100, max_depth=3).fit(X, y))
    assert peak <= 1.5 * X.nbytes + 20 * 8 * tree_module._BLOCK_ELEMENTS


# --- oracle: the per-tree walk that the one traversal of the packed arrays replaced


def split_trees(packed):
    """Each tree of packed arrays as a one-tree dict (slices of them)."""
    bounds = zip(packed["offsets"][:-1].tolist(), packed["offsets"][1:].tolist())
    return [{"offsets": np.array([0, hi - lo]), "importances": packed["importances"][t : t + 1],
             **{name: packed[name][lo:hi]
                for name in ("feature", "threshold", "left", "right", "value")}}
            for t, (lo, hi) in enumerate(bounds)]


def reference_apply(tree, X):
    """Route every row of X to its leaf value in one tree, shape (N, value_dim)."""
    X = np.asarray(X, dtype=np.float64)
    idx = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        feats = tree["feature"][idx]
        active = feats != -1
        if not active.any():
            break
        rows = np.nonzero(active)[0]
        go_left = X[rows, feats[rows]] <= tree["threshold"][idx[rows]]
        idx[rows] = np.where(go_left, tree["left"][idx[rows]], tree["right"][idx[rows]])
    return tree["value"][idx]


def reference_forest_proba(forest, X):
    X = np.asarray(X, dtype=np.float64)
    total = np.zeros((X.shape[0], forest.n_classes), dtype=np.float64)
    trees = split_trees(forest.packed_)
    for tree in trees:
        total += reference_apply(tree, X)
    return total / len(trees)


def reference_decision_function(model, X):
    X = np.asarray(X, dtype=np.float64)
    logits = np.zeros((X.shape[0], model.n_classes), dtype=np.float64)
    for t, tree in enumerate(split_trees(model.packed_)):  # rounds of one tree per class
        logits[:, t % model.n_classes] += model.learning_rate * reference_apply(tree, X)[:, 0]
    return logits


def fitted_tree_models(**kwargs):
    X, y = oracle_problem(7, "classification")
    rf = RandomForest(n_trees=12, seed=3, **kwargs).fit(X, y)
    xgb = GradientBoosting(n_rounds=8, **kwargs).fit(X, y)
    return X, rf, xgb


def walk_rows(X, *models):
    """X, then X's first row once per split node with that node's feature set
    exactly to its threshold, then copies of X with NaN in some columns."""
    rows = [X]
    for model in models:
        for feature, threshold in zip(model.packed_["feature"], model.packed_["threshold"]):
            if feature >= 0:
                row = X[:1].copy()
                row[0, feature] = threshold
                rows.append(row)
    with_nan = X[:20].copy()
    with_nan[:10, 0] = np.nan
    with_nan[10:, ::2] = np.nan
    return np.vstack(rows + [with_nan])


def assert_walks_match_oracle(X, *models):
    for model in models:
        if isinstance(model, RandomForest):
            got, want = model.predict_proba(X), reference_forest_proba(model, X)
        else:
            got, want = model.decision_function(X), reference_decision_function(model, X)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("kwargs", [{}, {"max_depth": None}, {"min_samples_leaf": 46}],
                         ids=["default-depth", "deep", "single-leaf"])
def test_traversal_matches_per_tree_oracle(kwargs):
    X, rf, xgb = fitted_tree_models(**kwargs)
    sizes = [n for model in (rf, xgb) for n in np.diff(model.packed_["offsets"]).tolist()]
    if "min_samples_leaf" in kwargs:  # more than half the 90 rows: no split is allowed
        assert max(sizes) == 1
    else:
        assert max(sizes) > 7
    assert_walks_match_oracle(walk_rows(X, rf, xgb), rf, xgb)
    assert_walks_match_oracle(X[:1], rf, xgb)
    assert_walks_match_oracle(X[:0], rf, xgb)


def test_traversal_on_threshold_goes_left_and_nan_goes_right():
    X, y = make_xor()
    tree = plain_tree(max_depth=1).fit(X, y).packed_
    rows = np.zeros((3, 2))
    threshold = tree["threshold"][0]
    rows[:, tree["feature"][0]] = [threshold, np.nextafter(threshold, np.inf), np.nan]
    expected = tree["value"][[tree["left"][0], tree["right"][0], tree["right"][0]]]
    assert np.array_equal(tree_module.leaf_values(tree, rows)[:, 0], expected)


def test_traversal_row_blocks_match_oracle(monkeypatch):
    X, rf, xgb = fitted_tree_models()
    rows = walk_rows(X, rf, xgb)
    # blocks of 5 rows for the forest (12 trees x 3 classes) and 7 for boosting (24 trees)
    monkeypatch.setattr(tree_module, "_BLOCK_ELEMENTS", 12 * 3 * 5)
    assert_walks_match_oracle(rows, rf, xgb)


def test_leaf_sums_add_in_tree_order():
    # one group of one-value trees whose leaves span 16 decades: a pairwise
    # sum (np.sum along a contiguous axis) rounds differently from the loop
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 3))
    trees = [grow_tree(X, rng.normal(size=40) * 10.0 ** rng.integers(-8, 8, size=40),
                       presort(X), max_depth=2) for _ in range(30)]
    want = np.zeros((40, 1))
    for tree in trees:
        want += 0.3 * reference_apply(tree, X)
    got = tree_module.sum_leaf_values(concat_trees(trees), X, 1, 0.3)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["rf", "xgb"])
def test_traversal_after_bundle_roundtrip_matches_oracle(tmp_path, kind):
    X, y = oracle_problem(7, "classification", d=8)  # audio_only rows
    hp = {"rf": {"n_trees": 12}, "xgb": {"n_rounds": 8}}[kind]
    bundle = train_bundle(ModelBundle(kind, "audio_only", "six", 3, hp), X, y)
    save_bundle(tmp_path / "model.emf", bundle)
    fitted = bundle.members[0].classifier
    loaded = load_bundle(tmp_path / "model.emf").members[0].classifier
    for name, array in fitted.state()[1].items():
        assert np.array_equal(loaded.state()[1][name], array)
        assert loaded.state()[1][name].dtype == array.dtype
    assert_walks_match_oracle(walk_rows(X, fitted), fitted, loaded)


def first_trees(arrays, k):
    """The packed arrays of the first k trees."""
    end = arrays["offsets"][k]
    nodes = {name: arrays[name][:end] for name in ("feature", "threshold", "left", "right", "value")}
    return {"offsets": arrays["offsets"][: k + 1], "importances": arrays["importances"][:k], **nodes}


def test_tree_models_reject_arrays_without_their_own_tree_count():
    _, rf, xgb = fitted_tree_models()  # 3 classes, 12 trees and 8 rounds
    meta, arrays = rf.state()
    for k in (0, 11):
        with pytest.raises(ValueError):
            RandomForest.from_state(meta, first_trees(arrays, k))
    assert RandomForest.from_state(meta, first_trees(arrays, 12)).packed_["offsets"].size == 13
    meta, arrays = xgb.state()
    for k in (0, 5, 6):  # 6 trees are whole rounds, but 2 of the model's 8
        with pytest.raises(ValueError):
            GradientBoosting.from_state(meta, first_trees(arrays, k))
    assert GradientBoosting.from_state(meta, first_trees(arrays, 24)).packed_["offsets"].size == 25


# --- thresholds that cannot empty a child: where the midpoint of two adjacent
# distinct values a < b is not in [a, b), the threshold is a


EDGE_PAIRS = {
    "infinities": (-np.inf, np.inf),  # the midpoint is NaN
    "overflow": (1e308, 1.7e308),  # the sum overflows to +inf
    "adjacent": (1 + 2**-52, 1 + 2**-51),  # the midpoint rounds up to b
}


def edge_problem(a, b, seed=0):
    """Column 0 holds only a and b, and the label depends on it and on the
    random column 1, so trees split column 0 between the neighbours a and b."""
    rng = np.random.default_rng(seed)
    high = rng.random(40) < 0.5
    X = np.column_stack([np.where(high, b, a), rng.uniform(-1.0, 1.0, 40)])
    y = (high ^ (X[:, 1] > 0.5)).astype(np.int64)
    return X, y


def assert_sound_tree(tree, X):
    """Every node value is finite, and routing X sends rows to both children
    of every split (each child of a split holds training rows, all of X)."""
    assert np.isfinite(tree["value"]).all()
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        assert rows.size > 0
        if tree["feature"][node] >= 0:
            go_left = X[rows, tree["feature"][node]] <= tree["threshold"][node]
            stack += [(tree["left"][node], rows[go_left]), (tree["right"][node], rows[~go_left])]


def edge_models(X, y, max_depth):
    return [
        plain_tree(max_depth=max_depth).fit(X, y).packed_,
        grow_tree(X, y - 0.5, presort(X), max_depth=max_depth),
        *split_trees(RandomForest(n_trees=6, max_depth=max_depth, seed=1).fit(X, y).packed_),
        *split_trees(GradientBoosting(n_rounds=3, max_depth=max_depth).fit(X, y).packed_),
    ]


@pytest.mark.parametrize("pair", sorted(EDGE_PAIRS))
def test_thresholds_between_edge_values_keep_both_children(pair):
    a, b = EDGE_PAIRS[pair]
    X, y = edge_problem(a, b)
    trees = edge_models(X, y, max_depth=5)
    for tree in trees:
        assert_sound_tree(tree, X)
    on_column_0 = [t for tree in trees
                   for f, t in zip(tree["feature"], tree["threshold"]) if f == 0]
    assert on_column_0 and all(t == a for t in on_column_0)


@pytest.mark.parametrize("search", ["_best_splits", "_gini_splits"])
def test_unbounded_trees_end_between_infinities(monkeypatch, search):
    calls = []
    best_splits = getattr(tree_module, search)

    def counted(*args):  # a tree that empties a child keeps splitting forever
        calls.append(1)
        assert len(calls) < 10_000
        return best_splits(*args)

    monkeypatch.setattr(tree_module, search, counted)
    X, y = edge_problem(-np.inf, np.inf)
    for tree in edge_models(X, y, max_depth=None):
        assert_sound_tree(tree, X)
    assert calls
    tree = plain_tree(max_depth=None).fit(np.array([[-np.inf], [np.inf]] * 2),
                                          np.array([0, 1, 0, 1])).packed_
    assert tree["threshold"].tolist() == [-np.inf, 0.0, 0.0]
    assert tree["value"].tolist() == [[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]]


def test_midpoint_thresholds_are_unchanged_inside_the_interval():
    X = np.array([[0.0], [1.0], [3.0], [3.0 + 2**-50]])
    tree = plain_tree(max_depth=None).fit(X, np.array([0, 1, 1, 0])).packed_
    # 3 + 2**-51 lies one ulp above 3 and one below 3 + 2**-50
    assert tree["threshold"][tree["feature"] == 0].tolist() == [0.5, 3.0 + 2**-51]
