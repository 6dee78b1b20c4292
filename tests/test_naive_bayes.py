import numpy as np
import pytest

from emoforge.errors import DataError
from emoforge.models import MultinomialNaiveBayes


def exclusive_term_corpus():
    # features: [class-A word, class-B word, shared filler]
    X = np.array(
        [
            [3.0, 0.0, 2.0],
            [2.0, 0.0, 1.0],
            [0.0, 4.0, 2.0],
            [0.0, 1.0, 3.0],
        ]
    )
    y = np.array([0, 0, 1, 1])
    return X, y


def test_mnb_classifies_exclusive_terms():
    X, y = exclusive_term_corpus()
    model = MultinomialNaiveBayes(alpha=1.0).fit(X, y)
    assert model.predict(np.array([[2.0, 0.0, 0.0]]))[0] == 0
    assert model.predict(np.array([[0.0, 3.0, 0.0]]))[0] == 1


def test_mnb_alpha_zero_unseen_term_no_crash():
    X, y = exclusive_term_corpus()
    model = MultinomialNaiveBayes(alpha=0.0).fit(X, y)
    proba = model.predict_proba(np.array([[1.0, 1.0, 5.0]]))
    assert np.isfinite(proba).all()
    assert proba.sum() == pytest.approx(1.0)


def test_mnb_alpha_zero_exclusive_term_zeroes_other_class():
    X, y = exclusive_term_corpus()
    model = MultinomialNaiveBayes(alpha=0.0).fit(X, y)
    proba = model.predict_proba(np.array([[2.0, 0.0, 1.0]]))[0]
    assert proba[0] == pytest.approx(1.0)
    assert proba[1] == pytest.approx(0.0)


def test_mnb_equal_counts_posterior_equals_priors():
    X = np.ones((10, 4))
    y = np.array([0] * 7 + [1] * 3)
    model = MultinomialNaiveBayes(alpha=1.0).fit(X, y)
    proba = model.predict_proba(np.array([[2.0, 2.0, 2.0, 2.0]]))[0]
    assert np.allclose(proba, [0.7, 0.3], atol=1e-12)


def test_mnb_negative_feature_is_domain_error():
    X, y = exclusive_term_corpus()
    bad = X.copy()
    bad[0, 0] = -1.0
    with pytest.raises(DataError):
        MultinomialNaiveBayes().fit(bad, y)
    model = MultinomialNaiveBayes().fit(X, y)
    with pytest.raises(DataError):
        model.predict_proba(np.array([[-0.5, 0.0, 0.0]]))


def test_mnb_hand_computed_posterior():
    # single feature per class, alpha=1: theta_A = (5+1)/(5+2), theta_B=(1+1)/(1+2)
    X = np.array([[5.0, 0.0], [0.0, 1.0]])
    y = np.array([0, 1])
    model = MultinomialNaiveBayes(alpha=1.0).fit(X, y)
    proba = model.predict_proba(np.array([[1.0, 0.0]]))[0]
    theta_a = 6 / 7
    theta_b = 1 / 3
    expected_a = 0.5 * theta_a / (0.5 * theta_a + 0.5 * theta_b)
    assert proba[0] == pytest.approx(expected_a, abs=1e-12)


def test_mnb_label_permutation():
    rng = np.random.default_rng(0)
    X = rng.poisson(2.0, size=(60, 5)).astype(float)
    y = rng.integers(0, 3, size=60)
    perm = np.array([2, 0, 1])
    a = MultinomialNaiveBayes(alpha=0.5).fit(X, y)
    b = MultinomialNaiveBayes(alpha=0.5).fit(X, perm[y])
    assert np.allclose(b.predict_proba(X)[:, perm], a.predict_proba(X), atol=1e-12)


def test_mnb_rows_sum_to_one():
    rng = np.random.default_rng(1)
    X = rng.poisson(1.5, size=(40, 6)).astype(float)
    y = rng.integers(0, 4, size=40)
    model = MultinomialNaiveBayes().fit(X, y)
    proba = model.predict_proba(X)
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
    assert (proba >= 0).all() and (proba <= 1).all()
