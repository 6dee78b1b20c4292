"""Classifier implementations with a shared probabilistic interface."""

from .base import ProbabilisticClassifier, softmax
from .boosting import GradientBoosting
from .forest import RandomForest
from .linear import LinearSVM, LogisticRegression
from .mlp import MlpClassifier
from .naive_bayes import MultinomialNaiveBayes

__all__ = [
    "ProbabilisticClassifier",
    "RandomForest",
    "GradientBoosting",
    "LinearSVM",
    "LogisticRegression",
    "MultinomialNaiveBayes",
    "MlpClassifier",
    "softmax",
]
