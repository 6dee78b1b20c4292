"""Confusion-matrix based evaluation.

Precision is tp/(tp+fp) and recall tp/(tp+fn), computed one-vs-rest per
class from the confusion matrix (rows = truth, columns = prediction). F1 is
the harmonic mean, zero when precision and recall are both zero. Macro
averages are unweighted means over classes with non-zero support.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterError


def confusion_matrix(truth: np.ndarray, predictions: np.ndarray, n_classes: int) -> np.ndarray:
    truth = np.asarray(truth, dtype=np.int64)
    predictions = np.asarray(predictions, dtype=np.int64)
    if truth.shape != predictions.shape or truth.size == 0:
        raise ParameterError("truth and predictions must be equal-length and non-empty")
    if truth.min() < 0 or predictions.min() < 0:
        raise ParameterError("labels must be non-negative")
    if truth.max() >= n_classes or predictions.max() >= n_classes:
        raise ParameterError(f"label outside the {n_classes}-class range")
    matrix = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(matrix, (truth, predictions), 1)
    return matrix


@dataclass
class ClassMetrics:
    label: str
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class EvalReport:
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    confusion: np.ndarray
    per_class: list[ClassMetrics]
    class_names: list[str]

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
            "per_class": [asdict(m) for m in self.per_class],
            "class_names": list(self.class_names),
            "confusion_matrix": self.confusion.tolist(),
        }


def evaluate(
    predictions: np.ndarray,
    truth: np.ndarray,
    n_classes: int,
    class_names: list[str] | None = None,
) -> EvalReport:
    matrix = confusion_matrix(truth, predictions, n_classes)
    names = class_names if class_names is not None else [str(c) for c in range(n_classes)]
    if len(names) != n_classes:
        raise ParameterError("class_names length must equal n_classes")

    total = matrix.sum()
    accuracy = float(np.trace(matrix) / total)
    per_class: list[ClassMetrics] = []
    macro_terms: list[tuple[float, float, float]] = []
    for c in range(n_classes):
        tp = float(matrix[c, c])
        fp = float(matrix[:, c].sum() - matrix[c, c])
        fn = float(matrix[c, :].sum() - matrix[c, c])
        support = int(matrix[c, :].sum())
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class.append(ClassMetrics(names[c], precision, recall, f1, support))
        if support > 0:
            macro_terms.append((precision, recall, f1))

    if not macro_terms:
        raise ParameterError("no class has support")
    macro = np.mean(np.asarray(macro_terms), axis=0)
    return EvalReport(
        accuracy=accuracy,
        macro_precision=float(macro[0]),
        macro_recall=float(macro[1]),
        macro_f1=float(macro[2]),
        confusion=matrix,
        per_class=per_class,
        class_names=list(names),
    )
