"""Confusion matrices and the WAR / UAR evaluation metrics.

WAR (weighted average recall) is plain accuracy; UAR (unweighted average
recall) averages per-class recall over the classes actually present, so a
WAR >> UAR gap flags majority-class bias.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError


@dataclass(frozen=True)
class EvalReport:
    confusion: np.ndarray            # k x k int64 counts, not all zero; rows = true, cols = predicted
    class_names: tuple[str, ...]

    @property
    def war(self) -> float:
        return float(self.confusion.trace() / int(self.confusion.sum()))

    @property
    def uar(self) -> float:
        row_sums = self.confusion.sum(axis=1)
        present = row_sums > 0
        return float((self.confusion.diagonal()[present] / row_sums[present]).mean())

    @property
    def absent_classes(self) -> tuple[int, ...]:
        """Class ids with zero true samples, which UAR excludes."""
        return tuple(int(i) for i in np.flatnonzero(self.confusion.sum(axis=1) == 0))

    def to_dict(self) -> dict:
        return {
            "class_names": list(self.class_names),
            "confusion": self.confusion.tolist(),
            "war": self.war,
            "uar": self.uar,
            "absent_classes": list(self.absent_classes),
        }

    @staticmethod
    def from_dict(d) -> "EvalReport":
        """The report a ``to_dict`` record holds, or a ``ValueError`` saying why
        ``d`` is not one, such as war, uar or absent_classes its counts do not give."""
        if not isinstance(d, dict):
            raise ValueError("must be a JSON object")
        missing = [k for k in ("confusion", "war", "uar", "class_names", "absent_classes")
                   if k not in d]
        if missing:
            raise ValueError(f"lacks {', '.join(missing)}")
        names, conf = d["class_names"], d["confusion"]
        if not (isinstance(names, list) and names and all(isinstance(n, str) for n in names)):
            raise ValueError("class_names must be a non-empty list of strings")
        k = len(names)
        if not (isinstance(conf, list) and len(conf) == k
                and all(isinstance(row, list) and len(row) == k
                        and all(type(c) is int and c >= 0 for c in row) for row in conf)
                and sum(map(sum, conf)) < 2 ** 63):  # summed as int64; type() refuses bool
            raise ValueError(f"confusion must be a {k} x {k} list of counts")
        report = report_from_confusion(conf, tuple(names))
        derived = report.to_dict()
        keys = ("war", "uar", "absent_classes")  # compared as JSON text, so true is not 1.0
        if json.dumps([d[k] for k in keys]) != json.dumps([derived[k] for k in keys]):
            raise ValueError("war, uar and absent_classes must match the confusion matrix")
        return report

    def __eq__(self, other) -> bool:
        if not isinstance(other, EvalReport):
            return NotImplemented
        return (np.array_equal(self.confusion, other.confusion)
                and self.class_names == other.class_names)


def confusion_matrix(true_labels: np.ndarray, predicted: np.ndarray, k: int) -> np.ndarray:
    true_labels = np.asarray(true_labels, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if true_labels.shape != predicted.shape:
        raise DimensionError(
            f"label vectors differ in length: {true_labels.shape} vs {predicted.shape}"
        )
    if true_labels.size and (true_labels.min() < 0 or true_labels.max() >= k
                             or predicted.min() < 0 or predicted.max() >= k):
        raise ValueError(f"labels must lie in 0..{k - 1}")
    conf = np.zeros((k, k), dtype=np.int64)
    np.add.at(conf, (true_labels, predicted), 1)
    return conf


def report_from_confusion(conf: np.ndarray,
                          class_names: tuple[str, ...] | None = None) -> EvalReport:
    conf = np.asarray(conf, dtype=np.int64)
    if class_names is None:
        class_names = tuple(str(i) for i in range(conf.shape[0]))
    if int(conf.sum()) == 0:
        raise ValueError("confusion matrix is empty")
    return EvalReport(confusion=conf, class_names=tuple(class_names))


def evaluate(true_labels: np.ndarray, predicted: np.ndarray, k: int,
             class_names: tuple[str, ...] | None = None) -> EvalReport:
    """Confusion matrix plus WAR/UAR for one prediction run."""
    return report_from_confusion(confusion_matrix(true_labels, predicted, k), class_names)


def render_text(report: EvalReport, title: str = "") -> str:
    """Row-normalized confusion table (percent) with WAR/UAR footer."""
    names = report.class_names
    width = max(10, max(len(n) for n in names) + 2)
    lines = []
    if title:
        lines.append(title)
    header = " " * width + "".join(f"{n:>{width}}" for n in names)
    lines.append(header)
    row_sums = report.confusion.sum(axis=1)
    for i, name in enumerate(names):
        if row_sums[i] > 0:
            cells = "".join(
                f"{100.0 * report.confusion[i, j] / row_sums[i]:>{width}.2f}"
                for j in range(len(names))
            )
        else:
            cells = "".join(f"{'--':>{width}}" for _ in names)
        lines.append(f"{name:<{width}}" + cells)
    lines.append(f"WAR = {100.0 * report.war:.2f}%  UAR = {100.0 * report.uar:.2f}%")
    if report.absent_classes:
        absent = ", ".join(names[i] for i in report.absent_classes)
        lines.append(f"(classes absent from ground truth, excluded from UAR: {absent})")
    return "\n".join(lines) + "\n"
