"""Linear max-margin multi-class classifier (one-vs-rest hinge loss).

Each binary subproblem is solved in the dual by coordinate descent with a
fixed sweep order, which makes training deterministic for a fixed data
order.  The bias is absorbed into an augmented constant feature, so it is
regularized along with the weights.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptyClassError
from .kernels import FeatureMatrix


@dataclass(frozen=True)
class LabeledDataset:
    features: FeatureMatrix
    labels: np.ndarray              # int class ids 0..k-1
    class_names: tuple[str, ...]

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.shape != (self.features.n,):
            raise DimensionError(
                f"{labels.shape[0] if labels.ndim == 1 else labels.shape} labels "
                f"for {self.features.n} samples"
            )
        k = len(self.class_names)
        if labels.size and (labels.min() < 0 or labels.max() >= k):
            raise ValueError(f"labels must lie in 0..{k - 1}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_names", tuple(self.class_names))

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


@dataclass(frozen=True)
class LinearClassifier:
    weights: np.ndarray             # k x d
    biases: np.ndarray              # k
    penalty_c: float
    class_names: tuple[str, ...]


def _dual_cd_hinge(x_aug: np.ndarray, y: np.ndarray, c: float,
                   tol: float = 1e-4, max_epochs: int = 1000) -> np.ndarray:
    """L1-loss SVM dual coordinate descent (fixed sweep order).

    x_aug: (d+1) x n with the constant feature appended; y in {-1, +1}.
    Returns the augmented weight vector.
    """
    n = x_aug.shape[1]
    q_diag = np.sum(x_aug * x_aug, axis=0)
    alpha = np.zeros(n)
    w = np.zeros(x_aug.shape[0])
    for _ in range(max_epochs):
        max_pg = 0.0
        for i in range(n):
            g = y[i] * np.dot(w, x_aug[:, i]) - 1.0
            a = alpha[i]
            if a <= 0.0:
                pg = min(g, 0.0)
            elif a >= c:
                pg = max(g, 0.0)
            else:
                pg = g
            if pg != 0.0:
                a_new = min(max(a - g / q_diag[i], 0.0), c)
                if a_new != a:
                    w += (a_new - a) * y[i] * x_aug[:, i]
                    alpha[i] = a_new
            max_pg = max(max_pg, abs(pg))
        if max_pg < tol:
            break
    return w


def train(data: LabeledDataset, penalty_c: float = 1.0) -> LinearClassifier:
    """Train one-vs-rest hinge-loss linear classifiers, one per class."""
    if penalty_c <= 0:
        raise ValueError("penalty_c must be > 0")
    k = data.num_classes
    if k < 2:
        raise ValueError("need at least 2 classes")
    counts = np.bincount(data.labels, minlength=k)
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        names = ", ".join(data.class_names[i] for i in missing)
        raise EmptyClassError(f"no training samples for class(es): {names}")

    x = data.features.data
    x_aug = np.vstack([x, np.ones((1, x.shape[1]))])
    weights = np.zeros((k, data.features.d))
    biases = np.zeros(k)
    for c_idx in range(k):
        y = np.where(data.labels == c_idx, 1.0, -1.0)
        w_aug = _dual_cd_hinge(x_aug, y, penalty_c)
        weights[c_idx] = w_aug[:-1]
        biases[c_idx] = w_aug[-1]
    return LinearClassifier(weights=weights, biases=biases,
                            penalty_c=penalty_c, class_names=data.class_names)


def decision_scores(model: LinearClassifier, x: FeatureMatrix) -> np.ndarray:
    if x.d != model.weights.shape[1]:
        raise DimensionError(
            f"input dimension {x.d} != model dimension {model.weights.shape[1]}"
        )
    return model.weights @ x.data + model.biases[:, None]


def predict(model: LinearClassifier, x: FeatureMatrix) -> np.ndarray:
    """Argmax class score per column; ties break toward the lowest class id."""
    scores = decision_scores(model, x)
    return np.argmax(scores, axis=0)  # np.argmax returns the first (lowest) maximizer
