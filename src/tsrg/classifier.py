"""Linear max-margin multi-class classifier (one-vs-rest hinge loss).

Each binary subproblem is solved in the dual by coordinate descent in Gram
space (Hsieh et al., ICML 2008): the k problems share one n x n Gram matrix
of the samples, each epoch visits the coordinates in a permutation drawn
from a fixed seed, and coordinates stuck at a bound are shrunk out of the
sweep as in LIBLINEAR.  The seed is fixed, so training is deterministic for
a fixed data order.  The bias is absorbed into an augmented constant
feature, so it is regularized along with the weights.
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
    class_names: tuple[str, ...]
    epochs: tuple[int, ...] = ()       # dual CD epochs per class
    converged: tuple[bool, ...] = ()   # per class: _TOL met before _MAX_EPOCHS


_TOL, _MAX_EPOCHS = 1e-4, 1000  # the stopping rule, read when _dual_cd_hinge is called


def _dual_cd_hinge(gram: np.ndarray, y: np.ndarray, c: float) -> tuple[np.ndarray, int, bool]:
    """L1-loss SVM dual coordinate descent in Gram space, with shrinking.

    gram: n x n Gram matrix of the augmented samples; y in {-1, +1}.
    Keeps u = G(y*alpha), so a coordinate's gradient is y_i u_i - 1 and a
    step is one axpy on the row G[i].  Each epoch visits the active set in
    a permutation drawn from a fixed seed.  A coordinate stuck at a bound
    whose gradient points outside the previous epoch's projected-gradient
    range leaves the active set (Fan et al., LIBLINEAR, JMLR 2008, sec. 3).
    Convergence needs an epoch that starts from the full set with
    max |projected gradient| < _TOL; an epoch that meets it on a shrunk
    set restores the full set instead.
    Returns (alpha, epochs run, converged).
    """
    n = gram.shape[0]
    rng = np.random.default_rng(0)
    rows = list(gram)
    q_diag = gram.diagonal().tolist()
    y_list = y.tolist()
    alpha = [0.0] * n
    u = np.zeros(n)
    active = np.arange(n)
    pg_max_old, pg_min_old = np.inf, -np.inf
    for epoch in range(1, _MAX_EPOCHS + 1):
        full = active.size == n
        pg_max, pg_min = -np.inf, np.inf
        kept = []
        for i in rng.permutation(active).tolist():
            yi = y_list[i]
            g = yi * u.item(i) - 1.0
            a = alpha[i]
            if a <= 0.0:
                if g > pg_max_old:
                    continue
                pg = g if g < 0.0 else 0.0
            elif a >= c:
                if g < pg_min_old:
                    continue
                pg = g if g > 0.0 else 0.0
            else:
                pg = g
            kept.append(i)
            pg_max = pg if pg > pg_max else pg_max
            pg_min = pg if pg < pg_min else pg_min
            if pg != 0.0:
                a_new = min(max(a - g / q_diag[i], 0.0), c)
                if a_new != a:
                    u += ((a_new - a) * yi) * rows[i]
                    alpha[i] = a_new
        if max(pg_max, -pg_min) < _TOL:
            if full:
                return np.array(alpha), epoch, True
            active = np.arange(n)
            pg_max_old, pg_min_old = np.inf, -np.inf
            continue
        active = np.array(kept, dtype=np.intp)
        pg_max_old = pg_max if pg_max > 0.0 else np.inf
        pg_min_old = pg_min if pg_min < 0.0 else -np.inf
    return np.array(alpha), _MAX_EPOCHS, False


def train(data: LabeledDataset, penalty_c: float = 1.0) -> LinearClassifier:
    """Train one-vs-rest hinge-loss linear classifiers, one per class.

    The k binary problems share one Gram matrix of the augmented samples;
    each class's epoch count and convergence flag are kept on the model.
    """
    if not penalty_c > 0:  # NaN fails too
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
    gram = x_aug.T @ x_aug
    weights = np.zeros((k, data.features.d))
    biases = np.zeros(k)
    epochs, converged = [], []
    for c_idx in range(k):
        y = np.where(data.labels == c_idx, 1.0, -1.0)
        alpha, n_epochs, done = _dual_cd_hinge(gram, y, penalty_c)
        w_aug = x_aug @ (y * alpha)
        weights[c_idx] = w_aug[:-1]
        biases[c_idx] = w_aug[-1]
        epochs.append(n_epochs)
        converged.append(done)
    return LinearClassifier(weights=weights, biases=biases, class_names=data.class_names,
                            epochs=tuple(epochs), converged=tuple(converged))


def decision_scores(model: LinearClassifier, x: FeatureMatrix) -> np.ndarray:
    if x.d != model.weights.shape[1]:
        raise DimensionError(
            f"input dimension {x.d} != model dimension {model.weights.shape[1]}"
        )
    return model.weights @ x.data + model.biases[:, None]


def predict(model: LinearClassifier, x: FeatureMatrix) -> np.ndarray:
    """Argmax class score per column; ties break toward the lowest class id."""
    return np.argmax(decision_scores(model, x), axis=0)  # the first (lowest) maximizer
