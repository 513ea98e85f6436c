"""Kernel functions, Gram-matrix assembly and the empirical MMD.

Feature matrices are stored column-per-sample (d rows, n columns).  The
augmented kernel blocks stack source and target anchors as rows, which is
the layout the re-generator solver consumes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NonFiniteError


@dataclass(frozen=True)
class FeatureMatrix:
    """A d x n real matrix, one sample per column."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise DimensionError(f"feature matrix must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionError(f"feature matrix must be non-empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("feature matrix contains NaN/Inf")
        object.__setattr__(self, "data", arr)

    @property
    def d(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice: 'linear' or 'gaussian' (bandwidth sigma > 0).

    A gaussian spec with bandwidth=None is resolved against data with the
    median heuristic before any Gram matrix is built.
    """

    kind: str = "linear"
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "gaussian"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "gaussian" and self.bandwidth is not None:
            if not self.bandwidth > 0:  # NaN fails it too
                raise ValueError("gaussian bandwidth must be > 0")
            if self.bandwidth == np.inf:  # a constant kernel
                raise ValueError("gaussian bandwidth must be finite")
            if not 0 < 2.0 * self.bandwidth * self.bandwidth < np.inf:  # gram_matrix's divisor
                raise ValueError("gaussian bandwidth must keep 2 * bandwidth**2 positive and finite")

    def resolved(self, *mats: FeatureMatrix) -> "KernelSpec":
        """Return a spec with a concrete bandwidth (median heuristic if unset)."""
        if self.kind != "gaussian" or self.bandwidth is not None:
            return self
        pooled = np.concatenate([m.data for m in mats], axis=1)
        sigma = median_pairwise_distance(pooled)
        if sigma <= 0:
            sigma = 1.0
        if not math.isfinite(2.0 * sigma * sigma):  # NaN where _sq_dists meets inf - inf
            raise NonFiniteError(f"the median heuristic gave gaussian bandwidth {sigma:g}, "
                                 "whose 2 * bandwidth**2 is not finite")
        return KernelSpec("gaussian", sigma)


def median_pairwise_distance(pooled: np.ndarray) -> float:
    """Median Euclidean distance over all distinct column pairs."""
    d2 = _sq_dists(pooled, pooled)
    iu = np.triu_indices(pooled.shape[1], k=1)
    if iu[0].size == 0:
        return 0.0
    return float(np.median(np.sqrt(np.maximum(d2[iu], 0.0))))


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # columns are samples; ||x-y||^2 = ||x||^2 + ||y||^2 - 2 x.y
    aa = np.sum(a * a, axis=0)[:, None]
    bb = np.sum(b * b, axis=0)[None, :]
    return np.maximum(aa + bb - 2.0 * (a.T @ b), 0.0)


def gram_matrix(a: FeatureMatrix, b: FeatureMatrix, spec: KernelSpec) -> np.ndarray:
    """Gram matrix of shape a.n x b.n with entries k(a_i, b_j)."""
    if a.d != b.d:
        raise DimensionError(f"feature dimensions differ: {a.d} vs {b.d}")
    if spec.kind == "linear":
        return a.data.T @ b.data
    sigma = spec.bandwidth
    if sigma is None:
        raise ValueError("gaussian bandwidth unresolved; call spec.resolved(...) first")
    return np.exp(-_sq_dists(a.data, b.data) / (2.0 * sigma * sigma))


@dataclass(frozen=True)
class AugmentedKernels:
    """Stacked Gram blocks over the pooled [source; target] anchors.

    k_s stacks K_ss on K_ts, k_t stacks K_st on K_tt; delta_k is the
    difference of the block row-means, (1/n_s) k_s 1 - (1/n_t) k_t 1.
    """

    k_s: np.ndarray
    k_t: np.ndarray
    delta_k: np.ndarray = field(init=False)
    n_s: int = field(init=False)
    n_t: int = field(init=False)

    def __post_init__(self):
        n_s = self.k_s.shape[1]
        n_t = self.k_t.shape[1]
        if self.k_s.shape[0] != n_s + n_t or self.k_t.shape[0] != n_s + n_t:
            raise DimensionError(
                f"augmented blocks must have {n_s + n_t} rows, "
                f"got {self.k_s.shape[0]} and {self.k_t.shape[0]}"
            )
        delta = self.k_s.mean(axis=1) - self.k_t.mean(axis=1)
        object.__setattr__(self, "delta_k", delta)
        object.__setattr__(self, "n_s", n_s)
        object.__setattr__(self, "n_t", n_t)


def build_augmented(x_s: FeatureMatrix, x_t: FeatureMatrix, spec: KernelSpec) -> AugmentedKernels:
    """Assemble the augmented kernel blocks for a source/target pair.

    The pooled Gram is computed once and sliced, so the cross blocks are
    exact transposes of each other.
    """
    if x_s.d != x_t.d:
        raise DimensionError(f"source/target dimensions differ: {x_s.d} vs {x_t.d}")
    spec = spec.resolved(x_s, x_t)
    pooled = FeatureMatrix(np.concatenate([x_s.data, x_t.data], axis=1))
    full = gram_matrix(pooled, pooled, spec)
    full = 0.5 * (full + full.T)  # enforce exact symmetry against fp noise
    return AugmentedKernels(k_s=full[:, : x_s.n], k_t=full[:, x_s.n :])


def mmd_squared(x_s: FeatureMatrix, x_t: FeatureMatrix, spec: KernelSpec) -> float:
    """Biased squared MMD: the squared distance between the kernel mean maps.

    The linear kernel's mean maps are the sample means, so their difference
    is taken directly.  For other kernels each Gram block is summed exactly
    (``math.fsum``), so a block mean does not depend on the order in which
    its entries are added, and equal mean maps cancel to 0 rather than to
    rounding noise that the square root in ``mmd`` would amplify.  Distinct
    sets may still give a tiny negative.
    """
    if x_s.d != x_t.d:
        raise DimensionError(f"source/target dimensions differ: {x_s.d} vs {x_t.d}")
    if spec.kind == "linear":
        delta = x_s.data.mean(axis=1) - x_t.data.mean(axis=1)
        return float(delta @ delta)
    spec = spec.resolved(x_s, x_t)

    def block_mean(a: FeatureMatrix, b: FeatureMatrix) -> float:
        return math.fsum(gram_matrix(a, b, spec).ravel().tolist()) / (a.n * b.n)

    return block_mean(x_s, x_s) + block_mean(x_t, x_t) - 2.0 * block_mean(x_s, x_t)


def mmd(x_s: FeatureMatrix, x_t: FeatureMatrix, spec: KernelSpec) -> float:
    """Empirical MMD: distance between the kernel mean maps of the two sets."""
    sq = mmd_squared(x_s, x_t, spec)
    if not math.isfinite(sq):
        raise NonFiniteError(f"squared MMD is {sq}")
    return math.sqrt(max(0.0, sq))
