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
    """Kernel choice: 'linear', or 'gaussian' with an optional bandwidth sigma > 0.

    A gaussian spec with bandwidth=None is resolved against data with the
    median heuristic before any Gram matrix is built.
    """

    kind: str = "linear"
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "gaussian"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.bandwidth is not None:
            if self.kind != "gaussian":
                raise ValueError("bandwidth applies to the gaussian kernel only")
            if not self.bandwidth > 0:  # NaN fails it too
                raise ValueError("gaussian bandwidth must be > 0")
            if self.bandwidth == np.inf:  # a constant kernel
                raise ValueError("gaussian bandwidth must be finite")
            if not 0 < 2.0 * self.bandwidth * self.bandwidth < np.inf:  # gram_matrix's divisor
                raise ValueError("gaussian bandwidth must keep 2 * bandwidth**2 positive and finite")

    def resolved(self, x_s: FeatureMatrix, x_t: FeatureMatrix) -> "KernelSpec":
        """Return a spec with a concrete bandwidth: if unset, the median heuristic
        over the pooled columns of x_s and x_t."""
        if self.kind != "gaussian" or self.bandwidth is not None:
            return self
        pooled = np.concatenate([x_s.data, x_t.data], axis=1)
        # the median Euclidean distance over all distinct column pairs; 1.0 if it is 0
        # or there is no pair
        iu = np.triu_indices(pooled.shape[1], k=1)
        sigma = float(np.median(np.sqrt(_sq_dists(pooled, pooled)[iu]))) if iu[0].size else 1.0
        if sigma <= 0:
            sigma = 1.0
        if not math.isfinite(2.0 * sigma * sigma):  # NaN where _sq_dists meets inf - inf
            raise NonFiniteError(f"the median heuristic gave gaussian bandwidth {sigma:g}, "
                                 "whose 2 * bandwidth**2 is not finite")
        return KernelSpec("gaussian", sigma)


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

    def __post_init__(self):
        rows = self.k_s.shape[1] + self.k_t.shape[1]  # n_s + n_t anchors
        if self.k_s.shape[0] != rows or self.k_t.shape[0] != rows:
            raise DimensionError(f"augmented blocks must have {rows} rows, "
                                 f"got {self.k_s.shape[0]} and {self.k_t.shape[0]}")
        object.__setattr__(self, "delta_k", self.k_s.mean(axis=1) - self.k_t.mean(axis=1))


def build_augmented(x_s: FeatureMatrix, x_t: FeatureMatrix, spec: KernelSpec) -> AugmentedKernels:
    """The augmented kernel blocks of a pair under a resolved ``spec``.  The pooled Gram
    multiplies one array by its own transpose, which numpy returns exactly symmetric,
    so the cross blocks it is sliced into are exact transposes (a test pins this)."""
    if x_s.d != x_t.d:
        raise DimensionError(f"source/target dimensions differ: {x_s.d} vs {x_t.d}")
    pooled = FeatureMatrix(np.concatenate([x_s.data, x_t.data], axis=1))
    full = gram_matrix(pooled, pooled, spec)
    return AugmentedKernels(k_s=full[:, : x_s.n], k_t=full[:, x_s.n :])


def mmd(x_s: FeatureMatrix, x_t: FeatureMatrix, spec: KernelSpec) -> float:
    """Biased empirical MMD: the distance between the kernel mean maps.

    The linear kernel's mean maps are the sample means, so their gap is taken
    directly; when its squared norm overflows, the gap is divided by its
    largest magnitude first, so a distance that does not itself overflow is
    still returned.  For other kernels each Gram block is summed exactly
    (``math.fsum``), so a block mean does not depend on the order in which
    its entries are added, and equal mean maps cancel to 0 rather than to
    rounding noise that the square root would amplify.  Distinct sets may
    still give a tiny negative square, which is taken as 0.
    """
    if x_s.d != x_t.d:
        raise DimensionError(f"source/target dimensions differ: {x_s.d} vs {x_t.d}")
    if spec.kind == "linear":
        delta = x_s.data.mean(axis=1) - x_t.data.mean(axis=1)
        with np.errstate(over="ignore"):  # an overflow is rescaled below
            sq = float(delta @ delta)
        if sq == math.inf:
            scale = float(np.max(np.abs(delta)))
            unit = delta / scale
            dist = scale * math.sqrt(float(unit @ unit))
            if math.isfinite(dist):
                return dist
    else:
        spec = spec.resolved(x_s, x_t)

        def block_mean(a: FeatureMatrix, b: FeatureMatrix) -> float:
            return math.fsum(gram_matrix(a, b, spec).ravel().tolist()) / (a.n * b.n)

        sq = block_mean(x_s, x_s) + block_mean(x_t, x_t) - 2.0 * block_mean(x_s, x_t)
    if not math.isfinite(sq):
        raise NonFiniteError(f"squared MMD is {sq}")
    return math.sqrt(max(0.0, sq))
