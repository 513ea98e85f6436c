"""Uniform LBP-TOP descriptor with multiscale spatial block division.

A clip volume V[t, y, x] is described by local binary patterns on the XY,
XT and YT planes.  Neighbors are sampled on a circle (bilinear
interpolation), bits are set where neighbor >= center, and codes are
mapped to uniform-pattern bins (59 bins at 8 points).  The clip is cut
into g x g spatial blocks for each configured grid; one normalized
histogram per block and plane is concatenated into the feature vector.

Only centers whose full circular neighborhood (in the plane's two axes)
lies inside the block contribute; there is no padding.

Each plane's codes come from one pass over contiguous 1-D spans of the
flattened volume.  A neighbor shift (su, sv) on a plane is the flat offset
su * stride_u + sv * stride_v, so every operand is ``flat[lo+off:hi+off]``,
where [lo, hi) runs from the plane's first valid center to its last.  The
positions in between that are not valid centers are computed too and cut
away afterwards.  A bit is set where the bilinear difference
w1 (s1 - c) + w2 (s2 - c) + ... >= 0, its terms added in that order.  Two
shortcuts keep every bit of that rule:

* the sum starts from its first term, not from 0.0: adding 0.0 can change
  only the sign of a zero result, and ``>= 0`` treats -0.0 like 0.0;
* a neighbor at an integer offset has one term of weight 1.0 and is
  compared as ``s >= c``: for finite pixels s - c rounds to 0 only when
  s == c and otherwise keeps the sign of the exact difference.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ClipTooSmall, DimensionError, NonFiniteError


@dataclass(frozen=True)
class LbpTopParams:
    radius: int = 3
    points: int = 8
    grids: tuple[int, ...] = (1, 2, 4, 8)

    def __post_init__(self):
        if self.radius < 1 or self.points < 1:
            raise ValueError("radius and points must be positive")
        if self.points > 16:  # codes fit uint16 and uniform_lut has 2**points entries
            raise ValueError("points must be at most 16")
        if not self.grids or any(g < 1 for g in self.grids):
            raise ValueError("grids must be a non-empty list of positive divisions")
        object.__setattr__(self, "grids", tuple(self.grids))

    @property
    def num_bins(self) -> int:
        # P(P-1) + 2 uniform patterns plus one catch-all bin
        return self.points * (self.points - 1) + 3

    @property
    def feature_length(self) -> int:
        return sum(g * g for g in self.grids) * 3 * self.num_bins


@dataclass(frozen=True)
class VideoClip:
    """T x H x W grayscale volume; 8-bit input is converted to float."""

    frames: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.frames, dtype=np.float64)
        if arr.ndim != 3:
            raise DimensionError(f"clip must be T x H x W, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("clip contains non-finite pixels")
        object.__setattr__(self, "frames", arr)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.frames.shape


def circular_transitions(code: int, points: int) -> int:
    """Number of 0/1 transitions in the circular bit string of `code`."""
    bits = [(code >> p) & 1 for p in range(points)]
    return sum(bits[p] != bits[(p + 1) % points] for p in range(points))


@lru_cache(maxsize=None)
def uniform_lut(points: int) -> np.ndarray:
    """Map raw codes to bins: uniform patterns (<=2 transitions) get their
    own bin in ascending code order, everything else shares the last bin."""
    codes = np.arange(2 ** points)
    uniform = np.array([circular_transitions(int(c), points) <= 2 for c in codes])
    lut = np.full(codes.shape, int(uniform.sum()), dtype=np.int64)
    lut[uniform] = np.arange(int(uniform.sum()))
    return lut


def _neighbor_offsets(params: LbpTopParams) -> list[tuple[float, float]]:
    def snap(x: float) -> float:  # the near-integer coordinates of sin/cos roundoff
        return round(x) if abs(x - round(x)) < 1e-9 else x

    r, p = params.radius, params.points
    return [(snap(-r * float(np.sin(a))), snap(r * float(np.cos(a))))
            for a in 2.0 * np.pi * np.arange(p) / p]


def _bilinear_terms(du: float, dv: float) -> list[tuple[int, int, float]]:
    """Integer shifts and weights for bilinear sampling at offset (du, dv).

    Zero-weight corners are dropped so integer offsets reduce to a single
    exact lookup.
    """
    fu, fv = int(np.floor(du)), int(np.floor(dv))
    au, av = du - fu, dv - fv
    return [(su, sv, wgt) for su, sv, wgt in ((fu, fv, (1 - au) * (1 - av)),
                                              (fu, fv + 1, (1 - au) * av),
                                              (fu + 1, fv, au * (1 - av)),
                                              (fu + 1, fv + 1, au * av)) if wgt > 0.0]


@lru_cache(maxsize=128)
def _span_plan(shape: tuple[int, int, int], axis_u: int, axis_v: int,
               params: LbpTopParams):
    """Flat layout of one plane's code pass over a C-ordered volume.

    Returns ``(lo, hi, neighbors, valid)``: ``[lo, hi)`` runs from the
    plane's first valid center to its last in the flattened volume, each
    neighbor is a tuple of ``(flat offset, weight)`` bilinear terms, and
    ``valid`` cuts the valid centers out of a volume-shaped array.
    """
    r = params.radius
    strides = (shape[1] * shape[2], shape[2], 1)
    last = [n - 1 for n in shape]
    last[axis_u] -= r
    last[axis_v] -= r
    lo = r * (strides[axis_u] + strides[axis_v])
    hi = sum(i * s for i, s in zip(last, strides)) + 1
    neighbors = tuple(
        tuple((su * strides[axis_u] + sv * strides[axis_v], wgt)
              for su, sv, wgt in _bilinear_terms(du, dv))
        for du, dv in _neighbor_offsets(params))
    valid = tuple(slice(r, n - r) if axis in (axis_u, axis_v) else slice(None)
                  for axis, n in enumerate(shape))
    return lo, hi, neighbors, valid


def _plane_codes(vol: np.ndarray, axis_u: int, axis_v: int,
                 params: LbpTopParams) -> np.ndarray:
    """Raw LBP codes for every center with full margin along the plane axes.

    Returned array has the full extent along the third axis and extent
    reduced by 2*radius along axis_u and axis_v.
    """
    lo, hi, neighbors, valid = _span_plan(vol.shape, axis_u, axis_v, params)
    flat = vol.ravel()
    center = flat[lo:hi]
    codes = np.zeros(vol.shape, dtype=np.min_scalar_type(2 ** params.points - 1))
    span = codes.reshape(-1)[lo:hi]
    acc, term = np.empty(hi - lo), np.empty(hi - lo)
    bits, shifted = np.empty(hi - lo, dtype=bool), np.empty_like(span)
    for p, terms in enumerate(neighbors):
        if len(terms) == 1:  # an integer offset: one term, of weight 1.0
            off = terms[0][0]
            np.greater_equal(flat[lo + off:hi + off], center, out=bits)
        else:
            (off, wgt), *rest = terms
            np.subtract(flat[lo + off:hi + off], center, out=acc)
            acc *= wgt
            for off, wgt in rest:
                np.subtract(flat[lo + off:hi + off], center, out=term)
                term *= wgt
                acc += term
            np.greater_equal(acc, 0.0, out=bits)
        np.left_shift(bits, p, out=shifted, dtype=span.dtype)
        span |= shifted
    return codes[valid]


def _block_bounds(n: int, g: int) -> list[tuple[int, int]]:
    edges = [round(i * n / g) for i in range(g + 1)]
    return [(edges[i], edges[i + 1]) for i in range(g)]


# plane axis pairs in V[t, y, x]: (u axis, v axis)
_PLANES = (
    ("XY", 1, 2),
    ("XT", 0, 2),
    ("YT", 0, 1),
)


@lru_cache(maxsize=128)
def _block_windows(h: int, w: int, params: LbpTopParams):
    """(plane index, window into that plane's margin-trimmed codes) for each
    histogram of the feature vector, in feature order."""
    r = params.radius
    windows = []
    for g in params.grids:
        for r0, r1 in _block_bounds(h, g):
            for c0, c1 in _block_bounds(w, g):
                for plane, (_, axis_u, axis_v) in enumerate(_PLANES):
                    window = [slice(None)] * 3
                    for axis, (lo, hi) in ((1, (r0, r1)), (2, (c0, c1))):
                        trim = 2 * r if axis in (axis_u, axis_v) else 0
                        window[axis] = slice(lo, hi - trim)
                    windows.append((plane, tuple(window)))
    return tuple(windows)


def extract(clip: VideoClip, params: LbpTopParams = LbpTopParams(),
            normalize: bool = True) -> np.ndarray:
    """Concatenated per-block, per-plane LBP histograms for a clip.

    With `normalize` each histogram sums to 1; otherwise raw counts are
    returned (one count per valid center of the block-plane).
    """
    t, h, w = clip.shape
    r = params.radius
    side = 2 * r + 1
    if min(t, h, w) < side:
        raise ClipTooSmall(
            f"clip {t}x{h}x{w} smaller than {side} along some axis for radius {r}"
        )
    for g in params.grids:
        # some block of _block_bounds(n, g) is narrower than side exactly when g * side > n
        if g * side > min(h, w):
            raise ClipTooSmall(
                f"grid {g}x{g} produces blocks smaller than {side} pixels "
                f"for a {h}x{w} frame"
            )

    lut = uniform_lut(params.points)
    codes = [lut[_plane_codes(clip.frames, au, av, params)] for _, au, av in _PLANES]
    windows = _block_windows(h, w, params)
    hists = np.empty((len(windows), params.num_bins))
    for hist, (plane, window) in zip(hists, windows):
        hist[:] = np.bincount(codes[plane][window].ravel(), minlength=params.num_bins)
    if normalize:
        # the counts are exact integers, so each row sum is exact too
        hists /= hists.sum(axis=1, keepdims=True)
    return hists.ravel()
