"""Uniform LBP-TOP descriptor with multiscale spatial block division.

A clip volume V[t, y, x] is described by local binary patterns on the XY,
XT and YT planes.  Neighbors are sampled on a circle (bilinear
interpolation), bits are set where neighbor >= center, and codes are
mapped to uniform-pattern bins (59 bins at 8 points).  The clip is cut
into g x g spatial blocks for each configured grid; one normalized
histogram per block and plane is concatenated into the feature vector.

Only centers whose full circular neighborhood (in the plane's two axes)
lies inside the block contribute; there is no padding.
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
    r, p = params.radius, params.points
    angles = 2.0 * np.pi * np.arange(p) / p
    offsets = []
    for a in angles:
        du, dv = -r * float(np.sin(a)), r * float(np.cos(a))
        # snap the near-integer coordinates produced by sin/cos roundoff
        du = round(du) if abs(du - round(du)) < 1e-9 else du
        dv = round(dv) if abs(dv - round(dv)) < 1e-9 else dv
        offsets.append((du, dv))
    return offsets


def _bilinear_terms(du: float, dv: float) -> list[tuple[int, int, float]]:
    """Integer shifts and weights for bilinear sampling at offset (du, dv).

    Zero-weight corners are dropped so integer offsets reduce to a single
    exact lookup.
    """
    fu, fv = int(np.floor(du)), int(np.floor(dv))
    au, av = du - fu, dv - fv
    terms = []
    for su, sv, wgt in ((fu, fv, (1 - au) * (1 - av)),
                        (fu, fv + 1, (1 - au) * av),
                        (fu + 1, fv, au * (1 - av)),
                        (fu + 1, fv + 1, au * av)):
        if wgt > 0.0:
            terms.append((su, sv, wgt))
    return terms


def _shifted(vol: np.ndarray, axis_u: int, axis_v: int, su: int, sv: int,
             r: int) -> np.ndarray:
    """Slice `vol` to the valid-center region, displaced by (su, sv) along
    the two plane axes."""
    idx = [slice(None)] * 3
    for axis, s in ((axis_u, su), (axis_v, sv)):
        n = vol.shape[axis]
        idx[axis] = slice(r + s, n - r + s)
    return vol[tuple(idx)]


def _plane_codes(vol: np.ndarray, axis_u: int, axis_v: int,
                 params: LbpTopParams) -> np.ndarray:
    """Raw LBP codes for every center with full margin along the plane axes.

    Returned array has the full extent along the third axis and extent
    reduced by 2*radius along axis_u and axis_v.
    """
    r = params.radius
    center = _shifted(vol, axis_u, axis_v, 0, 0, r)
    codes = np.zeros(center.shape, dtype=np.int64)
    for p, (du, dv) in enumerate(_neighbor_offsets(params)):
        diff = np.zeros(center.shape)
        for su, sv, wgt in _bilinear_terms(du, dv):
            diff += wgt * (_shifted(vol, axis_u, axis_v, su, sv, r) - center)
        codes |= (diff >= 0.0).astype(np.int64) << p
    return codes


def _block_bounds(n: int, g: int) -> list[tuple[int, int]]:
    edges = [round(i * n / g) for i in range(g + 1)]
    return [(edges[i], edges[i + 1]) for i in range(g)]


# plane axis pairs in V[t, y, x]: (u axis, v axis)
_PLANES = (
    ("XY", 1, 2),
    ("XT", 0, 2),
    ("YT", 0, 1),
)


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
        if any(hi - lo < side for lo, hi in _block_bounds(h, g)) or \
           any(hi - lo < side for lo, hi in _block_bounds(w, g)):
            raise ClipTooSmall(
                f"grid {g}x{g} produces blocks smaller than {side} pixels "
                f"for a {h}x{w} frame"
            )

    lut = uniform_lut(params.points)
    nbins = params.num_bins
    plane_codes = {name: lut[_plane_codes(clip.frames, au, av, params)]
                   for name, au, av in _PLANES}

    pieces = []
    for g in params.grids:
        for r0, r1 in _block_bounds(h, g):
            for c0, c1 in _block_bounds(w, g):
                for name, axis_u, axis_v in _PLANES:
                    codes = plane_codes[name]
                    # map the block window into the margin-trimmed code array
                    sl = [slice(None)] * 3
                    for axis, (lo, hi) in ((1, (r0, r1)), (2, (c0, c1))):
                        if axis in (axis_u, axis_v):
                            sl[axis] = slice(lo, hi - 2 * r)
                        else:
                            sl[axis] = slice(lo, hi)
                    block = codes[tuple(sl)]
                    hist = np.bincount(block.ravel(), minlength=nbins).astype(np.float64)
                    if normalize:
                        hist /= hist.sum()
                    pieces.append(hist)
    return np.concatenate(pieces)
