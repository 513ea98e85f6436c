"""Reference computations the package itself never runs, kept for the tests:
quantities, a step-by-step IALM loop, a primal-space SVM solver, a writer
for packed raw clips and LBP-TOP on strided 3-D views."""
import json
from pathlib import Path

import numpy as np

from tsrg.errors import DimensionError, NonFiniteError
from tsrg import solver
from tsrg.kernels import AugmentedKernels, FeatureMatrix, KernelSpec, build_augmented
from tsrg.lbptop import (_PLANES, LbpTopParams, VideoClip, _bilinear_terms, _block_bounds,
                         _neighbor_offsets, uniform_lut)
from tsrg.solver import (SolverConfig, TsrgModel, _q_system, _solve_spd, objective_terms,
                         update_multiplier, update_p)


def objective(p: np.ndarray, x_s: FeatureMatrix, ak: AugmentedKernels,
              lam: float, mu: float) -> float:
    """Full training objective at P: reconstruction + lam*mean-gap + mu*|P|_1."""
    recon, gap, l1 = objective_terms(p, x_s, ak)
    return recon + lam * gap + mu * l1


def fg_residual(model: TsrgModel, ak: AugmentedKernels) -> float:
    """Squared distance between the regenerated source and target means."""
    if model.p.shape[0] != len(ak.delta_k):
        raise DimensionError("model and augmented kernels disagree on anchor count")
    g = model.p.T @ ak.delta_k
    return float(np.dot(g, g))


def kernel_eval(x: np.ndarray, y: np.ndarray, spec: KernelSpec) -> float:
    """Evaluate the kernel on a single pair of vectors."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise DimensionError(f"kernel arguments differ in dimension: {x.shape} vs {y.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise NonFiniteError("kernel arguments contain NaN/Inf")
    if spec.kind == "linear":
        return float(np.dot(x, y))
    sigma = spec.bandwidth
    if sigma is None:
        raise ValueError("gaussian bandwidth unresolved; call spec.resolved(...) first")
    diff = x - y
    return float(np.exp(-np.dot(diff, diff) / (2.0 * sigma * sigma)))


def full_gram(ak: AugmentedKernels) -> np.ndarray:
    """The (n_s+n_t) x (n_s+n_t) pooled Gram re-assembled from the blocks."""
    return np.hstack([ak.k_s, ak.k_t])


def update_q(p: np.ndarray, t: np.ndarray, kappa: float, x_s: FeatureMatrix,
             ak: AugmentedKernels, lam: float) -> np.ndarray:
    """Closed-form ridge solve for Q with P, T, kappa held fixed.

    Minimizes |X_s - Q^T K_s|_F^2 + lam |Q^T dk|^2 + tr[T^T(P-Q)]
    + kappa/2 |P-Q|_F^2, i.e.
    Q = (K_s K_s^T + lam dk dk^T + kappa/2 I)^-1 (K_s X_s^T + (kappa P + T)/2),
    through the same eigendecomposition and solve as ``fit``.
    """
    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    eig, rhs_base = _q_system(x_s, ak, lam)
    return _solve_spd(eig, kappa, rhs_base + (kappa * p + t) / 2.0)


def ialm_reference(x_s: FeatureMatrix, x_t: FeatureMatrix, spec: KernelSpec,
                   config: SolverConfig) -> tuple[np.ndarray, list[float], list[float]]:
    """The IALM loop spelled out from update_q, update_p and update_multiplier,
    from P = Q = T = 0 on the solver's schedule as it stands when called; returns
    the final P and, per iteration, max|P - Q| and the updated kappa."""
    spec = spec.resolved(x_s, x_t)
    ak = build_augmented(x_s, x_t, spec)
    shape = (len(ak.delta_k), x_s.d)
    p, t = np.zeros(shape), np.zeros(shape)
    kappa = solver._KAPPA0
    feasibility, kappas = [], []
    for _ in range(solver._MAX_ITERS):
        q = update_q(p, t, kappa, x_s, ak, config.lam)
        p = update_p(q, t, kappa, config.mu)
        feasibility.append(float(np.max(np.abs(p - q))))
        t, kappa = update_multiplier(p, q, t, kappa, solver._RHO, solver._KAPPA_MAX)
        kappas.append(kappa)
        if feasibility[-1] < solver._EPSILON:
            break
    return p, feasibility, kappas


def write_clip(path: str | Path, volume: np.ndarray) -> None:
    """Write a packed raw clip readable by the ingestion path: a JSON header
    line with t, h and w, then the voxels as little-endian float64."""
    volume = np.asarray(volume, dtype="<f8")
    t, h, w = volume.shape
    with open(path, "wb") as fh:
        fh.write((json.dumps({"t": t, "h": h, "w": w}) + "\n").encode())
        volume.tofile(fh)


def lbp_code(plane_patch: np.ndarray, params: LbpTopParams) -> int:
    """Uniform LBP bin for the center pixel of a single 2-D patch.

    The center is the geometric middle of the patch and must be at least
    `radius` away from every border.
    """
    patch = np.asarray(plane_patch, dtype=np.float64)
    cu, cv = patch.shape[0] // 2, patch.shape[1] // 2
    r = params.radius
    if min(cu, cv, patch.shape[0] - 1 - cu, patch.shape[1] - 1 - cv) < r:
        raise DimensionError("patch too small for the configured radius")
    center = patch[cu, cv]
    code = 0
    for p, (du, dv) in enumerate(_neighbor_offsets(params)):
        # interpolate the difference from the center so that adding a
        # constant to all pixels can never flip a bit
        diff = 0.0
        for su, sv, wgt in _bilinear_terms(du, dv):
            diff += wgt * (patch[cu + su, cv + sv] - center)
        if diff >= 0.0:
            code |= 1 << p
    return int(uniform_lut(params.points)[code])


def _shifted(vol: np.ndarray, axis_u: int, axis_v: int, su: int, sv: int,
             r: int) -> np.ndarray:
    """Slice `vol` to the valid-center region, displaced by (su, sv) along
    the two plane axes."""
    idx = [slice(None)] * 3
    for axis, s in ((axis_u, su), (axis_v, sv)):
        n = vol.shape[axis]
        idx[axis] = slice(r + s, n - r + s)
    return vol[tuple(idx)]


def plane_codes_reference(vol: np.ndarray, axis_u: int, axis_v: int,
                          params: LbpTopParams) -> np.ndarray:
    """Raw LBP codes of one plane from strided 3-D views of the volume, each
    bit from ``0.0 + sum of weight * (neighbor - center)`` over the bilinear
    terms; same shape as ``lbptop._plane_codes``."""
    r = params.radius
    center = _shifted(vol, axis_u, axis_v, 0, 0, r)
    codes = np.zeros(center.shape, dtype=np.int64)
    for p, (du, dv) in enumerate(_neighbor_offsets(params)):
        diff = np.zeros(center.shape)
        for su, sv, wgt in _bilinear_terms(du, dv):
            diff += wgt * (_shifted(vol, axis_u, axis_v, su, sv, r) - center)
        codes |= (diff >= 0.0).astype(np.int64) << p
    return codes


def extract_reference(clip: VideoClip, params: LbpTopParams,
                      normalize: bool = True) -> np.ndarray:
    """``lbptop.extract`` on ``plane_codes_reference``, one histogram at a
    time, for clips ``extract`` accepts."""
    _, h, w = clip.shape
    r = params.radius
    lut = uniform_lut(params.points)
    codes = {name: lut[plane_codes_reference(clip.frames, au, av, params)]
             for name, au, av in _PLANES}
    pieces = []
    for g in params.grids:
        for r0, r1 in _block_bounds(h, g):
            for c0, c1 in _block_bounds(w, g):
                for name, axis_u, axis_v in _PLANES:
                    sl = [slice(None)] * 3
                    for axis, (lo, hi) in ((1, (r0, r1)), (2, (c0, c1))):
                        if axis in (axis_u, axis_v):
                            sl[axis] = slice(lo, hi - 2 * r)
                        else:
                            sl[axis] = slice(lo, hi)
                    hist = np.bincount(codes[name][tuple(sl)].ravel(),
                                       minlength=params.num_bins).astype(np.float64)
                    if normalize:
                        hist /= hist.sum()
                    pieces.append(hist)
    return np.concatenate(pieces)


def dual_cd_reference(x_aug: np.ndarray, y: np.ndarray, c: float,
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
