"""Target sample re-generator: model, IALM solver and application.

The re-generator is a kernel map G(x) = P^T k(anchors, x) trained so that
source samples reproduce themselves while the regenerated target mean is
pulled onto the regenerated source mean.  P is learned by an inexact
augmented Lagrange multiplier loop with an auxiliary variable Q tied to P,
alternating a ridge-type linear solve for Q, elementwise soft-thresholding
for P and a running multiplier update.
The Q-step matrix M has no kappa in it, so a fit eigendecomposes M once and
each Q-step is V diag(1/(w + kappa/2)) V^T R; with w clipped at 0, kappa > 0
keeps every shifted eigenvalue positive.  ``_solve_spd`` takes the product in
the order that costs fewer flops for R's shape; kappa changes every iteration,
so only (w, V) is reused across Q-steps.
After each Q-step, fit makes one fused sweep over row blocks of its n x d
buffers: the soft-threshold for P, max|P - Q|, the multiplier step on T and
the next Q-step right-hand side, all in place.  The Q-step has read the right-
hand side R by then, so each block writes P into R's rows, and the next R into
the rows of Q it has just used; the loop then swaps the names, so the buffer
that held R holds P.  The loop owns four n x d arrays (the kappa-free right-
hand side, T, R and the new Q) and one block of scratch.  The sweep is bound
by memory traffic, not arithmetic: each iteration streams those four arrays
once, reading the kappa-free part and writing P, T and the next R in place,
where a separate P and an n x d scratch would add two more arrays written in
full.  A block holds _BLOCK elements of each array, so the five arrays a block
touches (2^15 float64 each, 1.25 MB in all) stay in a 2 MB per-core L2 cache.
Every operation is elementwise, so the block size changes no value, and which
buffer holds P changes none either.  P and the records equal, bit for bit, the
step-by-step loop built from shrink, update_p and update_multiplier.
The schedule is fixed, not configured.  At mu = 0 the objective is plain least
squares, and fit returns its minimum-norm minimizer without the loop.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .errors import DimensionError, NonFiniteError, NumericalError
from .kernels import AugmentedKernels, FeatureMatrix, KernelSpec, build_augmented, gram_matrix

# elements of each n x d array per block of fit's sweep; a block touches
# five arrays (Q, R, T, the kappa-free right-hand side, the scratch), 1.25 MB in L2
_BLOCK = 1 << 15
# the IALM schedule, read when _ialm is called: kappa = min(kappa0 rho^k, kappa_max),
# stop once max|P - Q| < epsilon or after max_iters iterations
_KAPPA0, _RHO, _KAPPA_MAX, _EPSILON, _MAX_ITERS = 0.1, 1.1, 1e7, 1e-7, 500


@dataclass(frozen=True)
class SolverConfig:
    """The penalties of |X_s - P^T K_s|^2 + lam |P^T dk|^2 + mu |P|_1."""

    lam: float = 1.0          # MMD trade-off
    mu: float = 1e-3          # L1 sparsity trade-off

    def __post_init__(self):
        # written so that NaN fails; an infinite penalty makes the first iterate NaN
        if not (self.lam >= 0 and self.mu >= 0):
            raise ValueError("lam and mu must be nonnegative")
        for name in ("lam", "mu"):
            if getattr(self, name) == np.inf:
                raise ValueError(f"{name} must be finite")


@dataclass
class IterationRecord:
    feasibility: float  # max|P - Q|
    kappa: float


@dataclass
class SolverTrace:
    """``converged``: max|P - Q| < 1e-7 within 500 iterations of the fixed kappa
    schedule, or mu = 0 solved exactly.  It does not certify a minimum of the objective."""

    records: list[IterationRecord] = field(default_factory=list)
    converged: bool = False
    iters_run: int = 0


@dataclass(frozen=True)
class TsrgModel:
    """The learned re-generator: P and the x_s and x_t it was fit on, referenced, not copied."""

    p: np.ndarray
    x_s: FeatureMatrix
    x_t: FeatureMatrix
    kernel: KernelSpec
    config: SolverConfig

    def __post_init__(self):
        if self.x_s.d != self.x_t.d:
            raise DimensionError(f"x_s and x_t dimensions differ: {self.x_s.d} vs {self.x_t.d}")
        shape = (self.x_s.n + self.x_t.n, self.x_s.d)  # a row per anchor, a column per dimension
        if self.p.shape != shape:
            raise DimensionError(f"P has shape {self.p.shape}, not {shape}")
        if self.kernel.kind == "gaussian" and self.kernel.bandwidth is None:  # fit resolves it
            raise ValueError("a model's gaussian kernel must carry its bandwidth")

    @property
    def anchors(self) -> FeatureMatrix:
        """The pooled anchors [X_s, X_t], stacked anew on each read."""
        return FeatureMatrix(np.concatenate([self.x_s.data, self.x_t.data], axis=1))


def objective_terms(p: np.ndarray, x_s: FeatureMatrix,
                    ak: AugmentedKernels) -> tuple[float, float, float]:
    if p.shape != (len(ak.delta_k), x_s.d):
        raise DimensionError(f"P must be {(len(ak.delta_k), x_s.d)}, got {p.shape}")
    if x_s.n != ak.k_s.shape[1]:
        raise DimensionError("augmented kernels inconsistent with source matrix")
    resid = x_s.data - p.T @ ak.k_s
    recon = float(np.sum(resid * resid))
    g = p.T @ ak.delta_k
    gap = float(np.dot(g, g))
    l1 = float(np.abs(p).sum())
    return recon, gap, l1


def _q_system(x_s: FeatureMatrix, ak: AugmentedKernels, lam: float):
    """Eigendecomposition (w, V) of M = K_s K_s^T + lam dk dk^T, w clipped at 0,
    and K_s X_s^T, the kappa-free part of the Q-step right-hand side."""
    with np.errstate(over="ignore"):
        m = ak.k_s @ ak.k_s.T + lam * np.outer(ak.delta_k, ak.delta_k)
    if not np.isfinite(m).all():
        raise NonFiniteError(f"Q-step system K_s K_s^T + lam dk dk^T overflows at lam = {lam:g}")
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"eigendecomposition of the Q-step system failed: {err}") from err
    return (np.maximum(w, 0.0), v), ak.k_s @ x_s.data.T


def _solve_spd(eig, kappa: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (M + kappa/2 I) x = rhs, where eig = (w, V) and M = V diag(w) V^T.

    With n = len(w) and d = rhs.shape[1]: for d <= n, V((V^T rhs)/(w + kappa/2))
    costs 2n^2 d flops; for d > n, forming S = (V/(w + kappa/2)) V^T once and
    returning S rhs costs n^3 + n^2 d, which is less.
    """
    w, v = eig
    if rhs.shape[1] > len(w):
        return (v / (w + kappa / 2.0)) @ v.T @ rhs
    return v @ ((v.T @ rhs) / (w + kappa / 2.0)[:, None])


def shrink(v: np.ndarray, tau: float, out: np.ndarray | None = None) -> np.ndarray:
    """Soft-threshold: max(|v| - tau, 0) with the sign of v, written into out
    when given (out must not be v).  A -0.0 or a NaN keeps its sign bit."""
    out = np.abs(v, out=out)
    np.subtract(out, tau, out=out)
    np.maximum(out, 0.0, out=out)
    return np.copysign(out, v, out=out)


def update_p(q: np.ndarray, t: np.ndarray, kappa: float, mu: float) -> np.ndarray:
    """Proximal L1 step: soft-threshold Q - T/kappa at level mu/kappa.

    Step-by-step form of fit's sweep, which does not call it.
    """
    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    if mu < 0:
        raise ValueError("mu must be >= 0")
    if q.shape != t.shape:
        raise DimensionError(f"Q and T shapes differ: {q.shape} vs {t.shape}")
    return shrink(q - t / kappa, mu / kappa)


def update_multiplier(p: np.ndarray, q: np.ndarray, t: np.ndarray, kappa: float,
                      rho: float, kappa_max: float) -> tuple[np.ndarray, float]:
    """Multiplier and penalty step: T += kappa (P - Q), kappa = min(rho kappa, kappa_max).

    Step-by-step form of fit's sweep, which does not call it.
    """
    if rho <= 1:
        raise ValueError("rho must be > 1")
    return t + kappa * (p - q), min(rho * kappa, kappa_max)


def _sweep(q, r, t, base, v, kappa, kappa_next, tau, rows) -> float:
    """One pass over row blocks: P = shrink(Q - T/kappa, tau) into r, whose rows
    the Q-step has read; T += kappa (P - Q); the next right-hand side
    (kappa_next P + T)/2 + base into q, whose rows are spent by then.
    v is one block of scratch.  Returns max|P - Q|."""
    feas = 0.0
    for lo in range(0, len(q), rows):
        b = slice(lo, lo + rows)
        qb, pb, tb = q[b], r[b], t[b]
        vb = v[:len(qb)]
        np.divide(tb, kappa, out=vb)
        np.subtract(qb, vb, out=vb)
        shrink(vb, tau, out=pb)
        np.subtract(pb, qb, out=vb)
        # np.maximum propagates a NaN from any block, whatever the order
        feas = np.maximum(feas, np.abs(vb, out=qb).max())
        np.multiply(vb, kappa, out=vb)
        np.add(tb, vb, out=tb)
        np.multiply(pb, kappa_next, out=qb)
        np.add(qb, tb, out=qb)
        np.multiply(qb, 0.5, out=qb)
        np.add(qb, base[b], out=qb)
    return float(feas)


def _ialm(eig, base: np.ndarray, mu: float) -> tuple[np.ndarray, SolverTrace]:
    """The IALM loop from P = Q = T = 0 over four n x d arrays: base, T, the
    right-hand side R and the new Q.  Returns P and the trace."""
    n, d = base.shape
    rows = max(1, _BLOCK // d)
    t, v = np.zeros((n, d)), np.empty((min(rows, n), d))
    kappa = _KAPPA0
    r = base + 0.0  # (kappa P + T)/2 is +0.0 at P = T = 0
    trace = SolverTrace()
    for it in range(_MAX_ITERS):
        p = None  # the previous P is dead: let the Q-step reuse its memory
        # Q = (M + kappa/2 I)^-1 (K_s X_s^T + (kappa P + T)/2), the minimizer of
        # |X_s - Q^T K_s|^2 + lam |Q^T dk|^2 + tr[T^T(P-Q)] + kappa/2 |P-Q|^2
        q = _solve_spd(eig, kappa, r)
        kappa_next = min(_RHO * kappa, _KAPPA_MAX)
        feas = _sweep(q, r, t, base, v, kappa, kappa_next, mu / kappa, rows)
        p, r = r, q
        # a NaN or Inf anywhere in P or Q makes this maximum NaN or Inf
        if not np.isfinite(feas):
            raise NonFiniteError(f"solver iterate became non-finite at iteration {it}")
        kappa = kappa_next
        trace.records.append(IterationRecord(feasibility=feas, kappa=kappa))
        trace.iters_run = it + 1
        if feas < _EPSILON:
            trace.converged = True
            break
    return p, trace


def fit(x_s: FeatureMatrix, x_t: FeatureMatrix, spec: KernelSpec,
        config: SolverConfig) -> tuple[TsrgModel, SolverTrace]:
    """Learn P by the IALM loop from P=Q=T=0.  At mu = 0, P = V_r diag(1/w_r) V_r^T K_s X_s^T
    over the w above pinv's cutoff len(w) eps max(w), converged after 0 iterations."""
    spec = spec.resolved(x_s, x_t)
    ak = build_augmented(x_s, x_t, spec)
    # the system matrix has no kappa in it: one eigendecomposition per fit
    (w, v), base = _q_system(x_s, ak, config.lam)
    if config.mu > 0:
        p, trace = _ialm((w, v), base, config.mu)
    else:
        keep = w > len(w) * np.finfo(float).eps * w.max()
        w, v = w[keep], v[:, keep]
        p, trace = v @ ((v.T @ base) / w[:, None]), SolverTrace(converged=True)
    return TsrgModel(p=p, x_s=x_s, x_t=x_t, kernel=spec, config=config), trace


def regenerate(model: TsrgModel, x: FeatureMatrix) -> FeatureMatrix:
    """Apply the learned map: columns P^T k(anchors, x_j)."""
    k = gram_matrix(model.anchors, x, model.kernel)
    return FeatureMatrix(model.p.T @ k)


MODEL_FORMAT_VERSION = 1


def save_model(model: TsrgModel, path: str | Path) -> None:
    """Serialize a model to an .npz archive; P round-trips bit-exactly.  ``anchors``
    stacks the x_s and x_t the model references (it holds no copy of them): the data
    ``fit`` saw, standardized after a standardized run.  No mean or std is saved, so
    ``regenerate`` needs inputs scaled the same way, not raw ones."""
    cfg = json.dumps(asdict(model.config), sort_keys=True)
    np.savez(
        path,
        version=np.int64(MODEL_FORMAT_VERSION),
        p=model.p.astype(np.float64, copy=False),
        anchors=model.anchors.data,
        kernel_kind=np.str_(model.kernel.kind),
        kernel_bandwidth=np.float64(model.kernel.bandwidth if model.kernel.bandwidth is not None else np.nan),
        n_s=np.int64(model.x_s.n),
        n_t=np.int64(model.x_t.n),
        config_json=np.str_(cfg),
    )


def load_model(path: str | Path) -> TsrgModel:
    with np.load(path, allow_pickle=False) as z:
        missing = [k for k in ("version", "p", "anchors", "kernel_kind", "kernel_bandwidth",
                               "n_s", "n_t", "config_json") if k not in z]
        if missing:
            raise ValueError(f"model file lacks {', '.join(missing)}")
        version = int(z["version"])
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {version}")
        bw = float(z["kernel_bandwidth"])
        spec = KernelSpec(str(z["kernel_kind"]), None if np.isnan(bw) else bw)
        cfg = json.loads(str(z["config_json"]))
        if not (isinstance(cfg, dict)
                and all(type(cfg.get(k)) in (int, float) for k in ("lam", "mu"))):
            raise ValueError("model config_json must be an object with numeric lam and mu")
        anchors, n_s, n_t = FeatureMatrix(z["anchors"]).data, int(z["n_s"]), int(z["n_t"])
        if not (0 < n_s < anchors.shape[1] and n_s + n_t == anchors.shape[1]):
            raise DimensionError(f"n_s, n_t = {n_s}, {n_t} do not split {anchors.shape[1]} anchors")
        return TsrgModel(z["p"], FeatureMatrix(anchors[:, :n_s]), FeatureMatrix(anchors[:, n_s:]),
                         spec, SolverConfig(lam=cfg["lam"], mu=cfg["mu"]))
