"""Reference quantities the package itself never computes, kept for the tests."""
import numpy as np

from tsrg.errors import DimensionError
from tsrg.kernels import AugmentedKernels, FeatureMatrix
from tsrg.solver import TsrgModel, objective_terms


def objective(p: np.ndarray, x_s: FeatureMatrix, ak: AugmentedKernels,
              lam: float, mu: float) -> float:
    """Full training objective at P: reconstruction + lam*mean-gap + mu*|P|_1."""
    recon, gap, l1 = objective_terms(p, x_s, ak)
    return recon + lam * gap + mu * l1


def fg_residual(model: TsrgModel, ak: AugmentedKernels) -> float:
    """Squared distance between the regenerated source and target means."""
    if model.p.shape[0] != ak.n_s + ak.n_t:
        raise DimensionError("model and augmented kernels disagree on anchor count")
    g = model.p.T @ ak.delta_k
    return float(np.dot(g, g))
