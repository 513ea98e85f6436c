"""fit's IALM loop against a step-by-step reference, and its non-finite guard."""
import numpy as np
import pytest

import tsrg.solver
from tsrg.errors import NonFiniteError
from tsrg.kernels import FeatureMatrix, KernelSpec
from tsrg.solver import SolverConfig, fit

from oracles import ialm_reference


def shifted_pair(seed, d=5, n_s=12, n_t=10):
    rng = np.random.default_rng(seed)
    return (FeatureMatrix(rng.standard_normal((d, n_s))),
            FeatureMatrix(rng.standard_normal((d, n_t)) + 1.5))


@pytest.mark.parametrize("kind", ["linear", "gaussian"])
@pytest.mark.parametrize("lam, mu", [(1.0, 1e-3), (10.0, 0.05)])
# d=40 > n=22 anchors takes _solve_spd's operator form, d=5 its right-to-left form
@pytest.mark.parametrize("seed, d", [(0, 5), (1, 5), (2, 5), (0, 40), (1, 40)],
                         ids=["0", "1", "2", "0-d40", "1-d40"])
def test_fit_equals_reference_loop_bit_for_bit(kind, lam, mu, seed, d):
    x_s, x_t = shifted_pair(seed, d=d)
    config = SolverConfig(lam=lam, mu=mu)
    model, trace = fit(x_s, x_t, KernelSpec(kind), config)
    p, feasibility, kappa = ialm_reference(x_s, x_t, KernelSpec(kind), config)
    assert np.array_equal(model.p, p)
    assert [r.feasibility for r in trace.records] == feasibility
    assert [r.kappa for r in trace.records] == kappa
    assert trace.iters_run == len(feasibility)


@pytest.mark.parametrize("d, operator_form", [(5, False), (40, True)], ids=["d<n", "d>n"])
def test_fit_solves_once_per_iteration(monkeypatch, d, operator_form):
    solve = tsrg.solver._solve_spd
    branches = []

    def count(eig, kappa, rhs):
        branches.append(rhs.shape[1] > len(eig[0]))
        return solve(eig, kappa, rhs)

    monkeypatch.setattr(tsrg.solver, "_solve_spd", count)
    x_s, x_t = shifted_pair(5, d=d)
    _, trace = fit(x_s, x_t, KernelSpec("gaussian"), SolverConfig(lam=1.0, mu=1e-3))
    assert branches == [operator_form] * trace.iters_run


def test_fit_never_evaluates_the_objective(monkeypatch):
    def fail(*args):
        raise AssertionError("objective_terms called")
    monkeypatch.setattr(tsrg.solver, "objective_terms", fail)
    x_s, x_t = shifted_pair(3)
    _, trace = fit(x_s, x_t, KernelSpec("linear"), SolverConfig(lam=1.0, mu=1e-3))
    assert trace.converged


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("at", [0, 3])
def test_non_finite_iterate_raises_at_its_iteration(monkeypatch, bad, at):
    solve = tsrg.solver._solve_spd
    calls = []

    def corrupt(eig, kappa, rhs):
        q = solve(eig, kappa, rhs)
        if len(calls) == at:
            q[1, 2] = bad
        calls.append(kappa)
        return q

    monkeypatch.setattr(tsrg.solver, "_solve_spd", corrupt)
    x_s, x_t = shifted_pair(4)
    # an infinite entry reaches P too, and inf - inf warns before the error
    with np.errstate(invalid="ignore"), \
            pytest.raises(NonFiniteError, match=f"non-finite at iteration {at}$"):
        fit(x_s, x_t, KernelSpec("linear"), SolverConfig(lam=1.0, mu=1e-3))
