"""fit's IALM loop against a step-by-step reference, its memory and its
non-finite guard."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    # tobytes tells -0.0 from 0.0, which array_equal does not
    assert model.p.tobytes() == p.tobytes()
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


@pytest.mark.parametrize("block", [7, 50, 130])
@pytest.mark.parametrize("kind", ["linear", "gaussian"])
# over n=22 anchors: 22 one-row blocks (7, and 50 at d=40), 10+10+2 rows (50 at
# d=5), one block (130 at d=5) and 7x3+1 rows (130 at d=40)
@pytest.mark.parametrize("d", [5, 40], ids=["d<n", "d>n"])
def test_fit_is_bit_identical_across_row_blocks(monkeypatch, block, kind, d):
    monkeypatch.setattr(tsrg.solver, "_BLOCK", block)
    x_s, x_t = shifted_pair(6, d=d)
    config = SolverConfig(lam=10.0, mu=0.05)
    model, trace = fit(x_s, x_t, KernelSpec(kind), config)
    p, feasibility, _ = ialm_reference(x_s, x_t, KernelSpec(kind), config)
    # tobytes tells -0.0 from 0.0, which array_equal does not
    assert model.p.tobytes() == p.tobytes()
    assert [r.feasibility for r in trace.records] == feasibility


@pytest.mark.parametrize("block", [None, 50], ids=["default-block", "block-50"])
@pytest.mark.parametrize("d", [5, 40], ids=["d<n", "d>n"])
@pytest.mark.parametrize("max_iters", [1, 2, 3])
def test_p_is_bit_identical_whichever_buffer_holds_it(monkeypatch, max_iters, d, block):
    # the loop swaps its right-hand side and P buffers every iteration, so
    # stopping after an odd or an even count returns P from either one
    if block is not None:
        monkeypatch.setattr(tsrg.solver, "_BLOCK", block)
    monkeypatch.setattr(tsrg.solver, "_MAX_ITERS", max_iters)
    x_s, x_t = shifted_pair(8, d=d)
    config = SolverConfig(lam=10.0, mu=0.05)
    model, trace = fit(x_s, x_t, KernelSpec("linear"), config)
    p, feasibility, kappa = ialm_reference(x_s, x_t, KernelSpec("linear"), config)
    assert not trace.converged and trace.iters_run == max_iters
    assert model.p.tobytes() == p.tobytes()
    assert [r.feasibility for r in trace.records] == feasibility
    assert [r.kappa for r in trace.records] == kappa


def test_fit_holds_four_n_by_d_arrays_when_d_exceeds_n(monkeypatch):
    # the kappa-free right-hand side, T, R and the new Q during a Q-step, plus
    # one block of scratch and the n x n operator; the previous P is freed
    monkeypatch.setattr(tsrg.solver, "_MAX_ITERS", 4)
    x_s, x_t = shifted_pair(7, d=4000)
    config = SolverConfig(lam=1.0, mu=1e-3)
    fit(x_s, x_t, KernelSpec("linear"), config)  # numpy's lazy imports, untraced
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _, trace = fit(x_s, x_t, KernelSpec("linear"), config)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert trace.iters_run == 4
    assert peak <= 4.5 * (12 + 10) * 4000 * 8


# mu = 0 runs no loop: test_mu_zero_is_minimum_norm_least_squares covers it.
# kappa = 0.1 * 1.1**k reaches the default kappa_max of 1e7 only at k = 194, so the
# smaller caps drawn here are what make the clamp and the iteration cap run
@settings(max_examples=40, deadline=None)
@given(n_s=st.integers(2, 12), n_t=st.integers(2, 12), d=st.integers(1, 60),
       kind=st.sampled_from(["linear", "gaussian"]), lam=st.floats(0.0, 100.0),
       mu=st.floats(0.0, 0.1, exclude_min=True), block=st.integers(1, 4096),
       kappa_max=st.sampled_from([0.5, 2.0, 1e7]), max_iters=st.integers(1, 60),
       seed=st.integers(0, 2**32 - 1))
# the clamp binds from iteration 17 (kappa_max 0.5) or 32 (kappa_max 2), and the cap stops both
@example(n_s=12, n_t=10, d=5, kind="linear", lam=10.0, mu=0.05, block=50, kappa_max=0.5,
         max_iters=40, seed=0)
@example(n_s=12, n_t=10, d=40, kind="gaussian", lam=1.0, mu=1e-3, block=4096, kappa_max=2.0,
         max_iters=60, seed=1)
def test_fit_matches_reference_for_any_shape_and_block(n_s, n_t, d, kind, lam, mu, block,
                                                       kappa_max, max_iters, seed):
    x_s, x_t = shifted_pair(seed, d=d, n_s=n_s, n_t=n_t)
    config = SolverConfig(lam=lam, mu=mu)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tsrg.solver, "_BLOCK", block)
        mp.setattr(tsrg.solver, "_KAPPA_MAX", kappa_max)
        mp.setattr(tsrg.solver, "_MAX_ITERS", max_iters)
        model, trace = fit(x_s, x_t, KernelSpec(kind), config)
        p, feasibility, kappa = ialm_reference(x_s, x_t, KernelSpec(kind), config)
    assert model.p.tobytes() == p.tobytes()
    assert [r.feasibility for r in trace.records] == feasibility
    assert [r.kappa for r in trace.records] == kappa
    assert trace.iters_run == len(feasibility)
    assert trace.converged == (feasibility[-1] < tsrg.solver._EPSILON)
    if not trace.converged:  # the cap stopped it
        assert trace.iters_run == max_iters


# over n=22 anchors: one block at d=5, 7x3+1 rows at d=40 with 130-element blocks
@pytest.mark.parametrize("block, d, blocks", [(None, 5, 1), (130, 40, 8)], ids=["d<n", "d>n"])
def test_fit_shrinks_once_per_row_block_per_iteration(monkeypatch, block, d, blocks):
    if block is not None:
        monkeypatch.setattr(tsrg.solver, "_BLOCK", block)
    shrink = tsrg.solver.shrink
    rows = []

    def count(v, tau, out=None):
        rows.append(len(v))
        return shrink(v, tau, out=out)

    monkeypatch.setattr(tsrg.solver, "shrink", count)
    x_s, x_t = shifted_pair(3, d=d)
    _, trace = fit(x_s, x_t, KernelSpec("linear"), SolverConfig(lam=1.0, mu=1e-3))
    assert len(rows) == blocks * trace.iters_run
    assert sum(rows) == 22 * trace.iters_run


def test_fit_never_evaluates_the_objective(monkeypatch):
    for name in ["objective_terms", "update_p", "update_multiplier"]:
        def fail(*args, name=name):
            raise AssertionError(f"{name} called")
        monkeypatch.setattr(tsrg.solver, name, fail)
    x_s, x_t = shifted_pair(3)
    _, trace = fit(x_s, x_t, KernelSpec("linear"), SolverConfig(lam=1.0, mu=1e-3))
    assert trace.converged


def assert_non_finite_q_raises_at(monkeypatch, at, entry, bad):
    """Set Q[entry] to bad after the Q-step of iteration at, then fit."""
    solve = tsrg.solver._solve_spd
    calls = []

    def corrupt(eig, kappa, rhs):
        q = solve(eig, kappa, rhs)
        if len(calls) == at:
            q[entry] = bad
        calls.append(kappa)
        return q

    monkeypatch.setattr(tsrg.solver, "_solve_spd", corrupt)
    x_s, x_t = shifted_pair(4)
    # an infinite entry reaches P too, and inf - inf warns before the error
    with np.errstate(invalid="ignore"), \
            pytest.raises(NonFiniteError, match=f"non-finite at iteration {at}$"):
        fit(x_s, x_t, KernelSpec("linear"), SolverConfig(lam=1.0, mu=1e-3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("at", [0, 3])
def test_non_finite_iterate_raises_at_its_iteration(monkeypatch, bad, at):
    assert_non_finite_q_raises_at(monkeypatch, at, (1, 2), bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("at", [0, 3])
def test_non_finite_in_the_last_row_block_raises_at_its_iteration(monkeypatch, bad, at):
    # 10-row blocks over 22 anchors: Q[-1, -1] is in the third block, after
    # two blocks whose finite maxima a NaN-dropping reduce would keep
    monkeypatch.setattr(tsrg.solver, "_BLOCK", 50)
    assert_non_finite_q_raises_at(monkeypatch, at, (-1, -1), bad)
