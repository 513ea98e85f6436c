import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsrg.solver
from tsrg.errors import DimensionError, NonFiniteError, NumericalError, TsrgError
from tsrg.kernels import FeatureMatrix, KernelSpec, build_augmented, mmd
from tsrg.solver import (SolverConfig, _q_system, _solve_spd, fit,
                         load_model, objective_terms, regenerate, save_model,
                         shrink, update_multiplier, update_p)

from oracles import fg_residual, kernel_eval, objective, update_q

LINEAR = KernelSpec("linear")


def random_pair(seed, d=3, n_s=5, n_t=4):
    rng = np.random.default_rng(seed)
    return (FeatureMatrix(rng.standard_normal((d, n_s))),
            FeatureMatrix(rng.standard_normal((d, n_t))))


def least_squares_p(ak, x_s):
    """Independent normal-equations oracle (min-norm via pseudoinverse)."""
    return np.linalg.pinv(ak.k_s @ ak.k_s.T) @ (ak.k_s @ x_s.data.T)


class TestObjective:
    def test_zero_p_gives_source_energy(self):
        x_s, x_t = random_pair(0)
        ak = build_augmented(x_s, x_t, LINEAR)
        p = np.zeros((9, 3))
        assert objective(p, x_s, ak, 1.0, 1.0) == pytest.approx(
            np.sum(x_s.data ** 2), rel=1e-14)

    def test_least_squares_minimizer_near_zero(self):
        x_s, x_t = random_pair(1, d=3, n_s=6, n_t=6)
        ak = build_augmented(x_s, x_t, LINEAR)
        p = least_squares_p(ak, x_s)
        assert objective(p, x_s, ak, 0.0, 0.0) <= 1e-12 * np.sum(x_s.data ** 2)

    def test_matches_scalar_brute_force(self):
        # 2-sample toy evaluated term by term with plain loops
        x_s = FeatureMatrix(np.array([[1.0, 2.0], [0.5, -1.0]]))
        x_t = FeatureMatrix(np.array([[0.0, 1.0], [1.0, 1.0]]))
        ak = build_augmented(x_s, x_t, LINEAR)
        rng = np.random.default_rng(2)
        p = rng.standard_normal((4, 2))
        recon = 0.0
        for j in range(2):
            for i in range(2):
                pred = sum(p[a, i] * ak.k_s[a, j] for a in range(4))
                recon += (x_s.data[i, j] - pred) ** 2
        gap = 0.0
        for i in range(2):
            gap += sum(p[a, i] * ak.delta_k[a] for a in range(4)) ** 2
        l1 = sum(abs(p[a, i]) for a in range(4) for i in range(2))
        assert objective(p, x_s, ak, 1.0, 1.0) == pytest.approx(recon + gap + l1, rel=1e-12)

    def test_shape_mismatch(self):
        x_s, x_t = random_pair(3)
        ak = build_augmented(x_s, x_t, LINEAR)
        with pytest.raises(DimensionError):
            objective(np.zeros((5, 3)), x_s, ak, 1.0, 1.0)


def smooth_lagrangian(q, x_s, ak, lam, p, t, kappa):
    """Smooth part of the augmented Lagrangian (everything except mu|P|_1)."""
    resid = x_s.data - q.T @ ak.k_s
    g = q.T @ ak.delta_k
    return (np.sum(resid ** 2) + lam * np.dot(g, g)
            + np.sum(t * (p - q)) + kappa / 2 * np.sum((p - q) ** 2))


def fd_gradient(f, q, h=1e-5):
    grad = np.zeros_like(q)
    for idx in np.ndindex(q.shape):
        qp, qm = q.copy(), q.copy()
        qp[idx] += h
        qm[idx] -= h
        grad[idx] = (f(qp) - f(qm)) / (2 * h)
    return grad


class TestUpdateQ:
    def test_proximal_limit_returns_p(self):
        x_s, x_t = random_pair(4)
        ak = build_augmented(x_s, x_t, LINEAR)
        rng = np.random.default_rng(5)
        p = rng.standard_normal((9, 3))
        q = update_q(p, np.zeros_like(p), 1e12, x_s, ak, 0.0)
        np.testing.assert_allclose(q, p, atol=1e-6)

    @pytest.mark.parametrize("lam", [0.0, 0.1, 1.0, 10.0])
    def test_finite_difference_stationarity(self, lam):
        x_s, x_t = random_pair(6, d=3, n_s=4, n_t=3)
        ak = build_augmented(x_s, x_t, LINEAR)
        rng = np.random.default_rng(7)
        p = rng.standard_normal((7, 3))
        t = rng.standard_normal((7, 3))
        kappa = 2.0
        q_star = update_q(p, t, kappa, x_s, ak, lam)
        grad = fd_gradient(lambda q: smooth_lagrangian(q, x_s, ak, lam, p, t, kappa), q_star)
        assert np.max(np.abs(grad)) < 1e-4 * (1 + kappa)

    def test_hand_solved_two_by_two(self):
        # single source and target column in d=2 so the system is 2x2 per
        # output dimension and can be inverted by hand
        x_s = FeatureMatrix(np.array([[1.0], [0.0]]))
        x_t = FeatureMatrix(np.array([[0.0], [1.0]]))
        ak = build_augmented(x_s, x_t, LINEAR)
        kappa = 2.0
        lam = 1.0
        m = ak.k_s @ ak.k_s.T + lam * np.outer(ak.delta_k, ak.delta_k) + kappa / 2 * np.eye(2)
        expected = np.linalg.inv(m) @ (ak.k_s @ x_s.data.T)
        zero = np.zeros((2, 2))
        np.testing.assert_allclose(update_q(zero, zero, kappa, x_s, ak, lam), expected,
                                   atol=1e-10)


class TestSingleSolvePath:
    @pytest.mark.parametrize("spec", [LINEAR, KernelSpec("gaussian", 1.5)])
    def test_one_iteration_fit_equals_update_q(self, monkeypatch, spec):
        # one IALM iteration from the zero state is one Q-step at kappa0, then
        # the soft-threshold at mu/kappa0
        monkeypatch.setattr(tsrg.solver, "_MAX_ITERS", 1)
        x_s, x_t = random_pair(30, d=4, n_s=7, n_t=5)
        cfg = SolverConfig(lam=3.0, mu=1e-3)
        model, _ = fit(x_s, x_t, spec, cfg)
        zero = np.zeros((12, 4))
        kappa0 = tsrg.solver._KAPPA0
        q = update_q(zero, zero, kappa0, x_s, build_augmented(x_s, x_t, spec), cfg.lam)
        assert np.array_equal(model.p, update_p(q, zero, kappa0, cfg.mu))


class TestSolveSpd:
    """The Q-step solve on the system a fit builds, with n = 12 + 10 anchors."""

    KAPPAS = [0.1, 1.0, 1e3, 1e7]

    @staticmethod
    def system(kind, d, lam=1.0):
        x_s, x_t = random_pair(40, d=d, n_s=12, n_t=10)
        ak = build_augmented(x_s, x_t, KernelSpec(kind).resolved(x_s, x_t))
        eig, rhs_base = _q_system(x_s, ak, lam)
        m = ak.k_s @ ak.k_s.T + lam * np.outer(ak.delta_k, ak.delta_k)
        rhs = rhs_base + np.random.default_rng(41).standard_normal(rhs_base.shape)
        return eig, m, rhs

    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("kind", ["linear", "gaussian"])
    def test_operator_form_residual_when_d_exceeds_n(self, kind, kappa):
        eig, m, rhs = self.system(kind, d=60)
        w, _ = eig
        q = _solve_spd(eig, kappa, rhs)
        resid = np.linalg.norm((m + kappa / 2 * np.eye(len(w))) @ q - rhs) / np.linalg.norm(rhs)
        # backward-stable solve: relative residual within n eps cond(M + kappa/2 I)
        cond = (w.max() + kappa / 2) / (w.min() + kappa / 2)
        assert resid <= len(w) * np.finfo(float).eps * cond

    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("d", [5, 22], ids=["d<n", "d=n"])
    def test_right_to_left_form_unchanged_when_d_at_most_n(self, d, kappa):
        eig, _, rhs = self.system("gaussian", d=d)
        w, v = eig
        assert np.array_equal(_solve_spd(eig, kappa, rhs),
                              v @ ((v.T @ rhs) / (w + kappa / 2.0)[:, None]))


class TestUpdateP:
    def test_first_branch(self):
        q = np.array([[0.5]])
        t = np.array([[0.0]])
        assert update_p(q, t, kappa=1.0, mu=0.2)[0, 0] == pytest.approx(0.3)

    def test_dead_zone(self):
        q = np.array([[0.1, -0.15]])
        t = np.array([[0.0, 0.0]])
        np.testing.assert_array_equal(update_p(q, t, kappa=1.0, mu=0.2), 0.0)

    def test_scalar_grid_search_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            v = rng.uniform(-2, 2)
            tau = rng.uniform(0, 1)
            grid = np.arange(-2 * abs(v) - 1e-6, 2 * abs(v) + 1e-6, 1e-6)
            vals = tau * np.abs(grid) + 0.5 * (grid - v) ** 2
            best = grid[np.argmin(vals)]
            got = update_p(np.array([[v]]), np.zeros((1, 1)), kappa=1.0, mu=tau)[0, 0]
            assert abs(got - best) < 2e-6

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-5, 5), st.floats(0, 2))
    def test_subgradient_condition(self, v, tau):
        p = shrink(np.array([v]), tau)[0]
        if p == 0.0:
            assert abs(v - p) <= tau + 1e-10
        else:
            assert v - p == pytest.approx(np.sign(p) * tau, abs=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324,
                                     -5e-324, 1e-310, -1e-310]) | st.floats(), min_size=1),
           st.sampled_from([0.0, 5e-324, 1e-310]) | st.floats(0, 1e300))
    def test_shrink_into_out_equals_the_allocating_form(self, values, tau):
        v = np.array(values)
        before = v.tobytes()
        out = np.empty_like(v)
        got = shrink(v, tau, out=out)
        assert got is out
        assert out.tobytes() == shrink(v, tau).tobytes()
        assert v.tobytes() == before
        # the result takes the sign bit of v, even on -0.0 and NaN
        assert np.array_equal(np.signbit(out), np.signbit(v))


class TestUpdateMultiplier:
    def test_unchanged_when_feasible(self):
        p, t = np.ones((2, 2)), np.full((2, 2), 3.0)
        t_new, _ = update_multiplier(p, p.copy(), t, 1.0, rho=1.5, kappa_max=10.0)
        np.testing.assert_array_equal(t_new, t)

    def test_kappa_clamped(self):
        zero = np.zeros((1, 1))
        _, kappa = update_multiplier(zero, zero, zero, 10.0, rho=1.5, kappa_max=10.0)
        assert kappa == 10.0

    def test_kappa_growth(self):
        zero = np.zeros((1, 1))
        _, kappa = update_multiplier(zero, zero, zero, 1.0, rho=1.5, kappa_max=10.0)
        assert kappa == 1.5


EXACT_CFG = SolverConfig(lam=0.0, mu=0.0)


class TestFit:
    def test_copy_target_reproduces_itself(self):
        x_s, _ = random_pair(9, d=4, n_s=8)
        model, trace = fit(x_s, x_s, LINEAR, SolverConfig(lam=1.0, mu=0.0))
        regen = regenerate(model, x_s)
        rel = np.linalg.norm(x_s.data - regen.data) / np.linalg.norm(x_s.data)
        assert rel < 1e-6

    def test_model_references_the_pair_it_was_fit_on(self):
        x_s, x_t = random_pair(11)
        model, _ = fit(x_s, x_t, LINEAR, SolverConfig(lam=1.0, mu=0.01))
        assert model.x_s is x_s and model.x_t is x_t
        stacked = np.concatenate([x_s.data, x_t.data], axis=1)
        assert model.anchors.data.tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("p_shape, d_t, message", [
        ((8, 3), 3, r"^P has shape \(8, 3\), not \(9, 3\)$"),
        ((9, 4), 3, r"^P has shape \(9, 4\), not \(9, 3\)$"),
        ((9,), 3, r"^P has shape \(9,\), not \(9, 3\)$"),
        ((9, 3), 4, "^x_s and x_t dimensions differ: 3 vs 4$"),
    ], ids=["p-rows", "p-columns", "p-vector", "dimensions"])
    def test_model_rejects_parts_that_do_not_fit_together(self, p_shape, d_t, message):
        x_s, _ = random_pair(12)  # 3 x 5
        with pytest.raises(DimensionError, match=message):
            tsrg.solver.TsrgModel(np.zeros(p_shape), x_s, FeatureMatrix(np.ones((d_t, 4))),
                                  LINEAR, SolverConfig())

    def test_model_rejects_a_gaussian_kernel_without_bandwidth(self):
        x_s, x_t = random_pair(12)
        with pytest.raises(ValueError) as err:
            tsrg.solver.TsrgModel(np.zeros((x_s.n + x_t.n, x_s.d)), x_s, x_t,
                                  KernelSpec("gaussian"), SolverConfig())
        assert str(err.value) == "a model's gaussian kernel must carry its bandwidth"

    def test_matches_normal_equations_oracle(self):
        for seed in range(5):
            x_s, x_t = random_pair(seed, d=3, n_s=6, n_t=5)
            model, _ = fit(x_s, x_t, LINEAR, EXACT_CFG)
            ak = build_augmented(x_s, x_t, LINEAR)
            expected = least_squares_p(ak, x_s)
            rel = np.linalg.norm(model.p - expected) / np.linalg.norm(expected)
            assert rel < 1e-5

    def test_reduces_mmd_on_shifted_pair(self):
        rng = np.random.default_rng(10)
        x_s = FeatureMatrix(rng.standard_normal((5, 20)))
        x_t = FeatureMatrix(rng.standard_normal((5, 20)) + 3.0)
        model, _ = fit(x_s, x_t, LINEAR, SolverConfig(lam=1.0, mu=1e-3))
        regen = regenerate(model, x_t)
        assert mmd(x_s, regen, LINEAR) < mmd(x_s, x_t, LINEAR)

    @pytest.mark.parametrize("lam", [0.0, 1.0, 10.0])
    @pytest.mark.parametrize("kind", ["linear", "gaussian"])
    # d=40 > n=22 anchors, and d=5 < n, where the linear M is rank-deficient
    @pytest.mark.parametrize("d", [5, 40], ids=["d<n", "d>n"])
    def test_mu_zero_is_minimum_norm_least_squares(self, monkeypatch, lam, kind, d):
        # at mu = 0 fit runs no IALM iteration at all
        monkeypatch.setattr(tsrg.solver, "_ialm", None)
        x_s, x_t = random_pair(18, d=d, n_s=12, n_t=10)
        model, trace = fit(x_s, x_t, KernelSpec(kind), SolverConfig(lam=lam, mu=0.0))
        assert trace.converged and trace.iters_run == 0 and trace.records == []
        ak = build_augmented(x_s, x_t, model.kernel)
        m = ak.k_s @ ak.k_s.T + lam * np.outer(ak.delta_k, ak.delta_k)
        expected = np.linalg.pinv(m, hermitian=True) @ (ak.k_s @ x_s.data.T)
        assert np.linalg.norm(model.p - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_trace_consistency(self):
        x_s, x_t = random_pair(11)
        _, trace = fit(x_s, x_t, LINEAR, SolverConfig(lam=1.0, mu=0.01))
        assert trace.iters_run == len(trace.records)
        final = trace.records[-1]
        assert trace.converged == (final.feasibility < tsrg.solver._EPSILON)

    def test_feasibility_eventually_monotone(self):
        # Raw per-iteration feasibility oscillates by small factors on these
        # fixtures, so the regression property asserted here is the
        # non-increase of the 10-iteration windowed maximum past iteration 5.
        for seed in (0, 1, 2):
            x_s, x_t = random_pair(seed, d=4, n_s=6, n_t=6)
            _, trace = fit(x_s, x_t, LINEAR, SolverConfig(lam=1.0, mu=0.05))
            feas = [r.feasibility for r in trace.records]
            window_max = [max(feas[k:k + 10]) for k in range(len(feas) - 9)]
            tail = window_max[5:]
            assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))

    def test_objective_not_worse_than_zero(self):
        x_s, x_t = random_pair(12)
        ak = build_augmented(x_s, x_t, LINEAR)
        cfg = SolverConfig(lam=1.0, mu=0.01)
        model, trace = fit(x_s, x_t, LINEAR, cfg)
        assert trace.converged
        assert objective(model.p, x_s, ak, cfg.lam, cfg.mu) <= np.sum(x_s.data ** 2)

    def test_permutation_invariance_of_map(self):
        x_s, x_t = random_pair(13, d=3, n_s=6, n_t=4)
        cfg = SolverConfig(lam=1.0, mu=0.01)
        model_a, _ = fit(x_s, x_t, LINEAR, cfg)
        perm = np.random.default_rng(14).permutation(x_s.n)
        x_s_perm = FeatureMatrix(x_s.data[:, perm])
        model_b, _ = fit(x_s_perm, x_t, LINEAR, cfg)
        probe = FeatureMatrix(np.random.default_rng(15).standard_normal((3, 7)))
        np.testing.assert_allclose(regenerate(model_a, probe).data,
                                   regenerate(model_b, probe).data, atol=1e-8)


class TestRegenerate:
    def test_source_roundtrip_at_exact_solution(self):
        x_s, x_t = random_pair(16, d=4, n_s=8, n_t=8)
        model, _ = fit(x_s, x_t, LINEAR, EXACT_CFG)
        regen = regenerate(model, x_s)
        rel = np.linalg.norm(x_s.data - regen.data) / np.linalg.norm(x_s.data)
        assert rel < 1e-6

    def test_zero_p_gives_zero_output(self):
        x_s, x_t = random_pair(17)
        model, _ = fit(x_s, x_t, LINEAR, EXACT_CFG)
        zeroed = type(model)(p=np.zeros_like(model.p), x_s=model.x_s, x_t=model.x_t,
                             kernel=model.kernel, config=model.config)
        np.testing.assert_array_equal(regenerate(zeroed, x_s).data, 0.0)

    def test_single_column_naive_loop(self):
        x_s, x_t = random_pair(18)
        model, _ = fit(x_s, x_t, LINEAR, SolverConfig(lam=1.0, mu=0.01))
        x = FeatureMatrix(np.random.default_rng(19).standard_normal((3, 1)))
        out = regenerate(model, x).data[:, 0]
        k = np.array([kernel_eval(model.anchors.data[:, a], x.data[:, 0], model.kernel)
                      for a in range(model.anchors.n)])
        expected = np.array([sum(model.p[a, i] * k[a] for a in range(model.anchors.n))
                             for i in range(3)])
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_dimension_mismatch(self):
        x_s, x_t = random_pair(20)
        model, _ = fit(x_s, x_t, LINEAR, EXACT_CFG)
        with pytest.raises(DimensionError):
            regenerate(model, FeatureMatrix(np.ones((4, 2))))


class TestFgResidual:
    def test_zero_delta_for_any_p(self):
        x_s, _ = random_pair(21)
        ak = build_augmented(x_s, x_s, LINEAR)
        model, _ = fit(x_s, x_s, LINEAR, SolverConfig(lam=1.0, mu=0.01))
        rng = np.random.default_rng(22)
        for _ in range(10):
            randomized = type(model)(p=rng.standard_normal(model.p.shape),
                                     x_s=model.x_s, x_t=model.x_t, kernel=model.kernel,
                                     config=model.config)
            assert fg_residual(randomized, ak) == 0.0

    def test_two_path_agreement(self):
        x_s, x_t = random_pair(23, d=3, n_s=5, n_t=6)
        ak = build_augmented(x_s, x_t, LINEAR)
        model, _ = fit(x_s, x_t, LINEAR, SolverConfig(lam=1.0, mu=0.01))
        regen_s = regenerate(model, x_s).data.mean(axis=1)
        regen_t = regenerate(model, x_t).data.mean(axis=1)
        direct = float(np.sum((regen_s - regen_t) ** 2))
        assert fg_residual(model, ak) == pytest.approx(direct, abs=1e-9)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        x_s, x_t = random_pair(24)
        model, _ = fit(x_s, x_t, KernelSpec("gaussian", 2.5), SolverConfig(lam=1.0, mu=0.01))
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.p, model.p)
        assert np.array_equal(loaded.anchors.data, model.anchors.data)
        assert loaded.kernel == model.kernel
        assert loaded.config == model.config
        assert (loaded.x_s.n, loaded.x_t.n) == (model.x_s.n, model.x_t.n)

    def test_loaded_model_regenerates_identically(self, tmp_path):
        x_s, x_t = random_pair(25)
        model, _ = fit(x_s, x_t, LINEAR, SolverConfig(lam=1.0, mu=0.01))
        save_model(model, tmp_path / "m.npz")
        loaded = load_model(tmp_path / "m.npz")
        np.testing.assert_array_equal(regenerate(loaded, x_t).data,
                                      regenerate(model, x_t).data)

    @pytest.mark.parametrize("kernel", [LINEAR, KernelSpec("gaussian")], ids=["linear", "gaussian"])
    def test_resaving_a_loaded_model_rewrites_its_bytes(self, tmp_path, kernel):
        x_s, x_t = random_pair(26)
        model, _ = fit(x_s, x_t, kernel, SolverConfig(lam=1.0, mu=0.01))
        save_model(model, tmp_path / "a.npz")
        save_model(load_model(tmp_path / "a.npz"), tmp_path / "b.npz")
        assert (tmp_path / "b.npz").read_bytes() == (tmp_path / "a.npz").read_bytes()

    @pytest.mark.parametrize("n_s, n_t", [(0, 9), (9, 0), (-1, 10), (4, 4)],
                             ids=["no-source", "no-target", "negative", "short"])
    def test_rejects_counts_that_do_not_split_the_anchors(self, tmp_path, n_s, n_t):
        x_s, x_t = random_pair(29)  # 5 + 4 anchors
        model, _ = fit(x_s, x_t, LINEAR, SolverConfig(lam=1.0, mu=0.01))
        save_model(model, tmp_path / "m.npz")
        with np.load(tmp_path / "m.npz") as z:
            fields = dict(z)
        np.savez(tmp_path / "m.npz", **{**fields, "n_s": np.int64(n_s), "n_t": np.int64(n_t)})
        with pytest.raises(TsrgError, match=f"^n_s, n_t = {n_s}, {n_t} do not split 9 anchors$"):
            load_model(tmp_path / "m.npz")

    @pytest.mark.parametrize("dropped", ["version", "p", "anchors", "kernel_kind",
                                         "kernel_bandwidth", "n_s", "n_t", "config_json"])
    def test_names_a_missing_array(self, tmp_path, dropped):
        x_s, x_t = random_pair(30)
        model, _ = fit(x_s, x_t, LINEAR, SolverConfig(lam=1.0, mu=0.01))
        save_model(model, tmp_path / "m.npz")
        with np.load(tmp_path / "m.npz") as z:
            fields = {k: z[k] for k in z.files if k != dropped}
        np.savez(tmp_path / "m.npz", **fields)
        with pytest.raises(ValueError, match=f"^model file lacks {dropped}$"):
            load_model(tmp_path / "m.npz")

    def test_names_every_missing_array_before_reading_any(self, tmp_path):
        np.savez(tmp_path / "m.npz", version=np.int64(2))
        with pytest.raises(ValueError, match="^model file lacks p, anchors, kernel_kind, "
                                             "kernel_bandwidth, n_s, n_t, config_json$"):
            load_model(tmp_path / "m.npz")

    @staticmethod
    def write(path, model, config_json):
        """An .npz in the version-1 layout with the given config_json."""
        np.savez(path, version=np.int64(1), p=model.p, anchors=model.anchors.data,
                 kernel_kind=np.str_(model.kernel.kind), kernel_bandwidth=np.float64(np.nan),
                 n_s=np.int64(model.x_s.n), n_t=np.int64(model.x_t.n),
                 config_json=np.str_(config_json))

    def test_rejects_a_gaussian_model_without_bandwidth(self, tmp_path):
        x_s, x_t = random_pair(31)
        model, _ = fit(x_s, x_t, KernelSpec("gaussian"), SolverConfig(lam=1.0, mu=0.01))
        self.write(tmp_path / "m.npz", model, json.dumps({"lam": 1.0, "mu": 0.01}))
        with pytest.raises(ValueError) as err:
            load_model(tmp_path / "m.npz")
        assert str(err.value) == "a model's gaussian kernel must carry its bandwidth"

    def test_loads_a_config_that_also_holds_the_schedule(self, tmp_path):
        # files written while SolverConfig held the IALM schedule carry seven keys
        x_s, x_t = random_pair(27)
        model, _ = fit(x_s, x_t, LINEAR, SolverConfig(lam=10.0, mu=1e-3))
        self.write(tmp_path / "m.npz", model, json.dumps(
            {"epsilon": 1e-7, "kappa0": 0.1, "kappa_max": 1e7, "lam": 10.0, "max_iters": 500,
             "mu": 0.001, "rho": 1.1}, sort_keys=True))
        loaded = load_model(tmp_path / "m.npz")
        assert loaded.p.tobytes() == model.p.tobytes()
        assert loaded.anchors.data.tobytes() == model.anchors.data.tobytes()
        assert (loaded.config.lam, loaded.config.mu) == (10.0, 1e-3)

    @pytest.mark.parametrize("config_json", [
        "[10.0, 0.001]", '{"lam": 10.0}', '{"lam": "10", "mu": 0.001}',
        '{"lam": 10.0, "mu": null}', '{"lam": true, "mu": 0.001}',
    ], ids=["list", "no-mu", "string-lam", "null-mu", "bool-lam"])
    def test_rejects_a_config_without_numeric_penalties(self, tmp_path, config_json):
        x_s, x_t = random_pair(28)
        model, _ = fit(x_s, x_t, LINEAR, SolverConfig(lam=10.0, mu=1e-3))
        self.write(tmp_path / "m.npz", model, config_json)
        with pytest.raises(ValueError, match="^model config_json must be an object with numeric"):
            load_model(tmp_path / "m.npz")


@pytest.mark.parametrize("kwargs, message", [
    ({"lam": np.nan}, "lam and mu must be nonnegative"),
    ({"mu": np.nan}, "lam and mu must be nonnegative"),
    ({"lam": np.inf}, "lam must be finite"),
    ({"mu": np.inf}, "mu must be finite"),
], ids=["nan-lam", "nan-mu", "inf-lam", "inf-mu"])
def test_config_rejects_nan_and_infinite_epsilon(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SolverConfig(**kwargs)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(lam=-1.0)


@pytest.mark.parametrize("name", ["kappa0", "rho", "kappa_max", "epsilon", "max_iters"])
def test_config_holds_the_penalties_not_the_schedule(name):
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["lam", "mu"]
    with pytest.raises(TypeError):
        SolverConfig(**{name: 0.1})


def test_huge_lambda_names_lambda_before_the_loop():
    # lam dk dk^T overflows to inf: the error names lam, and the overflow warning,
    # which the suite turns into an error, is not raised
    x_s, x_t = random_pair(26)
    with pytest.raises(NonFiniteError, match=r"overflows at lam = 1e\+308$"):
        fit(x_s, x_t, LINEAR, SolverConfig(lam=1e308, mu=1e-3))
