"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""
import time

import numpy as np

from tsrg.data import DatasetManifest, ManifestEntry, SynthSpec, \
    apply_label_map, synth_generate, write_dataset_csv
from tsrg.experiment import ExperimentConfig, grid_search
from tsrg.kernels import FeatureMatrix, KernelSpec, build_augmented, mmd
from tsrg.lbptop import LbpTopParams, VideoClip, extract, uniform_lut
from tsrg.metrics import EvalReport
from tsrg.solver import SolverConfig, fit, regenerate, update_p

from oracles import fg_residual, kernel_eval, objective, update_q

LINEAR = KernelSpec("linear")
GAUSS = KernelSpec("gaussian", 1.0)

# mu = 0 is plain least squares, which fit solves exactly
EXACT_CFG = SolverConfig(lam=0.0, mu=0.0)


def ok(n, text):
    print(f"PASS criterion {n}: {text}")


def random_pair(seed, d, n_s, n_t):
    rng = np.random.default_rng(seed)
    return (FeatureMatrix(rng.standard_normal((d, n_s))),
            FeatureMatrix(rng.standard_normal((d, n_t))))


def test_criterion_1_source_self_reconstruction():
    x_s, x_t = random_pair(0, d=5, n_s=10, n_t=10)
    start = time.perf_counter()
    model, trace = fit(x_s, x_t, LINEAR, EXACT_CFG)
    regen = regenerate(model, x_s)
    elapsed = time.perf_counter() - start
    rel = np.linalg.norm(x_s.data - regen.data) / np.linalg.norm(x_s.data)
    assert trace.converged
    assert rel < 1e-6, f"relative reconstruction error {rel:.3g}"
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    ok(1, f"source self-reconstruction rel error {rel:.2e} in {elapsed * 1e3:.1f} ms")


def test_criterion_2_least_squares_oracle():
    worst = 0.0
    for seed in range(20):
        x_s, x_t = random_pair(100 + seed, d=4, n_s=7, n_t=6)
        model, _ = fit(x_s, x_t, LINEAR, EXACT_CFG)
        ak = build_augmented(x_s, x_t, LINEAR)
        oracle = np.linalg.pinv(ak.k_s @ ak.k_s.T) @ (ak.k_s @ x_s.data.T)
        rel = np.linalg.norm(model.p - oracle) / np.linalg.norm(oracle)
        worst = max(worst, rel)
        assert rel < 1e-5, f"seed {seed}: relative distance {rel:.3g}"
    ok(2, f"fitted P matches normal-equations oracle on 20 toys (worst {worst:.2e})")


def test_criterion_3_proximal_grid_search_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        v = rng.uniform(-2.0, 2.0)
        tau = rng.uniform(0.0, 1.5)
        # two-stage grid search (valid for this convex scalar objective):
        # coarse pass at 1e-3, then a 1e-6-step refinement around the best
        def cost(g):
            return tau * np.abs(g) + 0.5 * (g - v) ** 2
        coarse = np.arange(-2 * abs(v) - 1e-3, 2 * abs(v) + 1e-3, 1e-3)
        c_best = coarse[np.argmin(cost(coarse))]
        fine = np.arange(c_best - 2e-3, c_best + 2e-3, 1e-6)
        best = fine[np.argmin(cost(fine))]
        got = update_p(np.array([[v]]), np.zeros((1, 1)), kappa=1.0, mu=tau)[0, 0]
        worst = max(worst, abs(got - best))
        assert abs(got - best) < 2e-6
    ok(3, f"soft-threshold matches grid-search oracle on 1000 pairs (worst {worst:.2e})")


def test_criterion_4_q_update_stationarity():
    def smooth(q, x_s, ak, lam, p, t, kappa):
        resid = x_s.data - q.T @ ak.k_s
        g = q.T @ ak.delta_k
        return (np.sum(resid ** 2) + lam * np.dot(g, g)
                + np.sum(t * (p - q)) + kappa / 2 * np.sum((p - q) ** 2))

    worst = 0.0
    for lam in (0.0, 0.1, 1.0, 10.0):
        for seed in (0, 1):
            x_s, x_t = random_pair(200 + seed, d=4, n_s=4, n_t=4)
            ak = build_augmented(x_s, x_t, LINEAR)
            rng = np.random.default_rng(300 + seed)
            p = rng.standard_normal((8, 4))
            t = rng.standard_normal((8, 4))
            kappa = 1.7
            q_star = update_q(p, t, kappa, x_s, ak, lam)
            h = 1e-5
            grad = np.zeros_like(q_star)
            for idx in np.ndindex(q_star.shape):
                qp, qm = q_star.copy(), q_star.copy()
                qp[idx] += h
                qm[idx] -= h
                grad[idx] = (smooth(qp, x_s, ak, lam, p, t, kappa)
                             - smooth(qm, x_s, ak, lam, p, t, kappa)) / (2 * h)
            gmax = np.max(np.abs(grad))
            worst = max(worst, gmax)
            assert gmax < 1e-4 * (1 + kappa), f"lam={lam}: |grad|max {gmax:.3g}"
    ok(4, f"Q-update stationary for lam in {{0,0.1,1,10}} (worst |grad| {worst:.2e})")


BENCH_OFFSET = np.zeros(20)
BENCH_OFFSET[0] = 3.0
BENCH_OFFSET[1] = 3.0


def bench_spec(seed):
    # 3 Gaussian classes in d=20, 60 source + 60 target samples, target
    # translated by 3 sigma along two axes
    return SynthSpec(classes=3, dim=20, n_source_per_class=20,
                     n_target_per_class=20, shift_offset=BENCH_OFFSET,
                     center_spread=3.5, cov_scale=1.0, seed=seed)


def test_criterion_5_convergence_on_fixtures():
    fixtures = [random_pair(400 + s, d=4, n_s=6, n_t=6) for s in range(3)]
    for seed in range(3):
        src, tgt = synth_generate(bench_spec(seed))
        fixtures.append((src.features, tgt.features))
    for lam, mu in ((1.0, 0.01), (10.0, 1e-3)):
        cfg = SolverConfig(lam=lam, mu=mu)
        for x_s, x_t in fixtures:
            model, trace = fit(x_s, x_t, LINEAR, cfg)
            assert trace.converged, "did not reach epsilon within 500 iterations"
            assert trace.records[-1].feasibility < 1e-7
            ak = build_augmented(x_s, x_t, LINEAR)
            assert objective(model.p, x_s, ak, lam, mu) <= np.sum(x_s.data ** 2)
    ok(5, "solver converged below 1e-7 within 500 iterations on all fixtures")


def test_criterion_6_mmd_identities():
    rng = np.random.default_rng(8)
    for spec in (LINEAR, GAUSS):
        for _ in range(10):
            a = FeatureMatrix(rng.standard_normal((4, 6)))
            b = FeatureMatrix(rng.standard_normal((4, 5)))
            assert mmd(a, a, spec) <= 1e-8
            assert abs(mmd(a, b, spec) - mmd(b, a, spec)) < 1e-10
    for _ in range(10):
        a = FeatureMatrix(rng.standard_normal((3, 8)))
        b = FeatureMatrix(rng.standard_normal((3, 5)))
        mean_diff = np.linalg.norm(a.data.mean(axis=1) - b.data.mean(axis=1))
        assert abs(mmd(a, b, LINEAR) - mean_diff) < 1e-9
    for _ in range(5):
        a = FeatureMatrix(rng.standard_normal((3, 9)))
        b = FeatureMatrix(rng.standard_normal((3, 10)))
        total = 0.0
        for m in (a, b):
            for i in range(m.n):
                for j in range(m.n):
                    total += kernel_eval(m.data[:, i], m.data[:, j], GAUSS) / m.n ** 2
        for i in range(a.n):
            for j in range(b.n):
                total -= 2 * kernel_eval(a.data[:, i], b.data[:, j], GAUSS) / (a.n * b.n)
        brute = np.sqrt(max(total, 0.0))
        assert abs(mmd(a, b, GAUSS) - brute) < 1e-10
    ok(6, "MMD self/symmetry/linear-mean/brute-force identities hold")


def test_criterion_7_degenerate_mean_gap():
    from tsrg.kernels import AugmentedKernels
    x_s, _ = random_pair(9, d=4, n_s=6, n_t=6)
    # identical Gram blocks make the mean-embedding gap exactly zero
    pooled = build_augmented(x_s, x_s, LINEAR)
    ak = AugmentedKernels(k_s=pooled.k_s, k_t=pooled.k_s)
    assert np.all(ak.delta_k == 0.0)
    model, _ = fit(x_s, x_s, LINEAR, SolverConfig(lam=1.0, mu=0.01))
    rng = np.random.default_rng(10)
    for _ in range(50):
        randomized = type(model)(p=rng.standard_normal(model.p.shape),
                                 x_s=model.x_s, x_t=model.x_t, kernel=model.kernel,
                                 config=model.config)
        assert fg_residual(randomized, ak) == 0.0
    ok(7, "identical domains give exactly zero regenerated mean gap for 50 random P")


def test_criterion_8_synthetic_benchmark():
    start = time.perf_counter()
    improvements, ratios = [], []
    for seed in range(20):
        source, target = synth_generate(bench_spec(seed))
        config = ExperimentConfig(kernel=LINEAR, solver=SolverConfig())
        rows = grid_search(source, target, config, [1.0, 10.0, 100.0], [1e-3, 1e-2])
        best = next(r for r in rows if r.best)
        improvements.append(best.result.tsrg.uar - best.result.baseline.uar)
        ratios.append(best.result.mmd_after / best.result.mmd_before)
    elapsed = time.perf_counter() - start
    med_imp = float(np.median(improvements))
    med_ratio = float(np.median(ratios))
    assert med_imp >= 0.10, f"median UAR improvement {med_imp:.3f}"
    assert med_ratio <= 0.5, f"median mmd ratio {med_ratio:.3f}"
    assert elapsed < 120.0, f"benchmark took {elapsed:.1f}s"
    ok(8, f"benchmark: median UAR gain {med_imp:+.3f}, median mmd ratio "
          f"{med_ratio:.3f}, {elapsed:.1f}s for 20 seeds")


def test_criterion_9_metric_hand_cases():
    r = EvalReport(np.array([[8, 2], [3, 7]]), ("0", "1"))
    assert abs(r.war - 0.75) < 1e-12 and abs(r.uar - 0.75) < 1e-12
    r = EvalReport(np.array([[90, 10], [5, 5]]), ("0", "1"))
    assert abs(r.war - 95.0 / 110.0) < 1e-12
    assert abs(r.uar - 0.70) < 1e-12
    assert r.war > r.uar
    ok(9, "WAR/UAR reproduce both hand-computed confusion matrices")


def test_criterion_10_lbptop():
    params = LbpTopParams()
    assert params.feature_length == 15045
    lut = uniform_lut(8)
    assert len(set(lut.tolist())) == 59

    clip = VideoClip(np.full((8, 20, 20), 3.0))
    small = LbpTopParams(grids=(1, 2))
    feats = extract(clip, small).reshape(-1, 59)
    hot = lut[255]
    assert np.all(feats[:, hot] == 1.0)

    rng = np.random.default_rng(11)
    oracle_clip = VideoClip(rng.integers(0, 256, size=(9, 18, 20)).astype(float))
    counts = extract(oracle_clip, small, normalize=False).reshape(-1, 59).sum(axis=1)
    from tsrg.lbptop import _PLANES, _block_bounds
    t, h, w = oracle_clip.shape
    r = small.radius
    expected = []
    for g in small.grids:
        for r0, r1 in _block_bounds(h, g):
            for c0, c1 in _block_bounds(w, g):
                for _, axis_u, axis_v in _PLANES:
                    n = 0
                    for tt in range(t):
                        for yy in range(r0, r1):
                            for xx in range(c0, c1):
                                valid = True
                                for axis, val, lo, hi in ((0, tt, 0, t), (1, yy, r0, r1),
                                                          (2, xx, c0, c1)):
                                    if axis in (axis_u, axis_v) and not (lo + r <= val < hi - r):
                                        valid = False
                                if valid:
                                    n += 1
                    expected.append(n)
    assert np.array_equal(counts, np.array(expected, dtype=float))

    big = VideoClip(rng.integers(0, 256, size=(20, 64, 64)).astype(float))
    start = time.perf_counter()
    feats = extract(big, params)
    elapsed = time.perf_counter() - start
    assert feats.shape == (15045,)
    assert elapsed < 5.0, f"extraction took {elapsed:.2f}s"
    ok(10, f"LBP-TOP: 15045 dims, 59 bins, counts match oracle, "
           f"20x64x64 clip in {elapsed * 1e3:.0f} ms")


def test_criterion_11_label_remap_and_counts():
    mapping = {"Happiness": "Positive", "Disgust": "Negative",
               "Repression": "Negative", "Surprise": "Surprise"}
    mapped, _ = apply_label_map(["Happiness", "Disgust", "Repression", "Surprise"], mapping)
    assert mapped == ["Positive", "Negative", "Negative", "Surprise"]
    entries = []
    for label, count in (("Happiness", 32), ("Disgust", 55),
                         ("Repression", 36), ("Surprise", 25)):
        entries.extend(ManifestEntry(path=f"clip{label}{i}.raw", label=label)
                       for i in range(count))
    manifest = DatasetManifest(
        name="casme2-style", entries=tuple(entries),
        expected_counts={"Negative": 91, "Positive": 32, "Surprise": 25},
    )
    manifest.validate_counts(mapping)
    assert manifest.class_counts(mapping) == {"Negative": 91, "Positive": 32,
                                              "Surprise": 25}
    ok(11, "label remap produces validated class counts (91, 32, 25)")


def test_criterion_12_cli_determinism(run_cli, tmp_path):
    source, target = synth_generate(bench_spec(13))
    src, tgt = tmp_path / "s.csv", tmp_path / "t.csv"
    write_dataset_csv(src, source)
    write_dataset_csv(tgt, target)

    def invoke(args, out):
        proc = run_cli([*args, "--source", str(src), "--target", str(tgt),
                        "--seed", "5", "--out-dir", str(out)], tmp_path)
        assert proc.returncode == 0, proc.stderr

    pairs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        invoke(["run", "--lambda", "10", "--mu", "0.001"], out)
        pairs.append((out / "report.jsonl").read_bytes())
    assert pairs[0] == pairs[1]
    pairs = []
    for name in ("g1", "g2"):
        out = tmp_path / name
        invoke(["grid", "--lambda-grid", "1,10", "--mu-grid", "0.001,0.01"], out)
        pairs.append((out / "grid.jsonl").read_bytes())
    assert pairs[0] == pairs[1]
    ok(12, "run and grid reports are byte-identical across repeated invocations")
