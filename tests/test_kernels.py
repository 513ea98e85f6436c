import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tsrg.errors import DimensionError, NonFiniteError
from tsrg.kernels import (AugmentedKernels, FeatureMatrix, KernelSpec,
                          build_augmented, gram_matrix, mmd)

from oracles import full_gram, kernel_eval

LINEAR = KernelSpec("linear")
GAUSS = KernelSpec("gaussian", 1.0)


def fm(arr):
    return FeatureMatrix(np.asarray(arr, dtype=float))


class TestKernelEval:
    def test_linear_orthogonal(self):
        assert kernel_eval([1, 0], [0, 1], LINEAR) == 0.0

    def test_linear_dot(self):
        assert kernel_eval([1, 2], [3, 4], LINEAR) == 11.0

    def test_gaussian_self_is_one(self):
        x = np.array([0.3, -1.2, 7.0])
        for bw in (0.1, 1.0, 25.0):
            assert kernel_eval(x, x, KernelSpec("gaussian", bw)) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            for spec in (LINEAR, GAUSS):
                assert kernel_eval(x, y, spec) == pytest.approx(kernel_eval(y, x, spec), abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            kernel_eval([1, 2], [1, 2, 3], LINEAR)


class TestGramMatrix:
    def test_identity_columns(self):
        a = fm(np.eye(2))
        assert np.array_equal(gram_matrix(a, a, LINEAR), np.eye(2))

    def test_transpose_relation(self):
        rng = np.random.default_rng(0)
        a, b = fm(rng.standard_normal((3, 4))), fm(rng.standard_normal((3, 5)))
        for spec in (LINEAR, GAUSS):
            np.testing.assert_allclose(gram_matrix(a, b, spec), gram_matrix(b, a, spec).T,
                                       atol=1e-12)

    def test_gaussian_range(self):
        rng = np.random.default_rng(1)
        a = fm(rng.standard_normal((3, 5)))
        g = gram_matrix(a, a, GAUSS)
        np.testing.assert_allclose(np.diag(g), 1.0)
        assert np.all(g > 0) and np.all(g <= 1)

    def test_entries_match_kernel_eval(self):
        rng = np.random.default_rng(2)
        a, b = fm(rng.standard_normal((3, 4))), fm(rng.standard_normal((3, 2)))
        for spec in (LINEAR, GAUSS):
            g = gram_matrix(a, b, spec)
            for i in range(4):
                for j in range(2):
                    assert g[i, j] == pytest.approx(
                        kernel_eval(a.data[:, i], b.data[:, j], spec), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            gram_matrix(fm(np.ones((2, 3))), fm(np.ones((3, 3))), LINEAR)


class TestBuildAugmented:
    def test_identical_inputs_zero_delta(self):
        rng = np.random.default_rng(4)
        x = fm(rng.standard_normal((3, 6)))
        ak = build_augmented(x, x, LINEAR)
        np.testing.assert_allclose(ak.delta_k, 0.0, atol=1e-12)

    def test_hand_computed_singletons(self):
        # x_s = (1,0), x_t = (0,1): pooled linear Gram is the 2x2 identity,
        # so k_s = (1,0)^T, k_t = (0,1)^T and delta = (1,-1)
        ak = build_augmented(fm([[1], [0]]), fm([[0], [1]]), LINEAR)
        np.testing.assert_allclose(ak.k_s, [[1.0], [0.0]])
        np.testing.assert_allclose(ak.k_t, [[0.0], [1.0]])
        np.testing.assert_allclose(ak.delta_k, [1.0, -1.0])

    def test_shapes(self):
        rng = np.random.default_rng(5)
        ak = build_augmented(fm(rng.standard_normal((4, 7))),
                             fm(rng.standard_normal((4, 5))), LINEAR)
        assert ak.k_s.shape == (12, 7)
        assert ak.k_t.shape == (12, 5)
        assert ak.delta_k.shape == (12,)

    @pytest.mark.parametrize("spec", [LINEAR, GAUSS], ids=["linear", "gaussian"])
    def test_blocks_match_gram_calls(self, spec):
        rng = np.random.default_rng(6)
        x_s, x_t = fm(rng.standard_normal((3, 4))), fm(rng.standard_normal((3, 5)))
        ak = build_augmented(x_s, x_t, spec)
        np.testing.assert_allclose(ak.k_s[:4], gram_matrix(x_s, x_s, spec), atol=1e-12)
        np.testing.assert_allclose(ak.k_s[4:], gram_matrix(x_t, x_s, spec), atol=1e-12)
        np.testing.assert_allclose(ak.k_t[:4], gram_matrix(x_s, x_t, spec), atol=1e-12)
        np.testing.assert_allclose(ak.k_t[4:], gram_matrix(x_t, x_t, spec), atol=1e-12)

    def test_delta_is_block_mean_difference(self):
        rng = np.random.default_rng(7)
        x_s, x_t = fm(rng.standard_normal((2, 3))), fm(rng.standard_normal((2, 4)))
        ak = build_augmented(x_s, x_t, GAUSS)
        expected = ak.k_s @ np.ones(3) / 3 - ak.k_t @ np.ones(4) / 4
        np.testing.assert_allclose(ak.delta_k, expected, atol=1e-14)

    @pytest.mark.parametrize("spec", [LINEAR, GAUSS], ids=["linear", "gaussian"])
    def test_full_gram_symmetric_psd(self, spec):
        rng = np.random.default_rng(8)
        ak = build_augmented(fm(rng.standard_normal((4, 6))),
                             fm(rng.standard_normal((4, 5))), spec)
        full = full_gram(ak)
        assert np.max(np.abs(full - full.T)) < 1e-10
        eigs = np.linalg.eigvalsh(full)
        assert eigs.min() >= -1e-8 * eigs.max()

    @pytest.mark.parametrize("kind", ["linear", "gaussian"])
    @pytest.mark.parametrize("d, n_s, n_t", [(20, 60, 60), (3717, 148, 164)],
                             ids=["desk", "lbp"])
    def test_cross_blocks_are_exact_transposes(self, kind, d, n_s, n_t):
        # the pooled Gram is one array times its own transpose, symmetric bit for bit
        rng = np.random.default_rng(9)
        x_s, x_t = fm(rng.random((d, n_s))), fm(rng.random((d, n_t)) + 0.1)
        ak = build_augmented(x_s, x_t, KernelSpec(kind).resolved(x_s, x_t))
        assert np.array_equal(ak.k_s[n_s:], ak.k_t[:n_s].T)
        full = np.hstack([ak.k_s, ak.k_t])
        assert np.array_equal(full, full.T)

    def test_unresolved_bandwidth_rejected(self):
        x = fm(np.eye(3))
        with pytest.raises(ValueError, match=r"^gaussian bandwidth unresolved; "
                                             r"call spec\.resolved\(\.\.\.\) first$"):
            build_augmented(x, x, KernelSpec("gaussian"))

    def test_bad_row_count_rejected(self):
        with pytest.raises(DimensionError):
            AugmentedKernels(k_s=np.ones((3, 2)), k_t=np.ones((3, 2)))


class TestMmd:
    def test_identical_sets(self):
        rng = np.random.default_rng(9)
        x = fm(rng.standard_normal((4, 8)))
        for spec in (LINEAR, GAUSS):
            assert mmd(x, x, spec) <= 1e-10

    def test_linear_singletons_is_distance(self):
        assert mmd(fm([[0], [0]]), fm([[3], [4]]), LINEAR) == pytest.approx(5.0)

    def test_gaussian_brute_force(self):
        rng = np.random.default_rng(10)
        x_s, x_t = fm(rng.standard_normal((3, 2))), fm(rng.standard_normal((3, 2)))
        # independent double-sum oracle over all kernel pairs
        total = 0.0
        for a, sign in ((x_s, 1), (x_t, 1)):
            for i in range(a.n):
                for j in range(a.n):
                    total += kernel_eval(a.data[:, i], a.data[:, j], GAUSS) / a.n ** 2
        for i in range(x_s.n):
            for j in range(x_t.n):
                total -= 2 * kernel_eval(x_s.data[:, i], x_t.data[:, j], GAUSS) / (x_s.n * x_t.n)
        assert mmd(x_s, x_t, GAUSS) == pytest.approx(np.sqrt(max(total, 0.0)), abs=1e-10)

    def test_median_heuristic_resolution(self):
        rng = np.random.default_rng(11)
        x_s, x_t = fm(rng.standard_normal((3, 5))), fm(rng.standard_normal((3, 5)))
        spec = KernelSpec("gaussian").resolved(x_s, x_t)
        assert spec.bandwidth is not None and spec.bandwidth > 0

    def test_median_heuristic_falls_back_to_one_on_coincident_samples(self):
        x = fm(np.full((3, 4), 2.5))
        assert KernelSpec("gaussian").resolved(x, x) == KernelSpec("gaussian", 1.0)


@pytest.mark.parametrize("bandwidth", [np.nan, 0.0, -1.0])
def test_gaussian_bandwidth_must_be_positive(bandwidth):
    with pytest.raises(ValueError, match="^gaussian bandwidth must be > 0$"):
        KernelSpec("gaussian", bandwidth)


@pytest.mark.parametrize("bandwidth", [-3.0, 1.0, np.nan])
def test_linear_kernel_takes_no_bandwidth(bandwidth):
    # the linear Gram matrix never reads a bandwidth, so one is a mistake
    with pytest.raises(ValueError, match="^bandwidth applies to the gaussian kernel only$"):
        KernelSpec("linear", bandwidth)


def test_gaussian_bandwidth_must_be_finite():
    # an infinite bandwidth makes every kernel value 1
    with pytest.raises(ValueError, match="^gaussian bandwidth must be finite$"):
        KernelSpec("gaussian", np.inf)


@pytest.mark.parametrize("bandwidth", [1e200, 9.5e153, 1e-170, 1.1e-162])
def test_gaussian_bandwidth_must_keep_its_divisor_positive_and_finite(bandwidth):
    # 2 * sigma**2 overflows to inf (a constant kernel) or underflows to 0
    # (a 0/0 = NaN Gram diagonal)
    with pytest.raises(ValueError, match=r"^gaussian bandwidth must keep 2 \* bandwidth\*\*2 "
                                         r"positive and finite$"):
        KernelSpec("gaussian", bandwidth)


@pytest.mark.parametrize("bandwidth", [9.4e153, 1.2e-162])
def test_gaussian_bandwidth_range_ends_are_accepted(bandwidth):
    assert KernelSpec("gaussian", bandwidth).bandwidth == bandwidth


# squared norms of columns this large overflow, so _sq_dists meets inf - inf
HUGE = np.random.default_rng(13).standard_normal((5, 8)) * 1e200


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("spec", [GAUSS], ids=["gaussian"])
def test_mmd_of_overflowing_samples_raises(spec):
    with pytest.raises(NonFiniteError, match="^squared MMD is (nan|inf)$"):
        mmd(fm(HUGE[:, :4]), fm(HUGE[:, 4:]), spec)


def test_linear_mmd_of_huge_samples_is_finite():
    # the squared distance overflows, the distance (about 1.6e200) does not
    x_s, x_t = fm(HUGE[:, :4]), fm(HUGE[:, 4:])
    delta = HUGE[:, :4].mean(axis=1) - HUGE[:, 4:].mean(axis=1)
    with np.errstate(over="ignore"):
        assert float(delta @ delta) == math.inf  # so mmd takes its rescaling path
    scaled = (HUGE[:, :4] / 1e200).mean(axis=1) - (HUGE[:, 4:] / 1e200).mean(axis=1)
    assert mmd(x_s, x_t, LINEAR) == pytest.approx(1e200 * np.linalg.norm(scaled), rel=1e-14)


def test_linear_mmd_raises_when_the_distance_overflows():
    x_s, x_t = fm(np.full((2, 1), 7.5e307)), fm(np.full((2, 1), -7.5e307))
    with pytest.raises(NonFiniteError, match="^squared MMD is inf$"):
        mmd(x_s, x_t, LINEAR)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_median_heuristic_of_overflowing_samples_raises():
    with pytest.raises(NonFiniteError, match="^the median heuristic gave gaussian bandwidth nan"):
        KernelSpec("gaussian").resolved(fm(HUGE[:, :4]), fm(HUGE[:, 4:]))


finite_mats = arrays(
    dtype=np.float64, shape=st.tuples(st.integers(1, 4), st.integers(1, 6)),
    elements=st.floats(-10, 10, allow_nan=False),
)


# Each pinned pair is a set and its column-reversed copy: equal mean
# embeddings, where m_ss + m_tt - 2 m_st cancels to rounding noise unless the
# estimator avoids that form or sums each Gram block exactly.
PERMUTED_LINEAR_4D = np.array([[-2.56, 5.32], [-7.96, -8.99], [-6.73, -9.76], [3.78, 7.47]])
PERMUTED_LINEAR_3D = np.array([[9.02, 9.5], [6.32, 5.42], [2.76, 4.89]])
PERMUTED_GAUSSIAN_1D = np.array([[-1.104, -1.002, 6.486]])


@settings(max_examples=40, deadline=None)
@given(finite_mats, finite_mats, st.sampled_from(["linear", "gaussian"]))
@example(PERMUTED_LINEAR_3D, PERMUTED_LINEAR_3D[:, ::-1], "linear")
@example(PERMUTED_GAUSSIAN_1D, PERMUTED_GAUSSIAN_1D[:, ::-1], "gaussian")
def test_mmd_symmetry_property(a, b, kind):
    if a.shape[0] != b.shape[0]:
        b = np.resize(b, (a.shape[0], b.shape[1]))
    spec = KernelSpec(kind, 1.0 if kind == "gaussian" else None)
    fa, fb = FeatureMatrix(a), FeatureMatrix(b)
    assert abs(mmd(fa, fb, spec) - mmd(fb, fa, spec)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(finite_mats)
def test_mmd_self_property(a):
    fa = FeatureMatrix(a)
    assert mmd(fa, fa, LINEAR) <= 1e-8
    assert mmd(fa, fa, GAUSS) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(finite_mats, finite_mats)
@example(PERMUTED_LINEAR_4D, PERMUTED_LINEAR_4D[:, ::-1])
def test_linear_mmd_equals_mean_difference_norm(a, b):
    if a.shape[0] != b.shape[0]:
        b = np.resize(b, (a.shape[0], b.shape[1]))
    fa, fb = FeatureMatrix(a), FeatureMatrix(b)
    delta = a.mean(axis=1) - b.mean(axis=1)
    assert mmd(fa, fb, LINEAR) == pytest.approx(np.linalg.norm(delta), abs=1e-9)
    assert mmd(fa, fb, LINEAR) == math.sqrt(float(delta @ delta))  # bit for bit


@settings(max_examples=40, deadline=None)
@given(finite_mats, finite_mats, st.sampled_from([None, 0.5, 3.0]))
@example(PERMUTED_GAUSSIAN_1D, PERMUTED_GAUSSIAN_1D[:, ::-1], 1.0)
def test_gaussian_mmd_is_the_root_of_exactly_summed_block_means(a, b, bandwidth):
    if a.shape[0] != b.shape[0]:
        b = np.resize(b, (a.shape[0], b.shape[1]))
    fa, fb = FeatureMatrix(a), FeatureMatrix(b)
    spec = KernelSpec("gaussian", bandwidth)
    resolved = spec.resolved(fa, fb)

    def block_mean(x, y):
        return math.fsum(gram_matrix(x, y, resolved).ravel().tolist()) / (x.n * y.n)

    sq = block_mean(fa, fa) + block_mean(fb, fb) - 2.0 * block_mean(fa, fb)
    assert mmd(fa, fb, spec) == math.sqrt(max(0.0, sq))  # bit for bit
