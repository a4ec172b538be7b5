import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from gpqed import kernels
from gpqed.errors import InputError
from gpqed.kernels import FAMILIES, SQRT3, GramStructure, KernelSpec, from_name

from conftest import ALL_FAMILY_NAMES, oracle_kernel, random_kernel


def _k(spec, x, xp) -> float:
    """k(x, x') for one pair of points, through kernels.cross."""
    return float(kernels.cross(spec, np.reshape(x, (1, -1)),
                               np.reshape(xp, (1, -1)))[0, 0])


# every hand-worked value holds for the package and for the oracle
POINT_PAIR = (_k, oracle_kernel)


class TestEval:
    def test_se_zero_distance_returns_variance(self):
        se = from_name("se")
        for k_of in POINT_PAIR:
            assert k_of(se, 0.0, 0.0) == 1.0

    def test_se_unit_distance(self):
        se = from_name("se", variance=1.0, lengthscale=1.0)
        for k_of in POINT_PAIR:
            assert k_of(se, 0.0, 1.0) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_polynomial_degree_one(self):
        lin = from_name("linear", variance=2.0, offset=0.5)
        for k_of in POINT_PAIR:
            assert k_of(lin, 1.0, 3.0) == pytest.approx(6.5)

    def test_matern32_zero_distance(self):
        m = from_name("matern32")
        for k_of in POINT_PAIR:
            assert k_of(m, 0.5, 0.5) == pytest.approx(1.0)

    def test_exponential_formula(self):
        e = from_name("exp", variance=1.5, lengthscale=2.0)
        for k_of in POINT_PAIR:
            assert k_of(e, 0.0, 1.0) == pytest.approx(1.5 * np.exp(-0.5))

    def test_dimension_mismatch(self):
        se = from_name("se")
        with pytest.raises(InputError):
            _k(se, [0.0, 1.0], [0.0])

    def test_stationary_diag_is_variance(self, rng):
        for name in ["exp", "matern32", "se"]:
            k = random_kernel(rng, name)
            x = rng.normal(size=3)
            for k_of in POINT_PAIR:
                assert k_of(k, x, x) == pytest.approx(k.variance)

    def test_diag_equals_pointwise_eval(self, rng):
        X = rng.normal(size=(200, 2)) * 10.0
        for k in [random_kernel(rng, name) for name in ALL_FAMILY_NAMES]:
            np.testing.assert_array_equal(
                kernels.diag(k, X), [oracle_kernel(k, x, x) for x in X])

    def test_cross_matches_pointwise_oracle(self, rng):
        X, Xs = rng.uniform(-3, 3, size=(2, 6, 2))
        for k in [random_kernel(rng, name) for name in ALL_FAMILY_NAMES]:
            np.testing.assert_allclose(
                kernels.cross(k, X, Xs),
                [[oracle_kernel(k, x, xs) for xs in Xs] for x in X],
                rtol=1e-14)


class TestGramCross:
    def test_single_point(self):
        se = from_name("se")
        np.testing.assert_allclose(kernels.gram(se, [0.0]), [[1.0]])

    def test_two_points(self):
        se = from_name("se")
        e = np.exp(-1.0)
        np.testing.assert_allclose(kernels.gram(se, [0.0, 1.0]),
                                   [[1.0, e], [e, 1.0]], rtol=1e-12)

    def test_diagonal_is_variance(self, rng):
        for name in ["exp", "matern32", "se"]:
            k = random_kernel(rng, name)
            X = rng.uniform(-3, 3, size=(7, 2))
            np.testing.assert_allclose(np.diag(kernels.gram(k, X)),
                                       k.variance, rtol=1e-12)

    def test_cross_equals_gram_on_same_points(self, rng):
        k = random_kernel(rng)
        X = rng.uniform(-2, 2, size=(5, 1))
        np.testing.assert_allclose(kernels.cross(k, X, X), kernels.gram(k, X),
                                   atol=1e-14)

    def test_cross_single_column(self):
        se = from_name("se")
        np.testing.assert_allclose(kernels.cross(se, [0.0], [1.0]),
                                   [[np.exp(-1.0)]])

    def test_cross_dimension_mismatch(self):
        se = from_name("se")
        with pytest.raises(InputError):
            kernels.cross(se, np.zeros((3, 2)), np.zeros((3, 1)))


def _plain_formula(spec, X, Xs):
    """The kernel formula over the whole array, in _stationary_from_r's
    order of operations."""
    v = spec.variance
    if spec.family == "linear":
        return v * (X @ Xs.T) + spec.offset
    r, l = cdist(X, Xs), spec.lengthscale
    if spec.family == "exponential":
        return v * np.exp(-r / l)
    if spec.family == "squared_exponential":
        return v * np.exp(-r ** 2 / l)
    z = SQRT3 * r / l
    return (z + 1.0) * v * np.exp(-z)


CHUNK = kernels._CHUNK


class TestCrossInChunks:
    """cross evaluates its formula in place over chunks of the flattened
    array; every value is bit-equal to the whole-array formula."""

    @pytest.mark.parametrize("shape", [
        (3, CHUNK // 4 - 5), (2, CHUNK // 2), (1, CHUNK + 1), (300, 2500)],
        ids=["below", "one_chunk", "one_over", "300x2500"])
    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_bit_equal_to_whole_array_formula(self, rng, name, shape):
        spec = random_kernel(rng, name)
        X = rng.uniform(-3, 3, size=(shape[0], 2))
        Xs = rng.uniform(-3, 3, size=(shape[1], 2))
        np.testing.assert_array_equal(kernels.cross(spec, X, Xs),
                                      _plain_formula(spec, X, Xs))

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_gram_structure_keeps_its_cache(self, rng, name):
        spec = random_kernel(rng, name)
        structure = GramStructure(rng.uniform(-3, 3, size=(200, 2)))
        # 40,000 entries: more than one chunk
        first = structure.gram(spec).copy()
        np.testing.assert_array_equal(structure.gram(spec), first)


class TestNumHyperparameters:
    """Every family has two free kernel hyperparameters; BIC's k adds the
    noise variance."""

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_counts(self, name):
        assert len(from_name(name).param_names()) == 2


class TestSpecValidation:
    def test_rejects_nonpositive_variance(self):
        with pytest.raises(InputError):
            KernelSpec("squared_exponential", variance=0.0)

    def test_rejects_nonpositive_lengthscale(self):
        with pytest.raises(InputError):
            KernelSpec("matern32", lengthscale=-1.0)

    def test_rejects_negative_offset(self):
        # v <x, x'> + offset is not positive semi-definite then
        with pytest.raises(InputError):
            from_name("linear", offset=-0.5)
        assert from_name("linear", offset=0.0).offset == 0.0

    def test_unknown_name(self):
        with pytest.raises(InputError):
            from_name("periodic")

    def test_one_name_per_family(self):
        # a family is named by itself or by its label, and by nothing else
        for family, label in FAMILIES.items():
            assert from_name(family).family == family
            assert from_name(label).family == family
        for name in ("poly", "polynomial", "matern", "rbf"):
            with pytest.raises(InputError, match="unknown kernel name"):
                from_name(name)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(-3, 3), xp=st.floats(-3, 3),
           name=st.sampled_from(ALL_FAMILY_NAMES), seed=st.integers(0, 2**31))
    def test_symmetry(self, x, xp, name, seed):
        k = random_kernel(np.random.default_rng(seed), name)
        assert _k(k, x, xp) == _k(k, xp, x)

    def test_psd_with_jitter(self, rng):
        for _ in range(100):
            name = rng.choice(ALL_FAMILY_NAMES)
            k = random_kernel(rng, name)
            n = int(rng.integers(1, 21))
            X = rng.uniform(-3, 3, size=(n, int(rng.integers(1, 3))))
            K = kernels.gram(k, X) + 1e-6 * np.eye(n)
            np.linalg.cholesky(K)  # raises on failure

    def test_stationarity_translation_invariance(self, rng):
        for name in ["exp", "matern32", "se"]:
            k = random_kernel(rng, name)
            for _ in range(20):
                x, xp = rng.uniform(-3, 3, size=(2, 2))
                shift = rng.normal(size=2)
                a = _k(k, x, xp)
                b = _k(k, x + shift, xp + shift)
                assert a == pytest.approx(b, abs=1e-12)

    def test_long_lengthscale_limit(self):
        for name in ["exp", "matern32", "se"]:
            k = from_name(name, variance=2.0, lengthscale=1e6)
            assert abs(_k(k, 0.0, 1.0) - 2.0) < 1e-4 * 2.0


class TestGramStructure:
    def test_matches_direct_gram(self, rng):
        for name in ALL_FAMILY_NAMES:
            k = random_kernel(rng, name)
            X = rng.uniform(-2, 2, size=(6, 1))
            s = kernels.GramStructure(X)
            np.testing.assert_allclose(s.gram(k), kernels.gram(k, X),
                                       atol=1e-14)
            # second call reuses the cache
            np.testing.assert_allclose(s.gram(k), kernels.gram(k, X),
                                       atol=1e-14)


class TestJitteredCholesky:
    def test_clean_matrix_no_jitter(self):
        K = np.array([[2.0, 0.5], [0.5, 1.0]])
        L, jitter = kernels.jittered_cholesky(K)
        assert jitter == 0.0
        np.testing.assert_allclose(L @ L.T, K, atol=1e-14)

    def test_singular_matrix_gets_jitter(self):
        K = np.ones((4, 4))
        L, jitter = kernels.jittered_cholesky(K)
        assert jitter > 0
        assert np.all(L[np.triu_indices(4, 1)] == 0.0)
        np.testing.assert_allclose(L @ L.T, K + jitter * np.eye(4), atol=1e-12)
        # the jitter went onto K's diagonal in place and came off again
        np.testing.assert_array_equal(K, np.ones((4, 4)))

    def test_indefinite_matrix_fails(self):
        K = np.diag([1.0, -5.0])
        with pytest.raises(kernels.NumericalError):
            kernels.jittered_cholesky(K)
        np.testing.assert_array_equal(K, np.diag([1.0, -5.0]))

    @pytest.mark.parametrize("entry, value", [((1, 1), np.inf),
                                              ((0, 2), np.nan)],
                             ids=["inf-diagonal", "nan-off-diagonal"])
    def test_non_finite_entry_fails_and_leaves_k(self, entry, value):
        K = np.eye(3) + 0.25
        K[entry] = K[entry[::-1]] = value
        before = K.copy()
        with pytest.raises(kernels.NumericalError, match="non-finite"):
            kernels.jittered_cholesky(K)
        np.testing.assert_array_equal(K, before)

    def test_factor_is_lower_triangular(self, rng):
        X = rng.uniform(-2.0, 2.0, size=(30, 2))
        K = kernels.gram(from_name("matern32", lengthscale=0.8), X)
        K.flat[::31] += 0.1
        L, jitter = kernels.jittered_cholesky(K)
        assert jitter == 0.0
        assert np.all(L[np.triu_indices(30, 1)] == 0.0)
        assert np.all(np.diag(L) > 0)
        np.testing.assert_allclose(L @ L.T, K, rtol=0, atol=1e-13)


class TestCholeskyInverse:
    @staticmethod
    def _factor(n):
        X = np.random.default_rng(n).uniform(-2.0, 2.0, size=(n, 1))
        K = kernels.gram(from_name("matern32", lengthscale=0.8), X)
        K.flat[::n + 1] += 0.1
        return kernels.jittered_cholesky(K)[0]

    # 64 is one dtrtri leaf; 65, 129 and 400 recurse, with odd halves
    @pytest.mark.parametrize("n", [1, 2, 64, 65, 129, 400])
    def test_matches_dense_inverse(self, n):
        L = self._factor(n)
        dense = np.tril(np.linalg.inv(L @ L.T))
        dense_lower = np.linalg.inv(L)
        inv = kernels.cholesky_inverse(L)
        assert inv.shape == (n, n) and inv.flags.f_contiguous
        assert np.all(inv[np.triu_indices(n, 1)] == 0.0)
        np.testing.assert_allclose(inv, dense, rtol=0,
                                   atol=1e-10 * np.abs(dense).max())
        # L is overwritten with L^-1, in memory apart from the returned K^-1
        assert L.flags.f_contiguous and not np.shares_memory(L, inv)
        assert np.all(L[np.triu_indices(n, 1)] == 0.0)
        np.testing.assert_allclose(L, dense_lower, rtol=0,
                                   atol=1e-10 * np.abs(dense_lower).max())

    # a zero pivot in the first leaf, in a leaf of the lower half, and in a
    # factor too small to recurse
    @pytest.mark.parametrize("n, i", [(129, 0), (129, 100), (3, 2)])
    def test_zero_on_diagonal_fails(self, n, i):
        L = self._factor(n)
        L[i, i] = 0.0
        with pytest.raises(kernels.NumericalError):
            kernels.cholesky_inverse(L)
