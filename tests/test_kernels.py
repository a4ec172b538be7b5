import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from gpqed import kernels
from gpqed.errors import InputError
from gpqed.hyperopt import hyper_names
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

    def test_points_of_more_than_two_dimensions_rejected(self):
        with pytest.raises(InputError, match="at most 2-dimensional"):
            kernels.gram(from_name("se"), np.zeros((2, 2, 1)))


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

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("name", ["exp", "matern32", "se"])
    def test_unit_variance_gram_is_the_formula(self, rng, name, p):
        # the search builds every Gram matrix at variance 1, whose multiply
        # is skipped; 40,000 entries: more than one chunk
        spec = from_name(name, lengthscale=float(rng.uniform(0.3, 3.0)))
        X = rng.uniform(-3, 3, size=(200, p))
        np.testing.assert_array_equal(GramStructure(X).gram(spec),
                                      _plain_formula(spec, X, X))

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_gram_structure_keeps_its_cache(self, rng, name):
        spec = random_kernel(rng, name)
        structure = GramStructure(rng.uniform(-3, 3, size=(200, 2)))
        # 40,000 entries: more than one chunk
        first = structure.gram(spec).copy()
        np.testing.assert_array_equal(structure.gram(spec), first)


def _plain_derivative(spec, r, K):
    """dK/dl over the whole array, in the order of operations
    GramStructure.derivative applies chunk by chunk."""
    l = spec.lengthscale
    if spec.family == "matern32":
        z = r * (SQRT3 / l)
        return K * z * z / (z + 1.0) / l
    if spec.family == "exponential":
        return K * r / (l * l)
    return K * r * r / (l * l)


class TestDerivativeInChunks:
    """The lengthscale derivative runs in place over chunks of K; every
    value is bit-equal to the whole-array expression."""

    @pytest.mark.parametrize("n", [100, 181, 182, 400],
                             ids=["below", "one_chunk", "one_over", "several"])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("name", ["exp", "matern32", "se"])
    def test_bit_equal_to_whole_array_expression(self, rng, name, p, n):
        spec = random_kernel(rng, name)
        structure = GramStructure(rng.uniform(-3, 3, size=(n, p)))
        K = structure.gram(spec)
        dist = structure._dist.copy()
        want = _plain_derivative(spec, dist, K)
        assert structure.derivative(spec, K) is K
        np.testing.assert_array_equal(K, want)
        np.testing.assert_array_equal(structure._dist, dist)

    def test_makes_no_n_by_n_array(self, rng):
        # one chunk of scratch for z, against an n x n z at n = 400
        spec = random_kernel(rng, "matern32")
        structure = GramStructure(rng.uniform(-3, 3, size=(400, 1)))
        K = structure.gram(spec)
        tracemalloc.start()
        try:
            structure.derivative(spec, K)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 400 * 400 * 8 / 4


def _one_predictor_points(rng, n, m, scale, ties):
    """n and m points on one axis at the given scale. With ties, both sets
    take values from one coarse grid, so values repeat within and across
    them; Xs also repeats the first rows of X."""
    if ties:
        grid = scale * np.linspace(-1.0, 1.0, 9)
        X, Xs = rng.choice(grid, size=(n, 1)), rng.choice(grid, size=(m, 1))
    else:
        X = rng.uniform(-scale, scale, size=(n, 1))
        Xs = rng.uniform(-scale, scale, size=(m, 1))
    Xs[:min(n, m) // 2] = X[:min(n, m) // 2]
    return X, Xs


class TestOnePredictor:
    """At p = 1 the distances and dot products are |x - x'| and x * x' by
    broadcasting, bit-equal to cdist and X @ Xs.T, through cross and
    GramStructure.gram alike."""

    @pytest.mark.parametrize("ties", [False, True], ids=["spread", "ties"])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("n, m", [(1, 1), (2, 7), (33, 5), (100, 200),
                                      (400, 200)])
    def test_bit_equal_to_cdist_and_matmul(self, rng, n, m, scale, ties):
        X, Xs = _one_predictor_points(rng, n, m, scale, ties)
        for name in ALL_FAMILY_NAMES:
            spec = random_kernel(rng, name)
            if spec.stationary:
                pairs, dense = cdist(X, Xs), cdist(X, X)
                want = kernels._stationary_from_r(spec, pairs)
            else:
                pairs, dense = X @ Xs.T, X @ X.T
                want = kernels._linear_from_dot(spec, pairs)
            np.testing.assert_array_equal(
                kernels._pairwise(spec.stationary, X, Xs), pairs)
            np.testing.assert_array_equal(kernels.cross(spec, X, Xs), want)
            structure = GramStructure(X)
            K = structure.gram(spec)
            cached = structure._dist if spec.stationary else structure._dots
            np.testing.assert_array_equal(cached, dense)
            np.testing.assert_array_equal(
                K, kernels._stationary_from_r(spec, cached)
                if spec.stationary else kernels._linear_from_dot(spec, cached))

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_cross_makes_one_n_by_m_array(self, rng, name):
        # n x m distances with abs in place, against a second array from an
        # abs that allocates; matern32 adds one chunk of scratch
        spec = random_kernel(rng, name)
        n, m = 400, 200
        X, Xs = rng.uniform(-3, 3, size=(n, 1)), rng.uniform(-3, 3, size=(m, 1))
        scratch = kernels._CHUNK * 8 if name == "matern32" else 0
        tracemalloc.start()
        try:
            kernels.cross(spec, X, Xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * n * m * 8 + scratch


class TestNumHyperparameters:
    """Every family has two free kernel hyperparameters; BIC's k adds the
    noise variance."""

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_counts(self, name):
        names = hyper_names(from_name(name))
        assert len(names) == 3 and names[-1] == "noise_variance"


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

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), True],
                             ids=["inf", "nan", "true"])
    @pytest.mark.parametrize("name, field", [
        ("se", "variance"), ("se", "lengthscale"), ("linear", "variance"),
        ("linear", "offset")])
    def test_rejects_a_value_that_is_not_a_finite_number(self, name, field,
                                                         value):
        with pytest.raises(InputError,
                           match=f"{field} must be a finite number"):
            from_name(name, **{field: value})

    @pytest.mark.parametrize("fields, message", [
        ({"family": "periodic"}, "unknown kernel family"),
        ({"family": "matern32", "offset": 1.0}, "offset only applies"),
        ({"family": "linear", "lengthscale": 1.0}, "has no lengthscale"),
    ], ids=["unknown-family", "stationary-offset", "linear-lengthscale"])
    def test_rejects_a_field_the_family_does_not_take(self, fields, message):
        with pytest.raises(InputError, match=message):
            KernelSpec(**fields)

    def test_unknown_name(self):
        with pytest.raises(InputError):
            from_name("periodic")

    @pytest.mark.parametrize("name", [3, None, ["exp"]],
                             ids=["int", "None", "list"])
    def test_name_that_is_not_a_string_is_unknown(self, name):
        # str.strip is not called on it: that raised an untyped AttributeError
        message = f"unknown kernel name {name!r}; valid: "
        with pytest.raises(InputError, match="^" + re.escape(message)):
            from_name(name)

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
        # 200 points span two chunks of the kernel formula
        for n in (6, 200):
            for name in ALL_FAMILY_NAMES:
                k = random_kernel(rng, name)
                X = rng.uniform(-2, 2, size=(n, 1))
                s = kernels.GramStructure(X)
                np.testing.assert_array_equal(s.gram(k), kernels.gram(k, X))
                # second call reuses the cache
                np.testing.assert_array_equal(s.gram(k), kernels.gram(k, X))


class TestExactlySymmetric:
    """The pairs of a point set with itself, and so every Gram matrix, are
    exactly symmetric as made (kernels module docstring)."""

    @pytest.mark.parametrize("ties", [False, True], ids=["spread", "ties"])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_pairwise(self, rng, p, scale, ties):
        # 300 points span several chunks of the kernel formula
        for n in (7, 100, 300):
            if ties:
                X = rng.choice(scale * np.linspace(-1.0, 1.0, 9), size=(n, p))
            else:
                X = rng.uniform(-scale, scale, size=(n, p))
            for stationary in (True, False):
                d = kernels._pairwise(stationary, X, X)
                np.testing.assert_array_equal(d, d.T)

    @pytest.mark.parametrize("layout", ["fortran", "column-slice", "strided",
                                        "integer"])
    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_gram_for_any_layout(self, rng, name, layout):
        # numpy multiplies two copies of X, or a strided X it copies for
        # BLAS, by dgemm, which is not symmetric; integers up to 1e9 have
        # products that round
        base = rng.uniform(-1.0, 1.0, size=(300, 6))
        X = {"fortran": np.asfortranarray(base[:, :3]),
             "column-slice": base[:, 1:4],
             "strided": base[:, ::2],
             "integer": rng.integers(-10**9, 10**9, size=(300, 3))}[layout]
        spec = random_kernel(rng, name)
        K = kernels.gram(spec, X)
        np.testing.assert_array_equal(K, K.T)
        np.testing.assert_array_equal(GramStructure(X).gram(spec), K)


class TestGramMemory:
    """At n = 400 the first GramStructure.gram call makes the pairs it
    caches and the Gram matrix, and kernels.gram only the Gram matrix; each
    n x n array is n^2 8 bytes, and matern32 adds one chunk of scratch
    (0.2 of that here)."""

    N = 400

    def _peak(self, build) -> float:
        tracemalloc.start()
        try:
            build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (self.N * self.N * 8)

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_structure_makes_two_n_by_n_arrays(self, rng, name, p):
        spec = random_kernel(rng, name)
        structure = GramStructure(rng.uniform(-3, 3, size=(self.N, p)))
        assert self._peak(lambda: structure.gram(spec)) < 2.25

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_gram_makes_one_n_by_n_array(self, rng, name, p):
        spec = random_kernel(rng, name)
        X = rng.uniform(-3, 3, size=(self.N, p))
        assert self._peak(lambda: kernels.gram(spec, X)) < 1.25


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
