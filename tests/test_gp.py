import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from gpqed import gp, kernels
from gpqed.errors import DataError, InputError, NumericalError
from gpqed.gp import Dataset, fit, log_marginal_likelihood, predict
from gpqed.kernels import from_name

from conftest import (
    ALL_FAMILY_NAMES,
    oracle_kernel,
    oracle_log_marginal_likelihood,
    oracle_predict,
    random_instance,
)


class TestDataset:
    def test_shapes(self):
        d = Dataset(np.arange(4.0), np.arange(4.0))
        assert d.n == 4 and d.p == 1

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            Dataset(np.array([0.0, np.nan]), np.array([1.0, 2.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 1)), np.zeros(2))

    def test_rejects_no_rows(self):
        with pytest.raises(DataError, match="at least one observation"):
            Dataset(np.zeros((0, 1)), np.zeros(0))


class TestFit:
    @staticmethod
    def _check_inverse_factor(f, Ky):
        # chol_inv is L^-1: it whitens Ky, and nothing lies above its
        # diagonal
        n = Ky.shape[0]
        W = f.chol_inv
        np.testing.assert_allclose(W @ Ky @ W.T, np.eye(n), rtol=1e-8,
                                   atol=1e-8)
        assert np.all(W[np.triu_indices(n, 1)] == 0.0)

    def test_single_point_cholesky(self):
        se = from_name("se", variance=2.0)
        f = fit(Dataset([0.5], [1.0]), se, noise_variance=0.3)
        assert f.chol_inv[0, 0] == 1.0 / np.sqrt(2.3)
        assert f.log_det == pytest.approx(np.log(2.3))

    def test_reconstruction(self, rng):
        data, kern, noise = random_instance(rng, n=5)
        f = fit(data, kern, noise)
        K = kernels.gram(kern, data.X) + noise * np.eye(5)
        self._check_inverse_factor(f, K)
        sign, log_det = np.linalg.slogdet(K)
        assert sign == 1.0
        assert f.log_det == pytest.approx(log_det, rel=1e-12)

    def test_keeps_cholesky_jitter(self):
        # four copies of one point: K is all ones, and noise this small
        # leaves its diagonal as it is, so only jitter makes it factorize
        data = Dataset(np.zeros(4), np.arange(4.0))
        f = fit(data, from_name("se"), noise_variance=1e-300)
        K = kernels.gram(from_name("se"), data.X)
        assert f.jitter == kernels.jittered_cholesky(K)[1] > 0
        Ky = K + f.jitter * np.eye(4)
        self._check_inverse_factor(f, Ky)
        # L, recovered from L^-1 by a triangular solve, reproduces Ky to
        # the factorization's accuracy
        L = solve_triangular(f.chol_inv, np.eye(4), lower=True)
        np.testing.assert_allclose(L @ L.T, Ky, atol=1e-12)
        # Ky's condition number is about 4e6, so a log-determinant is good
        # to about 4e6 * 2.2e-16 ~ 1e-9
        sign, log_det = np.linalg.slogdet(Ky)
        assert sign == 1.0
        assert f.log_det == pytest.approx(log_det, rel=0, abs=1e-9)
        assert fit(data, from_name("se"), noise_variance=0.1).jitter == 0.0

    def test_constant_y_zero_alpha(self):
        d = Dataset(np.linspace(0, 1, 6), np.full(6, 3.5))
        f = fit(d, from_name("se"), 0.1)
        assert f.mean_constant == pytest.approx(3.5)
        np.testing.assert_allclose(f.alpha, 0.0, atol=1e-12)

    def test_rejects_a_structure_built_for_other_points(self, rng):
        data = Dataset(rng.uniform(-1, 1, 50), rng.standard_normal(50))
        se = from_name("se")
        # points of the same count would give a wrong log-ML, and of
        # another count a misleading Cholesky failure
        for n in (50, 49):
            with pytest.raises(InputError, match="other points"):
                fit(data, se, 0.1,
                    structure=kernels.GramStructure(rng.uniform(-1, 1, n)))
        want = fit(data, se, 0.1)
        for X in (data.X, data.X.copy()):
            got = fit(data, se, 0.1, structure=kernels.GramStructure(X))
            assert (got.log_det, got.quad) == (want.log_det, want.quad)

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(InputError):
            fit(Dataset([0.0], [0.0]), from_name("se"), 0.0)

    @pytest.mark.parametrize("noise", [float("inf"), True],
                             ids=["inf", "true"])
    def test_rejects_noise_that_is_not_a_finite_number(self, noise):
        with pytest.raises(InputError,
                           match="noise variance must be a finite number"):
            fit(Dataset([0.0, 1.0], [0.0, 1.0]), from_name("se"), noise)

    def test_overflowing_covariance_is_numerical_error(self):
        # the optimizer's clip lets variance reach e^700 (about 1e304); a
        # linear kernel then overflows the Gram matrix to inf once x^2 > 1e4,
        # and no RuntimeWarning escapes on the way
        linear = from_name("linear", variance=np.exp(700.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError):
                fit(Dataset(np.linspace(200.0, 400.0, 5), np.zeros(5)),
                    linear, 0.1)


    @pytest.mark.parametrize("name", ["se", "exp"])
    def test_underflowing_gradient_is_numerical_error(self, name):
        # l * l is subnormal below l of about 1e-154 and 0 below about
        # 2e-162, where the lengthscale derivative divides 0 by 0; the
        # covariance itself factorizes
        kern = from_name(name, lengthscale=1e-170)
        data = Dataset(np.linspace(0.0, 1.0, 6), np.arange(6.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="gradient"):
                fit(data, kern, 0.1)


def _oracle_derivative(kern, X) -> np.ndarray:
    """dK/dp for kern's second parameter p (the lengthscale, or the linear
    offset), one pair of points at a time, from the closed forms of the
    kernels module docstring's formulas (z = sqrt(3) r / l for matern32)."""
    v = kern.variance
    dK = np.empty((len(X), len(X)))
    for i, x in enumerate(X):
        for j, xp in enumerate(X):
            if kern.family == "linear":
                dK[i, j] = 1.0
                continue
            r, l = float(np.linalg.norm(x - xp)), kern.lengthscale
            if kern.family == "exponential":
                dK[i, j] = v * np.exp(-r / l) * r / l ** 2
            elif kern.family == "matern32":
                z = np.sqrt(3.0) * r / l
                dK[i, j] = v * z ** 2 * np.exp(-z) / l
            else:
                dK[i, j] = v * np.exp(-r ** 2 / l) * r ** 2 / l ** 2
    return dK


class TestGradTerms:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_both_rows_match_dense_oracle(self, rng, name, p):
        # row 0 is alpha^T dKy alpha / 2 and row 1 tr(Ky^-1 dKy) / 2 for
        # the kernel's second parameter, then the noise (dKy = I); the
        # profiled objective and the scaling of its returned fits read each
        # row alone, not only their difference
        for _ in range(5):
            data, kern, noise = random_instance(rng, n=12, p=p,
                                                kernel_name=name)
            f = fit(data, kern, noise)
            Ky = np.array([[oracle_kernel(kern, a, b) for b in data.X]
                           for a in data.X]) + noise * np.eye(data.n)
            Ky_inv = np.linalg.inv(Ky)
            alpha = Ky_inv @ (data.y - f.mean_constant)
            dKs = [_oracle_derivative(kern, data.X), np.eye(data.n)]
            want = 0.5 * np.array([[alpha @ dK @ alpha for dK in dKs],
                                   [np.trace(Ky_inv @ dK) for dK in dKs]])
            # relative error 1e-10, taken against the magnitude of each
            # term's summands: it is the term itself where they share a
            # sign, and where they cancel (linear's offset data term is
            # (sum alpha)^2 / 2, near 0 when the mean constant is the mean
            # of y) rounding is relative to it, not to the sum; measured
            # at most 9e-14 of it
            magnitude = 0.5 * np.array(
                [[abs(alpha) @ abs(dK) @ abs(alpha) for dK in dKs],
                 [np.sum(abs(Ky_inv * dK)) for dK in dKs]])
            error = abs(f.grad_terms - want) / magnitude
            assert error.max() < 1e-10, error


class TestLogMarginalLikelihood:
    def test_scalar_case(self):
        # n=1, residual zero, k(x,x)=1, noise 1: -log(2)/2 - log(2*pi)/2
        f = fit(Dataset([0.0], [2.0]), from_name("se"), 1.0)
        expected = -0.5 * np.log(2.0) - 0.5 * np.log(2.0 * np.pi)
        assert log_marginal_likelihood(f) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-1.26551, abs=1e-5)

    def test_matches_dense_oracle(self, rng):
        for _ in range(25):
            data, kern, noise = random_instance(rng)
            f = fit(data, kern, noise)
            want = oracle_log_marginal_likelihood(data, kern, noise,
                                                  f.mean_constant)
            assert log_marginal_likelihood(f) == pytest.approx(want, rel=1e-8)

    def test_large_noise_iid_limit(self, rng):
        data, kern, _ = random_instance(rng, n=6)
        c = float(np.mean(data.y))
        resid = data.y - c
        prev_gap = None
        for noise in [1e2, 1e4, 1e6]:
            f = fit(data, kern, noise)
            iid = float(np.sum(
                -0.5 * resid ** 2 / noise - 0.5 * np.log(2 * np.pi * noise)))
            gap = abs(log_marginal_likelihood(f) - iid)
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap
        assert prev_gap < 1e-4

    def test_invariant_to_point_ordering(self, rng):
        data, kern, noise = random_instance(rng, n=7)
        f = fit(data, kern, noise)
        perm = rng.permutation(7)
        f2 = fit(Dataset(data.X[perm], data.y[perm]), kern, noise)
        assert log_marginal_likelihood(f) == pytest.approx(
            log_marginal_likelihood(f2), abs=1e-12)


class TestPredict:
    def test_noiseless_interpolation(self):
        d = Dataset(np.array([-1.0, 0.0, 1.0]), np.array([0.5, -0.3, 0.9]))
        f = fit(d, from_name("se"), 1e-10)
        mean, var = predict(f, d.X)
        np.testing.assert_allclose(mean, d.y, atol=1e-4)
        assert np.all(var < 1e-4)

    def test_prior_reversion_far_away(self, rng):
        data, _, noise = random_instance(rng, n=5)
        kern = from_name("se", variance=1.7, lengthscale=0.5)
        f = fit(data, kern, noise)
        mean, var = predict(f, [[data.X.max() + 20 * 0.5]])
        assert mean[0] == pytest.approx(f.mean_constant, abs=1e-4)
        assert var[0] == pytest.approx(kern.variance, abs=1e-4)

    def test_matches_conditioning_oracle(self, rng):
        for _ in range(25):
            data, kern, noise = random_instance(rng, n=5)
            Xs = rng.uniform(-3, 3, size=(3, 1))
            f = fit(data, kern, noise)
            mean, var = predict(f, Xs)
            omean, ovar = oracle_predict(data, kern, noise, f.mean_constant, Xs)
            np.testing.assert_allclose(mean, omean, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(var, np.maximum(ovar, 0.0),
                                       rtol=1e-8, atol=1e-10)

    @staticmethod
    def _predict_keeps_chol(f, Xs):
        chol_inv = f.chol_inv.copy()
        out = predict(f, Xs)
        # dtrmm only reads L^-1: the stored inverse factor is left bit-equal
        np.testing.assert_array_equal(f.chol_inv, chol_inv)
        return out

    # n = 137 recurses twice past the 64-point dtrtri leaf, with odd halves
    @pytest.mark.parametrize("m", [1, 274], ids=["m=1", "m=2n"])
    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_matches_oracle_where_inverse_recurses(self, name, m):
        rng = np.random.default_rng(137)
        data, kern, noise = random_instance(rng, n=137, p=2, kernel_name=name)
        Xs = rng.uniform(-3, 3, size=(m, 2))
        f = fit(data, kern, noise)
        mean, var = self._predict_keeps_chol(f, Xs)
        omean, ovar = oracle_predict(data, kern, noise, f.mean_constant, Xs)
        np.testing.assert_allclose(mean, omean, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(var, np.maximum(ovar, 0.0),
                                   rtol=1e-8, atol=1e-10)

    def test_matches_oracle_after_jitter(self):
        # 137 copies of 10 points and no noise to speak of: K has rank 10,
        # so only the Cholesky jitter makes it factorize
        rng = np.random.default_rng(10)
        X = rng.uniform(-3, 3, size=(10, 2))[rng.integers(0, 10, 137)]
        data = Dataset(X, rng.normal(size=137))
        kern = from_name("se", variance=1.3, lengthscale=2.0)
        f = fit(data, kern, noise_variance=1e-300)
        assert f.jitter > 0
        Xs = rng.uniform(-3, 3, size=(274, 2))
        mean, var = self._predict_keeps_chol(f, Xs)
        omean, ovar = oracle_predict(data, kern, f.noise_variance + f.jitter,
                                     f.mean_constant, Xs)
        # K + jitter I has a condition number of about 3e7, so the oracle's
        # dense inverse is good to about 1e-8 and no better
        np.testing.assert_allclose(mean, omean, rtol=1e-6, atol=1e-7)
        np.testing.assert_allclose(var, np.maximum(ovar, 0.0),
                                   rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_one_point_makes_no_n_by_n_array(self, name):
        # the fit keeps L^-1, so a query at one point costs O(n^2) time and
        # O(n) memory: its peak stays below a quarter of one n x n array
        rng = np.random.default_rng(300)
        data, kern, noise = random_instance(rng, n=300, p=2, kernel_name=name)
        f = fit(data, kern, noise)
        Xs = rng.uniform(-3, 3, size=(1, 2))
        tracemalloc.start()
        try:
            predict(f, Xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 300 * 300 * 8 / 4

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_memory_is_one_cross_covariance(self, name):
        # the n x m cross-covariance becomes V^T in place; the kernel
        # formula's chunk-sized scratch is the rest
        rng = np.random.default_rng(300)
        data, kern, noise = random_instance(rng, n=300, p=2, kernel_name=name)
        f = fit(data, kern, noise)
        Xs = rng.uniform(-3, 3, size=(2500, 2))
        tracemalloc.start()
        try:
            predict(f, Xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 300 * 2500 * 8

    def test_dimension_mismatch(self, rng):
        data, kern, noise = random_instance(rng, n=4, p=2)
        f = fit(data, kern, noise)
        with pytest.raises(InputError):
            predict(f, np.zeros((2, 1)))

    def test_variance_never_negative(self, rng):
        for _ in range(20):
            data, kern, noise = random_instance(rng)
            _, var = predict(fit(data, kern, noise),
                             rng.uniform(-3, 3, size=(4, 1)))
            assert np.all(var >= 0.0)
        # nearly noise-free with a short lengthscale, k(x, x) - |v|^2 rounds
        # below zero at some training points (by up to 5e-12 on a few of
        # these seeds), which predict clamps
        kern = from_name("se", lengthscale=0.1)
        for seed in range(20):
            draw = np.random.default_rng(seed)
            X = draw.uniform(-1.0, 1.0, size=(30, 1))
            data = Dataset(X, draw.standard_normal(30))
            _, var = predict(fit(data, kern, 1e-12), X)
            assert np.all(var >= 0.0)

    def test_observation_shrinks_variance(self, rng):
        for _ in range(20):
            data, kern, noise = random_instance(rng, n=6)
            Xs = rng.uniform(-3, 3, size=(3, 1))
            _, var_all = predict(fit(data, kern, noise), Xs)
            smaller = Dataset(data.X[:-1], data.y[:-1])
            _, var_sub = predict(fit(smaller, kern, noise,
                                     mean_constant=float(np.mean(data.y))), Xs)
            assert np.all(var_all <= var_sub + 1e-10)
