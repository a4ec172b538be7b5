import math

import numpy as np
import pytest

from gpqed import hyperopt, inference, sim
from gpqed.errors import InputError, NumericalError, OptimizationError
from gpqed.gp import Dataset
from gpqed.hyperopt import (
    OptConfig,
    default_init,
    hyper_names,
    kernel_and_noise,
    optimize,
)
from gpqed.kernels import from_name


def _flatten_prior(monkeypatch):
    # a Gamma with vanishing shape and rate is flat in log space once the
    # log-Jacobian is added
    monkeypatch.setattr(hyperopt, "GAMMA_SHAPE", 1e-9)
    monkeypatch.setattr(hyperopt, "GAMMA_RATE", 1e-9)


@pytest.fixture
def flat_prior(monkeypatch):
    _flatten_prior(monkeypatch)


class TestHyperVector:
    def test_rejects_nonpositive_constrained(self):
        for bad in (-1.0, 0.0, float("nan")):
            with pytest.raises(InputError):
                optimize(lambda theta: (0.0, np.zeros(2)),
                         np.array([1.0, bad]), OptConfig(restarts=1))

    def test_roundtrip_with_kernel(self):
        k = from_name("se", variance=2.0, lengthscale=0.7)
        assert hyper_names(k) == ["variance", "lengthscale", "noise_variance"]
        theta = np.array([getattr(k, name) for name in k.param_names()] + [0.3])
        k2, noise = kernel_and_noise(from_name("se"), theta)
        assert k2 == k and noise == 0.3

    def test_length_is_model_k(self):
        k = from_name("linear")
        assert len(hyper_names(k)) == len(k.param_names()) + 1


class TestPriors:
    def test_gamma_log_density_at_one(self):
        expected = 0.01 * math.log(0.01) - math.lgamma(0.01) - 0.01
        assert hyperopt.log_prior(np.array([1.0])) == \
            pytest.approx(expected, rel=1e-12)


class TestOptimize:
    def test_quadratic_maximum(self, flat_prior):
        res = optimize(lambda theta: (-((theta[0] - 2.0) ** 2),
                                      np.array([-2.0 * (theta[0] - 2.0)])),
                       np.array([0.5]), OptConfig(restarts=1, seed=0))
        assert res.theta_hat[0] == pytest.approx(2.0, abs=1e-4)
        assert res.converged

    def test_deterministic_across_runs(self, flat_prior):
        init = np.array([1.0, 0.3])

        def obj(theta):
            value = -((math.log(theta[0]) - 1.0) ** 2 + (theta[1] - 2) ** 2)
            return value, np.array([-2.0 * (math.log(theta[0]) - 1.0) / theta[0],
                                    -2.0 * (theta[1] - 2)])

        r1 = optimize(obj, init, OptConfig(restarts=4, seed=7))
        r2 = optimize(obj, init, OptConfig(restarts=4, seed=7))
        assert r1.theta_hat.tolist() == r2.theta_hat.tolist()
        assert r1.objective_value == r2.objective_value

    def test_monotone_improvement(self, flat_prior):
        init = np.array([0.1])

        def obj(theta):
            return -((theta[0] - 3.0) ** 2), np.array([-2.0 * (theta[0] - 3.0)])

        res = optimize(obj, init, OptConfig(restarts=3, seed=1))
        assert res.objective_value >= obj(init)[0]

    def test_positive_constraints_preserved(self, flat_prior):
        res = optimize(lambda theta: (-(theta[0] - 1e-4) ** 2,
                                      np.array([-2.0 * (theta[0] - 1e-4)])),
                       np.array([2.0]), OptConfig(restarts=3, seed=2))
        assert res.theta_hat[0] > 0

    def test_all_restarts_diverge(self, flat_prior):
        with pytest.raises(OptimizationError):
            optimize(lambda theta: (float("nan"), np.zeros(1)),
                     np.array([1.0]), OptConfig(restarts=3, seed=0))

    def test_objective_value_excludes_prior(self):
        def obj(theta):
            return (-((math.log(theta[0])) ** 2),
                    np.array([-2.0 * math.log(theta[0]) / theta[0]]))

        res = optimize(obj, np.array([1.0]), OptConfig(restarts=1, seed=0))
        # reported value is the raw objective, which peaks at 0
        assert res.objective_value == pytest.approx(
            obj(res.theta_hat)[0], abs=1e-12)

    def test_returns_best_evaluated_point(self, monkeypatch, flat_prior):
        # an optimizer that ends a little off its last evaluated point
        minimize = hyperopt.minimize
        inside, seen, outside = [False], [], []

        def nudged(*args, **kwargs):
            inside[0] = True
            res = minimize(*args, **kwargs)
            inside[0] = False
            res.x = res.x + 1e-9
            return res

        def obj(theta):
            (seen if inside[0] else outside).append(theta.tobytes())
            return (-((theta[0] - 2.0) ** 2),
                    np.array([-2.0 * (theta[0] - 2.0)]), theta.tobytes())

        monkeypatch.setattr(hyperopt, "minimize", nudged)
        res = optimize(obj, np.array([0.5]), OptConfig(restarts=2, seed=0))
        assert outside == []
        assert res.theta_hat.tobytes() in seen
        assert res.extra == (res.theta_hat.tobytes(),)
        assert res.objective_value == obj(res.theta_hat)[0]
        assert res.theta_hat[0] == pytest.approx(2.0, abs=1e-4)

    def test_failed_line_search_keeps_the_iterate(self, flat_prior):
        # a gradient pointing the wrong way makes every line search fail,
        # so L-BFGS-B returns its start, which it did not evaluate last
        seen = []

        def obj(theta):
            seen.append(theta.tobytes())
            return (-((theta[0] - 2.0) ** 2),
                    np.array([2.0 * (theta[0] - 2.0)]), theta.tobytes())

        res = optimize(obj, np.array([1.0]), OptConfig(restarts=1))
        assert res.theta_hat.tolist() == [1.0]
        assert seen[-1] != res.theta_hat.tobytes()
        assert res.extra == (res.theta_hat.tobytes(),)
        assert res.objective_value == -1.0

    def test_linear_offset_search_stays_psd(self, monkeypatch):
        # the offset searched in log space never leaves the region where
        # the linear kernel is positive semi-definite, so no evaluation
        # fails and M0 reaches its MAP optimum
        values = []
        neg_log_posterior = hyperopt._neg_log_posterior

        def spy(*args):
            out = neg_log_posterior(*args)
            values.append(out[0])
            return out

        monkeypatch.setattr(hyperopt, "_neg_log_posterior", spy)
        data = sim.generate(sim.SimConfig("Linear", n=100, effect=1.0), seed=0)
        _, ev = inference.fit_continuous(
            data, from_name("linear"), hyperopt.OptConfig(restarts=2, seed=0))
        assert ev.log_ml >= -141.45
        assert values and max(values) < 1e30


def _central_difference(f, x):
    grad = np.empty_like(x)
    for i in range(len(x)):
        h = 1e-6 * (1.0 + abs(x[i]))
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return grad


class TestAnalyticGradient:
    """The fit objective's gradient and the optimizer's gradient in
    z = log(theta) against central differences, for every kernel family,
    through the one-part (M0) and the two-part (M1) objective."""

    KERNELS = [from_name("linear"), from_name("exp"), from_name("matern32"),
               from_name("se")]
    # off-optimum points: default_init times these factors
    FACTORS = [np.array([1.7, 0.6, 2.0]), np.array([0.4, 1.9, 0.5])]

    @staticmethod
    def _objective(monkeypatch, data, kernel, split):
        """The objective that `_fit_parts` hands to the optimizer."""
        seen = []

        def spy(objective, *args, **kwargs):
            seen.append(objective)
            return optimize(objective, *args, **kwargs)

        monkeypatch.setattr(hyperopt, "optimize", spy)
        cfg = hyperopt.OptConfig(restarts=1)
        if split:
            inference.fit_discontinuous(data, inference.Threshold(0.0),
                                        kernel, cfg)
        else:
            inference.fit_continuous(data, kernel, cfg)
        monkeypatch.undo()
        return seen[0]

    @pytest.mark.parametrize("split", [False, True], ids=["M0", "M1"])
    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.label)
    def test_matches_central_differences(self, monkeypatch, kernel, split):
        # at n = 40 every part's inverse is one dtrtri leaf; at n = 150 the
        # blocked inverse recurses (twice for M0, once per M1 part)
        for n in (40, 150):
            rng = np.random.default_rng(5)
            x = rng.uniform(-1.0, 1.0, n)
            y = np.sin(3.0 * x) + (x >= 0) + 0.3 * rng.normal(size=n)
            self._check_gradients(monkeypatch, Dataset(x, y), kernel, split)

    def _check_gradients(self, monkeypatch, data, kernel, split):
        objective = self._objective(monkeypatch, data, kernel, split)
        for factors in self.FACTORS:
            theta = default_init(kernel, data) * factors
            grad = objective(theta)[1]
            np.testing.assert_allclose(
                grad, _central_difference(lambda t: objective(t)[0], theta),
                rtol=1e-5)
            z = np.log(theta)
            _, grad_z = hyperopt._neg_log_posterior(z, objective)
            np.testing.assert_allclose(
                grad_z, _central_difference(
                    lambda u: hyperopt._neg_log_posterior(u, objective)[0], z),
                rtol=1e-5)

    def test_failed_evaluation_has_zero_gradient(self):
        def failing(theta):
            raise NumericalError("no factor")

        value, grad = hyperopt._neg_log_posterior(np.zeros(2), failing)
        assert value == 1e30
        assert grad.tolist() == [0.0, 0.0]


class TestDefaultInit:
    def test_stated_rule(self):
        x = np.linspace(0.0, 10.0, 50)
        y = np.concatenate([np.full(25, -2.0), np.full(25, 2.0)])  # var 4
        theta = dict(zip(hyper_names(from_name("se")),
                         default_init(from_name("se"), Dataset(x, y))))
        assert theta["variance"] == pytest.approx(4.0)
        assert theta["lengthscale"] == pytest.approx(5.0)
        assert theta["noise_variance"] == pytest.approx(0.4)

    def test_constant_y_floor(self):
        d = Dataset(np.linspace(0, 1, 12), np.full(12, 7.0))
        theta = default_init(from_name("se"), d)
        assert theta[hyper_names(from_name("se")).index("variance")] == \
            pytest.approx(1e-6)

    def test_polynomial_offset(self):
        d = Dataset(np.linspace(0, 1, 12), np.linspace(0, 1, 12))
        k = from_name("linear")
        i = hyper_names(k).index("offset")
        assert default_init(k, d)[i] == 1.0
        fit, _ = inference.fit_continuous(
            d, k, hyperopt.OptConfig(restarts=1))
        assert fit.kernel.offset > 0


class TestPriorInfluence:
    def test_vague_priors_barely_move_logml(self, monkeypatch):
        cfg = sim.SimConfig(latent="Linear", n=100, effect=0.0, seed=11,
                            repetitions=1)
        data = sim.generate(cfg)
        kern = from_name("se")
        opt = OptConfig(restarts=2, seed=3)
        opt_with = inference.fit_continuous(data, kern, opt)[1]
        _flatten_prior(monkeypatch)
        opt_flat = inference.fit_continuous(data, kern, opt)[1]
        assert abs(opt_with.log_ml - opt_flat.log_ml) < 0.5
