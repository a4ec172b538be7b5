import math

import numpy as np
import pytest
from scipy.optimize import minimize

from gpqed import gp, hyperopt, inference, sim
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


class TestHyperVector:
    def test_rejects_nonpositive_constrained(self):
        for bad in (-1.0, 0.0, float("nan")):
            with pytest.raises(InputError):
                hyperopt.starts(np.array([1.0, bad]), np.ones(2),
                                OptConfig(restarts=1))
        with pytest.raises(InputError):
            hyperopt.starts(np.ones(2), np.ones(2), OptConfig(restarts=0))

    def test_roundtrip_with_kernel(self):
        k = from_name("se", variance=2.0, lengthscale=0.7)
        assert hyper_names(k) == ["variance", "lengthscale", "noise_variance"]
        theta = np.array([getattr(k, name) for name in k.param_names()] + [0.3])
        k2, noise = kernel_and_noise(from_name("se"), theta)
        assert k2 == k and noise == 0.3

    def test_length_is_model_k(self):
        k = from_name("linear")
        assert len(hyper_names(k)) == len(k.param_names()) + 1

    def test_scale_powers(self):
        assert hyperopt.scale_powers(from_name("se")).tolist() == [1, 0, 1]
        assert hyperopt.scale_powers(from_name("linear")).tolist() == [1, 1, 1]


class TestStarts:
    def test_restart_k_is_the_unit_coordinates_of_its_draw(self):
        # restart 0 at z = log(init), restart k > 0 at z plus the k-th
        # draw of Normal(0, 0.5) on every entry, taken to the unit
        # coordinates z[1:] - powers[1:] * z[0]
        init = np.array([2.0, 0.7, 0.3])
        powers = np.array([1.0, 0.0, 1.0])
        got = hyperopt.starts(init, powers, OptConfig(restarts=4, seed=11))
        assert got.shape == (4, 2)
        z0 = np.log(init)
        rng = np.random.default_rng(11)
        for k in range(4):
            z_init = z0 if k == 0 else z0 + rng.normal(0.0, 0.5, size=3)
            assert got[k].tolist() == \
                (z_init[1:] - powers[1:] * z_init[0]).tolist()


class TestPriors:
    def test_gamma_log_density_at_one(self):
        expected = 0.01 * math.log(0.01) - math.lgamma(0.01) - 0.01
        value, grad = hyperopt.log_prior(np.array([1.0]))
        assert value == pytest.approx(expected, rel=1e-12)
        assert grad.tolist() == [pytest.approx(0.0, abs=1e-15)]

    def test_log_jacobian_and_gradient_in_log_theta(self):
        theta = np.array([0.3, 2.0, 40.0])
        value, grad = hyperopt.log_prior(theta)
        a = b = 0.01
        density = sum(a * math.log(b) - math.lgamma(a)
                      + (a - 1.0) * math.log(t) - b * t for t in theta)
        assert value == pytest.approx(density + np.sum(np.log(theta)),
                                      rel=1e-12)
        np.testing.assert_allclose(
            grad, _central_difference(
                lambda z: hyperopt.log_prior(np.exp(z))[0], np.log(theta)),
            rtol=1e-6)

    def test_underflowed_entry_is_a_numerical_error(self):
        # a trial step of a linear M1 fit reached this theta, whose offset
        # had underflowed to 0; the optimizer counts a NumericalError as a
        # failed evaluation
        for theta in ([6.8e-299, 6.9e5, 0.0], [1.0, -2.0, 3.0]):
            with pytest.raises(NumericalError):
                hyperopt.log_prior(np.array(theta))


def _quadratic(target, sign=1.0):
    """sum((x - target)^2), with its gradient times sign (a wrong sign
    makes every line search fail), and x's bytes as the output."""
    def objective(x):
        return (float(np.sum((x - target) ** 2)), sign * 2.0 * (x - target),
                x.tobytes())
    return objective


class TestOptimize:
    def test_quadratic_maximum(self):
        res = optimize(_quadratic(2.0), np.array([[0.5]]))
        x, = np.frombuffer(res.outputs[0])
        assert x == pytest.approx(2.0, abs=1e-4)
        assert res.converged

    def test_one_stopping_rule(self, monkeypatch):
        # every run stops by the module's rule; nothing sets another
        seen = []
        minimize = hyperopt.minimize

        def spy(*args, **kwargs):
            seen.append(kwargs["options"])
            return minimize(*args, **kwargs)

        monkeypatch.setattr(hyperopt, "minimize", spy)
        optimize(_quadratic(2.0), np.array([[0.5], [1.0]]))
        assert seen == [{"maxiter": 500, "gtol": 1e-5, "ftol": 1e-12}] * 2

    def test_deterministic_across_runs(self):
        points = np.array([[1.0, 0.3], [0.2, -1.0], [3.0, 2.0]])

        def obj(x):
            value = (math.log1p(x[0] ** 2) - 1.0) ** 2 + (x[1] - 2.0) ** 2
            grad = np.array([4.0 * (math.log1p(x[0] ** 2) - 1.0) * x[0]
                             / (1.0 + x[0] ** 2), 2.0 * (x[1] - 2.0)])
            return value, grad, x.tobytes()

        r1 = optimize(obj, points)
        r2 = optimize(obj, points)
        assert r1 == r2

    def test_monotone_improvement(self):
        obj = _quadratic(np.array([3.0, -1.0]))
        points = np.array([[1.0, 0.1], [5.0, 2.0], [0.0, 0.0]])
        res = optimize(obj, points)
        best = obj(np.frombuffer(res.outputs[0]))[0]
        assert all(best <= obj(p)[0] for p in points)

    def test_positive_constraints_preserved(self):
        # the linear offset's MAP is near 0 on this input; the search in
        # log space keeps every hyperparameter positive
        data = sim.generate(sim.SimConfig("Linear", n=100, effect=1.0),
                            seed=1)
        fit, _ = inference.fit_continuous(data, from_name("linear"),
                                          OptConfig(restarts=2, seed=0))
        assert fit.kernel.offset < 1e-3
        assert min(fit.kernel.variance, fit.kernel.offset,
                   fit.noise_variance) > 0

    def test_all_restarts_diverge(self):
        def failing(x):
            raise NumericalError("no factor")

        for obj in (failing, lambda x: (float("nan"), np.zeros(1)),
                    lambda x: (0.0, np.array([np.inf]))):
            with pytest.raises(OptimizationError):
                optimize(obj, np.zeros((3, 1)))

    def test_objective_value_excludes_prior(self, monkeypatch):
        # the search minimizes minus the log posterior; the evidence reads
        # the prior-free log-ML, which the fits it returns give
        data = sim.generate(sim.SimConfig("Linear", n=60, effect=1.0), seed=4)
        kernel = from_name("se")
        results, objectives = [], []

        def spy(objective, *args):
            objectives.append(objective)
            results.append(optimize(objective, *args))
            return results[-1]

        monkeypatch.setattr(hyperopt, "optimize", spy)
        fit, ev = inference.fit_continuous(data, kernel, OptConfig(restarts=1))
        log_ml, _, theta, _ = results[0].outputs
        assert ev.log_ml == log_ml
        assert ev.log_ml == pytest.approx(gp.log_marginal_likelihood(fit),
                                          rel=1e-12)
        powers = hyperopt.scale_powers(kernel)
        w = np.log(theta[1:]) - powers[1:] * np.log(theta[0])
        value = objectives[0](w)[0]
        assert -value - log_ml == pytest.approx(
            hyperopt.log_prior(theta)[0], rel=1e-9)

    def test_returns_best_evaluated_point(self, monkeypatch):
        # an optimizer that ends a little off its last evaluated point
        minimize = hyperopt.minimize
        inside, seen, outside = [False], [], []

        def nudged(*args, **kwargs):
            inside[0] = True
            res = minimize(*args, **kwargs)
            inside[0] = False
            res.x = res.x + 1e-9
            return res

        quadratic = _quadratic(2.0)

        def obj(x):
            (seen if inside[0] else outside).append(x.tobytes())
            return quadratic(x)

        monkeypatch.setattr(hyperopt, "minimize", nudged)
        res = optimize(obj, np.array([[0.5], [3.0]]))
        assert outside == []
        assert res.outputs[0] in seen
        best = quadratic(np.frombuffer(res.outputs[0]))[0]
        assert best == min(quadratic(np.frombuffer(x))[0] for x in seen)
        assert np.frombuffer(res.outputs[0])[0] == pytest.approx(2.0,
                                                                 abs=1e-4)

    def test_failed_line_search_keeps_the_iterate(self):
        # a gradient pointing the wrong way makes every line search fail,
        # so L-BFGS-B returns its start, which it did not evaluate last
        seen = []
        quadratic = _quadratic(2.0, sign=-1.0)

        def obj(x):
            seen.append(x.tobytes())
            return quadratic(x)

        res = optimize(obj, np.array([[1.0]]))
        assert np.frombuffer(res.outputs[0]).tolist() == [1.0]
        assert seen[-1] != res.outputs[0]

    def test_linear_offset_search_stays_psd(self, monkeypatch):
        # the offset searched in log space never leaves the region where
        # the linear kernel is positive semi-definite, so no evaluation
        # fails and M0 reaches its MAP optimum
        values = []

        def spy(objective, *args):
            def recorded(w):
                try:
                    out = objective(w)
                except NumericalError:
                    values.append(np.inf)
                    raise
                values.append(out[0])
                return out
            return optimize(recorded, *args)

        monkeypatch.setattr(hyperopt, "optimize", spy)
        data = sim.generate(sim.SimConfig("Linear", n=100, effect=1.0), seed=0)
        _, ev = inference.fit_continuous(
            data, from_name("linear"), hyperopt.OptConfig(restarts=2, seed=0))
        assert ev.log_ml >= -141.45
        assert values and np.all(np.isfinite(values))


def _central_difference(f, x):
    grad = np.empty_like(x)
    for i in range(len(x)):
        h = 1e-6 * (1.0 + abs(x[i]))
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return grad


KERNELS = [from_name("linear"), from_name("exp"), from_name("matern32"),
           from_name("se")]


def _parts(data, split, cutoff=0.0):
    return (inference.split_by_label(data, inference.Threshold(cutoff))
            if split else (data,))


def _log_ml(parts, kernel, theta, c):
    """The summed log-ML of the parts at theta and its gradient, from
    gp.fit at theta itself."""
    k, noise = kernel_and_noise(kernel, theta)
    fits = [gp.fit(part, k, noise, mean_constant=c) for part in parts]
    return (sum(gp.log_marginal_likelihood(f) for f in fits),
            sum(f.grad_terms[0] - f.grad_terms[1] for f in fits))


class TestAnalyticGradient:
    """gp.fit's log-ML gradient, summed over the parts of the one-part (M0)
    and the two-part (M1) model, and the gradient of the profiled log
    posterior that `_fit_parts` searches, against central differences, for
    every kernel family."""

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
        parts = _parts(data, split)
        c = float(np.mean(data.y))
        powers = hyperopt.scale_powers(kernel)
        objective = self._objective(monkeypatch, data, kernel, split)
        for factors in self.FACTORS:
            theta = default_init(kernel, data) * factors
            value, grad = _log_ml(parts, kernel, theta, c)
            np.testing.assert_allclose(
                grad, _central_difference(
                    lambda t: _log_ml(parts, kernel, t, c)[0], theta),
                rtol=1e-5)
            # the objective at the unit coordinates of theta evaluates
            # theta with its scale moved to v-hat: its log-ML is gp.fit's
            # there, its value minus that plus the prior, and its gradient
            # in w that of the log posterior in log(theta[1:]) at fixed v
            w = np.log(theta[1:]) - powers[1:] * np.log(theta[0])
            got_value, got_grad, log_ml, u, at, _ = objective(w)
            assert at[0] == u
            np.testing.assert_allclose(
                np.log(at[1:]) - powers[1:] * np.log(u), w, atol=1e-12)
            want_value, want_grad = _log_ml(parts, kernel, at, c)
            prior, prior_grad = hyperopt.log_prior(at)
            assert log_ml == pytest.approx(want_value, rel=1e-10)
            assert got_value == pytest.approx(-(want_value + prior),
                                              rel=1e-10)
            np.testing.assert_allclose(
                got_grad, -(want_grad * at + prior_grad)[1:], rtol=1e-8)
            np.testing.assert_allclose(
                got_grad,
                _central_difference(lambda v: objective(v)[0], w),
                rtol=1e-5)

    def test_failed_evaluation_has_zero_gradient(self, monkeypatch):
        # what L-BFGS-B is handed for an evaluation that raises
        # NumericalError or gives a non-finite value or gradient
        handed = []
        minimize = hyperopt.minimize

        def spy(fun, x0, args=(), **kwargs):
            def recorded(x, *a):
                handed.append(fun(x, *a))
                return handed[-1]
            return minimize(recorded, x0, args=args, **kwargs)

        def failing(x):
            raise NumericalError("no factor")

        monkeypatch.setattr(hyperopt, "minimize", spy)
        for obj in (failing, lambda x: (float("inf"), np.zeros(2)),
                    lambda x: (0.0, np.array([0.0, np.nan]))):
            with pytest.raises(OptimizationError):
                optimize(obj, np.zeros((1, 2)))
        assert len(handed) == 3
        for value, grad in handed:
            assert value == 1e30
            assert grad.tolist() == [0.0, 0.0]


def _lee_repetition_13():
    """Criterion 6's repetition 13 (Lee, n = 200, noise 0.1) and its
    optimizer config."""
    cfg = sim.SimConfig(latent="Lee", n=200, effect=0.0, noise_sd=0.1,
                        seed=0, repetitions=100)
    data = sim.generate(cfg, seed=sim.rep_seed(cfg.seed, 0, 13))
    opt_seed = sim.rep_seed(cfg.seed, 0, 13, stream=1)
    return data, OptConfig(restarts=2,
                           seed=int(opt_seed.generate_state(1)[0]))


class TestProfiledOptimum:
    """The optimum of the profiled search is the optimum of the full log
    posterior over all three log-hyperparameters: a 3-D L-BFGS-B started
    there gains nothing, and the derivative in log v with the ratios
    theta / v ** powers held (the direction profiling removes) is zero."""

    INPUTS = {
        "lee13": _lee_repetition_13,
        "linear": lambda: (sim.generate(sim.SimConfig("Linear", n=100,
                                                      effect=1.0), seed=3),
                           OptConfig(restarts=2, seed=0)),
    }

    @staticmethod
    def _log_posterior(parts, kernel, c, z):
        theta = np.exp(z)
        value, grad = _log_ml(parts, kernel, theta, c)
        prior, prior_grad = hyperopt.log_prior(theta)
        return value + prior, grad * theta + prior_grad

    @pytest.mark.parametrize("split", [False, True], ids=["M0", "M1"])
    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.label)
    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_full_search_gains_nothing(self, name, kernel, split):
        data, cfg = self.INPUTS[name]()
        if split:
            fit, _, _ = inference.fit_discontinuous(
                data, inference.Threshold(0.0), kernel, cfg)
        else:
            fit, _ = inference.fit_continuous(data, kernel, cfg)
        theta_hat = np.array([getattr(fit.kernel, p)
                              for p in fit.kernel.param_names()]
                             + [fit.noise_variance])
        parts = _parts(data, split)
        c = float(np.mean(data.y))
        z_hat = np.log(theta_hat)
        at_hat, grad = self._log_posterior(parts, kernel, c, z_hat)
        assert abs(hyperopt.scale_powers(kernel) @ grad) < 1e-6
        res = minimize(lambda z: tuple(-v for v in self._log_posterior(
                           parts, kernel, c, z)),
                       z_hat, jac=True, method="L-BFGS-B",
                       options={"gtol": 1e-10, "ftol": 1e-15})
        assert -res.fun - at_hat <= 1e-6


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
