import math

import numpy as np
import pytest
from scipy.optimize import minimize

from gpqed import gp, hyperopt, inference, sim
from gpqed.errors import (DataError, InputError, NumericalError,
                          OptimizationError)
from gpqed.gp import Dataset
from gpqed.hyperopt import (
    OptConfig,
    data_scales,
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
    monkeypatch.setattr(hyperopt, "GAMMA_LOG_NORM",
                        1e-9 * math.log(1e-9) - math.lgamma(1e-9))


class TestHyperVector:
    def test_rejects_nonpositive_constrained(self):
        for bad in (-1.0, 0.0, float("nan")):
            with pytest.raises(InputError):
                hyperopt.starts(from_name("se"), np.array([1.0, bad, 1.0]),
                                OptConfig(restarts=1))
        with pytest.raises(InputError):
            hyperopt.starts(from_name("se"), np.ones(3), OptConfig(restarts=0))

    def test_roundtrip_with_kernel(self):
        k = from_name("se", variance=2.0, lengthscale=0.7)
        assert hyper_names(k) == ["variance", "lengthscale", "noise_variance"]
        theta = np.array([getattr(k, name) for name in hyper_names(k)[:-1]]
                         + [0.3])
        k2, noise = kernel_and_noise(from_name("se"), theta)
        assert k2 == k and noise == 0.3

    def test_length_is_model_k(self):
        k = from_name("linear")
        data = Dataset(np.arange(6.0), np.array([0.0, 1.0, 0.0, 2.0, 1.0, 3.0]))
        _, ev = inference.fit_continuous(data, k, OptConfig(restarts=1))
        assert len(hyper_names(k)) == ev.k == 3

    def test_scale_powers(self):
        assert hyperopt.scale_powers(from_name("se")).tolist() == [1, 0, 1]
        assert hyperopt.scale_powers(from_name("linear")).tolist() == [1, 1, 1]


class TestOptConfig:
    @pytest.mark.parametrize("fields, message", [
        ({"restarts": 0}, "restarts"),
        ({"restarts": -2}, "restarts"),
        # numpy seeds a generator only from a non-negative integer
        ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"),
        # an integer that is not a bool, as SimConfig takes its counts
        ({"restarts": 1.5}, "restarts"),
        ({"restarts": "2"}, "restarts"),
        ({"restarts": True}, "restarts"),
        # numpy would take True as 1; SimConfig rejects a bool seed too
        ({"seed": True}, "seed"),
    ])
    def test_rejected(self, fields, message):
        with pytest.raises(InputError, match=message):
            OptConfig(**fields)

    def test_numpy_integer_restarts(self):
        assert len(hyperopt.starts(from_name("se"), [1.0, 1.0, 1.0],
                                   OptConfig(restarts=np.int64(3)))) == 3


def _handed_points(monkeypatch):
    """A list to which each hyperopt.optimize call appends the start points
    it was handed."""
    handed = []
    optimize = hyperopt.optimize

    def spy(objective, points):
        handed.append(points)
        return optimize(objective, points)

    monkeypatch.setattr(hyperopt, "optimize", spy)
    return handed


class TestStarts:
    def test_restart_k_is_the_unit_coordinates_of_its_draw(self):
        # restart 0 at z = log(init), restart k > 0 at z plus the k-th
        # draw of Normal(0, 0.5) on every entry, taken to the unit
        # coordinates z[1:] - powers[1:] * z[0]
        init = np.array([2.0, 0.7, 0.3])
        powers = np.array([1.0, 0.0, 1.0])
        got = hyperopt.starts(from_name("se"), init,
                              OptConfig(restarts=4, seed=11))
        assert got.shape == (4, 2)
        z0 = np.log(init)
        rng = np.random.default_rng(11)
        for k in range(4):
            z_init = z0 if k == 0 else z0 + rng.normal(0.0, 0.5, size=3)
            assert got[k].tolist() == \
                (z_init[1:] - powers[1:] * z_init[0]).tolist()

    def test_linear_takes_one_start(self, monkeypatch):
        # restarts are there to reach other lengthscale modes, and the
        # linear kernel has none: its search runs restart 0 alone
        handed = _handed_points(monkeypatch)
        data = sim.generate(sim.SimConfig("Linear", n=100, effect=1.0), seed=3)
        fits = [inference.fit_continuous(data, from_name("linear"),
                                         OptConfig(restarts=restarts, seed=0))
                for restarts in (1, 3, 5)]
        assert [points.shape for points in handed] == [(1, 2)] * 3
        (fit, ev), *others = fits
        for other_fit, other_ev in others:
            assert other_ev == ev
            assert other_fit.kernel == fit.kernel
            assert other_fit.noise_variance == fit.noise_variance
            assert other_fit.alpha.tobytes() == fit.alpha.tobytes()
            assert other_fit.chol_inv.tobytes() == fit.chol_inv.tobytes()

    @pytest.mark.parametrize("name", ["exp", "matern32", "se"])
    def test_stationary_kernel_takes_every_restart(self, monkeypatch, name):
        handed = _handed_points(monkeypatch)
        data = sim.generate(sim.SimConfig("Linear", n=100, effect=1.0), seed=3)
        inference.fit_continuous(data, from_name(name),
                                 OptConfig(restarts=3, seed=0))
        assert [points.shape for points in handed] == [(3, 2)]


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


def _recorded(objective):
    """objective, and a list to which it appends each point it evaluates."""
    seen = []

    def recorded(x):
        seen.append(x.copy())
        return objective(x)
    return recorded, seen


def _plain_points(objective, x0):
    """The points one plain L-BFGS-B run from x0 evaluates, under STOPPING."""
    recorded, seen = _recorded(objective)
    minimize(lambda x: recorded(x)[:2], x0, jac=True, method="L-BFGS-B",
             options=hyperopt.STOPPING)
    return seen


def _double_well(x):
    """(x^2 - 1)^2 + 0.3 x: a local minimum near 0.96, the global one near
    -1.04; x's bytes as the output."""
    value = float((x[0] ** 2 - 1.0) ** 2 + 0.3 * x[0])
    return value, np.array([4.0 * x[0] * (x[0] ** 2 - 1.0) + 0.3]), x.tobytes()


class TestOptimize:
    def test_quadratic_maximum(self):
        res = optimize(_quadratic(2.0), np.array([[0.5]]))
        x, = np.frombuffer(res.outputs[0])
        assert x == pytest.approx(2.0, abs=1e-4)
        assert res.converged

    def test_one_stopping_rule(self, monkeypatch):
        # every run stops by the module's rule, and REJOIN is the only rule
        # that cuts one short: no callback or other option is passed
        seen = []
        minimize = hyperopt.minimize

        def spy(*args, **kwargs):
            seen.append((kwargs["options"],
                         sorted(set(kwargs) - {"args", "options"})))
            return minimize(*args, **kwargs)

        monkeypatch.setattr(hyperopt, "minimize", spy)
        optimize(_quadratic(2.0), np.array([[0.5], [1.0]]))
        assert seen == [({"maxiter": 500, "gtol": 1e-5, "ftol": 1e-12},
                         ["jac", "method"])] * 2
        assert hyperopt.REJOIN == 0.1

    def test_rejoining_run_ends_early(self):
        # run 1 starts within REJOIN of run 0's optimum, so it ends at its
        # start, which is never evaluated
        target = np.array([2.0, -1.0])
        obj, seen = _recorded(_quadratic(target))
        points = np.array([[0.5, 0.5], target + [0.02, -0.01]])
        res = optimize(obj, points)
        alone = optimize(_quadratic(target), points[:1])
        run_0 = len(_plain_points(_quadratic(target), points[0]))
        assert len(seen) == run_0
        assert len(_plain_points(_quadratic(target), points[1])) > 1
        assert res == alone

    def test_better_distant_optimum_is_not_cut(self):
        # run 0 converges to the local minimum; run 1 finds the global one
        # far from it and runs as plain L-BFGS-B would
        obj, seen = _recorded(_double_well)
        points = np.array([[1.5], [-1.5]])
        res = optimize(obj, points)
        plain = [_plain_points(_double_well, x0) for x0 in points]
        assert [x.tobytes() for x in seen] == [
            x.tobytes() for run in plain for x in run]
        x, = np.frombuffer(res.outputs[0])
        assert x == pytest.approx(-1.04, abs=0.01)
        assert res == optimize(_double_well, points[1:])

    def test_run_ends_at_its_first_request_inside_the_box(self):
        # run 0 converges at once at (2.04, 0), where the gradient is below
        # gtol; run 1 starts outside REJOIN of it and ends at its first
        # request inside, unevaluated, though that point is lower: the
        # result is run 0's point, which gives up less than 1e-6
        def shallow(x):
            value = float(1e-4 * (x[0] - 2.0) ** 2 + x[1] ** 2)
            return (value, np.array([2e-4 * (x[0] - 2.0), 2.0 * x[1]]),
                    x.tobytes())

        obj, seen = _recorded(shallow)
        points = np.array([[2.04, 0.0], [2.02, 0.1]])
        res = optimize(obj, points)
        assert res.converged
        assert res.outputs == (points[0].tobytes(),)
        run_1 = _plain_points(shallow, points[1])
        inside = [np.max(np.abs(x - points[0])) < hyperopt.REJOIN
                  for x in run_1]
        first_inside = inside.index(True)
        assert first_inside > 0
        assert [x.tobytes() for x in seen[1:]] == [
            x.tobytes() for x in run_1[:first_inside]]
        first = shallow(points[0])[0]
        assert shallow(run_1[first_inside])[0] < first
        assert 0.0 < first - min(shallow(x)[0] for x in run_1) < 1e-6

    def test_unconverged_incumbent_never_cuts(self):
        # a failed line search leaves run 0 unconverged at its start; run 1
        # starts within REJOIN of that point, worse, and is not cut
        quadratic = _quadratic(2.0, sign=-1.0)
        obj, seen = _recorded(quadratic)
        points = np.array([[1.0], [0.99]])
        res = optimize(obj, points)
        plain = [_plain_points(quadratic, x0) for x0 in points]
        assert [x.tobytes() for x in seen] == [
            x.tobytes() for run in plain for x in run]
        assert quadratic(points[1])[0] > quadratic(points[0])[0]
        assert np.frombuffer(res.outputs[0]).tolist() == [1.0]
        assert not res.converged

    def test_one_start_is_plain_lbfgsb(self):
        def rosenbrock(x):
            a, b = x
            value = float((1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2)
            grad = np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a),
                             200.0 * (b - a * a)])
            return value, grad, x.tobytes()

        obj, seen = _recorded(rosenbrock)
        x0 = np.array([-1.2, 1.0])
        optimize(obj, x0[None, :])
        assert [x.tobytes() for x in seen] == [
            x.tobytes() for x in _plain_points(rosenbrock, x0)]

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
    """The summed log-ML of the parts at theta and its gradient in
    theta[1:] (the kernel's second parameter, then the noise), from gp.fit
    at theta itself."""
    k, noise = kernel_and_noise(kernel, theta)
    fits = [gp.fit(part, k, noise, mean_constant=c) for part in parts]
    return (sum(gp.log_marginal_likelihood(f) for f in fits),
            sum(f.grad_terms[0] - f.grad_terms[1] for f in fits))


def _dense_log_ml(parts, kernel, theta, c):
    """The summed log-ML of the parts at theta and its gradient in all of
    theta, by Rasmussen & Williams (2006) eq. 5.9 with a dense inverse and
    dense dK/dtheta from the kernels module docstring's formulas, apart from
    gp.fit."""
    v, p, noise = theta
    value, grad = 0.0, np.zeros(3)
    for part in parts:
        X, n = part.X, part.n
        if kernel.stationary:
            r = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=-1)
            if kernel.family == "exponential":
                unit = np.exp(-r / p)
                dK_dp = v * unit * r / p ** 2
            elif kernel.family == "matern32":
                z = np.sqrt(3.0) * r / p
                unit = (1.0 + z) * np.exp(-z)
                dK_dp = v * z ** 2 * np.exp(-z) / p
            else:
                unit = np.exp(-r ** 2 / p)
                dK_dp = v * unit * r ** 2 / p ** 2
            K = v * unit
        else:
            unit = X @ X.T
            K, dK_dp = v * unit + p, np.ones((n, n))
        Ky = K + noise * np.eye(n)
        Ky_inv = np.linalg.inv(Ky)
        resid = part.y - c
        alpha = Ky_inv @ resid
        sign, log_det = np.linalg.slogdet(Ky)
        assert sign == 1.0
        value -= 0.5 * (resid @ alpha + log_det + n * np.log(2.0 * np.pi))
        # dK/dv is the covariance at unit variance
        grad += [0.5 * (alpha @ dK @ alpha - np.trace(Ky_inv @ dK))
                 for dK in (unit, dK_dp, np.eye(n))]
    return value, grad


class TestAnalyticGradient:
    """gp.fit's log-ML gradient in the kernel's second parameter and the
    noise, summed over the parts of the one-part (M0) and the two-part (M1)
    model, and the gradient of the profiled log
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
            theta = default_init(kernel, data_scales(data)) * factors
            value, grad = _log_ml(parts, kernel, theta, c)
            np.testing.assert_allclose(
                grad, _central_difference(
                    lambda t: _log_ml(parts, kernel,
                                      np.concatenate((theta[:1], t)), c)[0],
                    theta[1:]),
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
                got_grad, -(want_grad * at[1:] + prior_grad[1:]), rtol=1e-8)
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


def _lee_repetition(rep):
    """Criterion 6's repetition rep (Lee, n = 200, noise 0.1) and its
    optimizer config."""
    cfg = sim.SimConfig(latent="Lee", n=200, effect=0.0, noise_sd=0.1,
                        seed=0, repetitions=100)
    return sim.repetition(cfg, 0, rep, OptConfig(restarts=2))


class TestRejoin:
    def test_run_passing_an_optimum_is_not_cut(self, monkeypatch):
        # se M0 of criterion 6's repetition 33: run 1 passes within 0.3 of
        # run 0's optimum (l = 0.446) on its way to a better one
        # (l = 0.234); a box that wide would cut it there and lose 0.075
        # nats, while REJOIN keeps the optimum of running every run to
        # convergence
        data, opt = _lee_repetition(33)
        _, ev = inference.fit_continuous(data, from_name("se"), opt)
        monkeypatch.setattr(hyperopt, "REJOIN", 0.0)
        _, every_run = inference.fit_continuous(data, from_name("se"), opt)
        assert ev.log_ml == every_run.log_ml


def _runs_of_compare(monkeypatch, data, kernels, opt):
    """Per optimize call of compare() of data at a threshold of 0: the
    points it evaluated, the value of each that succeeded (None for a
    failure), the run of each, and whether each run converged, read off
    scipy's results as `optimize` states its rule (None for a cut run)."""
    calls = []
    optimize, minimize = hyperopt.optimize, hyperopt.minimize

    def recording_optimize(objective, points):
        call = {"evals": [], "converged": []}
        calls.append(call)

        def recorded(x):
            run = len(call["converged"])
            try:
                value, grad, *outputs = objective(x)
            except NumericalError:
                call["evals"].append((x.copy(), None, run))
                raise
            ok = np.isfinite(value) and np.isfinite(grad).all()
            call["evals"].append((x.copy(), value if ok else None, run))
            return (value, grad, *outputs)
        return optimize(recorded, points)

    def recording_minimize(*args, **kwargs):
        call = calls[-1]
        try:
            res = minimize(*args, **kwargs)
        except hyperopt._Rejoined:
            call["converged"].append(None)
            raise
        call["converged"].append(
            bool(np.max(np.abs(res.jac)) < hyperopt.STOPPING["gtol"])
            or res.success)
        return res

    monkeypatch.setattr(hyperopt, "optimize", recording_optimize)
    monkeypatch.setattr(hyperopt, "minimize", recording_minimize)
    inference.compare(data, inference.Threshold(0.0), kernels, opt)
    return calls


class TestRejoinOnSimGridInput:
    """One repetition of a Linear, n = 100, 2-restart cell, as the
    simulation grid runs it."""

    KERNELS = [from_name(name) for name in ("linear", "exp", "matern32", "se")]

    @staticmethod
    def _input():
        cfg = sim.SimConfig(latent="Linear", n=100, effect=1.0, seed=0,
                            repetitions=1)
        return sim.repetition(cfg, 0, 0, OptConfig(restarts=2))

    def test_no_later_run_evaluates_inside_the_box(self, monkeypatch):
        data, opt = self._input()
        calls = _runs_of_compare(monkeypatch, data, self.KERNELS, opt)
        # four kernels, M0 and M1
        assert len(calls) == 8
        cut = 0
        for call in calls:
            best = (math.inf, None, None)     # value, run, x
            for x, value, run in call["evals"]:
                _, best_run, best_x = best
                assert not (best_run is not None and best_run < run
                            and call["converged"][best_run]
                            and np.max(np.abs(x - best_x)) < hyperopt.REJOIN)
                if value is not None and value < best[0]:
                    best = (value, run, x)
            cut += call["converged"].count(None)
        # the rule is met on this input, not passed by
        assert cut > 0

    def test_log_ml_as_every_run_to_convergence(self, monkeypatch):
        data, opt = self._input()
        label = inference.Threshold(0.0)
        cut = inference.compare(data, label, self.KERNELS, opt)
        monkeypatch.setattr(hyperopt, "REJOIN", 0.0)
        every_run = inference.compare(data, label, self.KERNELS, opt)
        for a, b in zip(cut.kernel_results, every_run.kernel_results):
            for evidence in ("evidence_m0", "evidence_m1"):
                assert getattr(a, evidence).log_ml == pytest.approx(
                    getattr(b, evidence).log_ml, abs=1e-6)


class TestProfiledOptimum:
    """The optimum of the profiled search is the optimum of the full log
    posterior over all three log-hyperparameters: a 3-D L-BFGS-B started
    there gains nothing, and the derivative in log v with the ratios
    theta / v ** powers held (the direction profiling removes) is zero. The
    full log posterior's gradient comes from `_dense_log_ml`, not gp.fit,
    whose fits hold no column for v."""

    INPUTS = {
        "lee13": lambda: _lee_repetition(13),
        "linear": lambda: (sim.generate(sim.SimConfig("Linear", n=100,
                                                      effect=1.0), seed=3),
                           OptConfig(restarts=2, seed=0)),
    }

    @staticmethod
    def _log_posterior(parts, kernel, c, z):
        theta = np.exp(z)
        value, grad = _dense_log_ml(parts, kernel, theta, c)
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
                              for p in hyper_names(kernel)[:-1]]
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


class TestProfiledScale:
    @pytest.mark.parametrize("quad", [0.0, math.inf], ids=["zero", "inf"])
    def test_quad_that_is_not_positive_and_finite_rejected(self, quad):
        kernel = from_name("se")
        unit = np.array([1.0, 0.5, 0.1])
        with pytest.raises(NumericalError, match="no positive kernel"):
            hyperopt.profiled_scale(quad, 10, unit,
                                    hyperopt.scale_powers(kernel))


def _init(x, y, name="se"):
    """default_init as a dict keyed by hyperparameter name."""
    kernel = from_name(name)
    return dict(zip(hyper_names(kernel),
                    default_init(kernel, data_scales(Dataset(x, y)))))


class TestDefaultInit:
    """The noise starts at the nearest-neighbour estimate
    0.5 * mean (y_i - y_nn(i)) ** 2, bounded to [1e-3, 0.9] var(y), and the
    variance at var(y) minus that."""

    def test_stated_rule(self):
        # nearest other x: 3 -> 1, 0 -> 1, 7 -> 3, 1 -> 0, with no ties;
        # squared differences 0, 1, 4, 1, so the noise is 0.5 * 6 / 4
        x = np.array([3.0, 0.0, 7.0, 1.0])
        y = np.array([1.0, 0.0, 3.0, 1.0])     # var 1.1875
        theta = _init(x, y)
        assert theta["noise_variance"] == pytest.approx(0.75, rel=1e-12)
        assert theta["variance"] == pytest.approx(0.4375, rel=1e-12)
        assert theta["lengthscale"] == pytest.approx(3.5)

    def test_duplicate_rows(self):
        # each duplicate's neighbour is its twin, never the row itself
        # (which would give a zero difference); the noise is 0.5 * 4 / 6
        x = np.array([0.0, 0.0, 4.0, 4.0, 9.0, 10.0])
        y = np.array([1.0, 2.0, 5.0, 5.0, 8.0, 9.0])
        assert _init(x, y)["noise_variance"] == pytest.approx(1.0 / 3.0)

    def test_two_predictors(self):
        # Euclidean neighbours: (0, 0) -> (1.5, 1.5) at 2.12, though
        # (2.5, 0) is nearer in the L1 norm; (1.5, 1.5) <-> (2.5, 0) and
        # (6, 1) -> (2.5, 0). Squared differences 1, 4, 4, 1; var(y) 2.5
        X = np.array([[0.0, 0.0], [1.5, 1.5], [2.5, 0.0], [6.0, 1.0]])
        y = np.array([0.0, 1.0, 3.0, 4.0])
        theta = _init(X, y)
        assert theta["noise_variance"] == pytest.approx(1.25)
        assert theta["variance"] == pytest.approx(1.25)
        assert theta["lengthscale"] == pytest.approx((6.0 + 1.5) / 4.0)

    @pytest.mark.parametrize("y, frac", [
        (np.linspace(0.0, 1.0, 101), 1e-3),              # noise-free
        ((-1.0) ** np.arange(101), 0.9)],                # alternating
        ids=["lower", "upper"])
    def test_bounds(self, y, frac):
        theta = _init(np.linspace(0.0, 1.0, 101), y)
        assert theta["noise_variance"] == pytest.approx(frac * np.var(y))
        assert theta["variance"] == pytest.approx((1.0 - frac) * np.var(y))

    def test_constant_y_floor(self):
        # a constant y has no noise to estimate: the lower bound of a
        # variance floored at 1e-6
        theta = _init(np.linspace(0, 1, 12), np.full(12, 7.0))
        assert theta["noise_variance"] == pytest.approx(1e-9)
        assert theta["variance"] == pytest.approx(1e-6 - 1e-9)

    @pytest.mark.parametrize("name", ["linear", "se"])
    def test_units_of_y_do_not_move_the_start(self, name):
        # var(y) * 1e-8 is below the 1e-6 floor; the search's noise
        # coordinate log(noise / variance) does not move with it
        rng = np.random.default_rng(2)
        x = rng.uniform(-1.0, 1.0, 50)
        y = np.sin(3.0 * x) + 0.3 * rng.normal(size=50)
        ratio = [theta["noise_variance"] / theta["variance"]
                 for theta in (_init(x, y, name), _init(x, 1e-4 * y, name))]
        assert ratio[1] == pytest.approx(ratio[0], rel=1e-12)

    def test_estimates_the_noise(self):
        # the estimate's relative sd at this n is about 10% (0.995 +- 0.097
        # times 0.09 over seeds 0-299), so one seed checks its scale only
        rng = np.random.default_rng(0)
        x = rng.uniform(-1.0, 1.0, 400)
        y = np.sin(3.0 * x) + rng.normal(0.0, 0.3, 400)
        assert _init(x, y)["noise_variance"] == pytest.approx(0.09, rel=0.1)

    def test_one_row_rejected(self):
        # one row has no nearest other row
        with pytest.raises(DataError, match="at least 2 observations"):
            data_scales(Dataset([0.5], [1.0]))

    def test_polynomial_offset(self):
        d = Dataset(np.linspace(0, 1, 12), np.linspace(0, 1, 12))
        k = from_name("linear")
        i = hyper_names(k).index("offset")
        assert default_init(k, data_scales(d))[i] == 1.0
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
