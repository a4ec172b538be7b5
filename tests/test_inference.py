import json
import tracemalloc

import numpy as np
import pytest

from gpqed import cli, gp, hyperopt, inference, kernels, sim
from gpqed.errors import ConfigError, DataError, NumericalError
from gpqed.gp import Dataset
from gpqed.hyperopt import OptConfig
from gpqed.inference import (
    EffectPosterior,
    Evidence,
    Threshold,
    aggregate_totals,
    bma_effect_samples,
    compare,
    effect_size,
    fit_continuous,
    fit_discontinuous,
    split_by_label,
)
from gpqed.kernels import from_name

from conftest import ALL_FAMILY_NAMES, PointRule

FAST = OptConfig(restarts=2, seed=0)


def _step_data(n=100, d=4.0, seed=0, noise=1.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, n)
    y = 0.23 + 0.89 * x + d * (x >= 0) + noise * rng.standard_normal(n)
    return Dataset(x.reshape(-1, 1), y)


class TestLabels:
    def test_threshold_tie_goes_to_intervention(self):
        lab = Threshold(value=1.0)
        assert lab.labels(np.array([[0.9], [1.0], [1.1]])).tolist() == [0, 1, 1]

    def test_threshold_applies_to_the_first_predictor(self):
        lab = Threshold(0.5)
        X = np.array([[0.4, 9.0], [0.6, -9.0]])
        assert lab.labels(X).tolist() == [0, 1]

    def test_predicate(self):
        lab = PointRule(lambda x: x[0] + x[1] > 0)
        assert lab.labels(np.array([[1.0, 1.0], [-1.0, 0.0]])).tolist() == [1, 0]

    def test_split_exhaustive(self):
        data = _step_data(40)
        dc, di = split_by_label(data, Threshold(0.0))
        assert dc.n + di.n == data.n

    def test_empty_side_is_config_error(self):
        data = _step_data(20)
        with pytest.raises(ConfigError, match="intervention"):
            split_by_label(data, Threshold(99.0))
        with pytest.raises(ConfigError, match="control"):
            split_by_label(data, Threshold(-99.0))


class TestEvidence:
    def test_bic_identity(self):
        ev = Evidence(log_ml=-10.0, k=3, n=50)
        assert ev.log_evidence == pytest.approx(-10.0 - 1.5 * np.log(50))

    def test_penalty_strictly_negative(self):
        ev = Evidence(log_ml=0.0, k=1, n=2)
        assert ev.log_evidence < ev.log_ml


class TestFitContinuous:
    def test_minimum_two_points(self):
        data = Dataset(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        fit_continuous(data, from_name("se"), FAST)

    def test_rejects_single_point(self):
        with pytest.raises(ConfigError):
            fit_continuous(Dataset([0.0], [0.0]), from_name("se"), FAST)

    def test_evidence_identity(self):
        data = _step_data(30, d=0.0)
        _, ev = fit_continuous(data, from_name("matern32"), FAST)
        assert ev.log_evidence == pytest.approx(
            ev.log_ml - 0.5 * ev.k * np.log(ev.n), abs=1e-12)

    def test_pure_noise_flat_recovery(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, 120)
        y = rng.standard_normal(120)
        data = Dataset(x.reshape(-1, 1), y)
        fitted, _ = fit_continuous(data, from_name("se"), FAST)
        grid = np.linspace(-1, 1, 21).reshape(-1, 1)
        mean, _ = gp.predict(fitted, grid)
        stderr = np.std(y, ddof=1) / np.sqrt(len(y))
        assert np.all(np.abs(mean - np.mean(y)) < 2 * stderr + 0.05)


class TestFitDiscontinuous:
    def test_shared_hypers_and_mean(self):
        data = _step_data(60)
        fc, fi, ev = fit_discontinuous(data, Threshold(0.0),
                                       from_name("exp"), FAST)
        assert fc.kernel == fi.kernel
        assert fc.noise_variance == fi.noise_variance
        assert fc.mean_constant == pytest.approx(float(np.mean(data.y)))
        assert fc.mean_constant == fi.mean_constant

    def test_combined_logml(self):
        data = _step_data(40)
        fc, fi, ev = fit_discontinuous(data, Threshold(0.0),
                                       from_name("exp"), FAST)
        combined = (gp.log_marginal_likelihood(fc)
                    + gp.log_marginal_likelihood(fi))
        assert ev.log_ml == pytest.approx(combined, abs=1e-9)

    def test_no_effect_data_small_log_bf(self):
        data = _step_data(100, d=0.0, seed=3)
        result = compare(data, Threshold(0.0), [from_name("linear")], FAST)
        assert abs(result.kernel_results[0].log_bf10) < 2.0

    def test_big_step_detected(self):
        data = _step_data(100, d=4.0, seed=4)
        result = compare(data, Threshold(0.0), [from_name("exp")], FAST)
        assert result.kernel_results[0].log_bf10 > 3.0


class TestNoPointFittedTwice:
    """The fits and log-ML at the optimum come from the optimizer's own
    evaluation there, scaled from unit kernel variance to the profiled one,
    and equal a fresh fit at the MAP hyperparameters to rounding."""

    @pytest.mark.parametrize("split", [False, True], ids=["M0", "M1"])
    def test_fit_calls_and_fits_at_optimum(self, monkeypatch, split):
        data = _step_data(50, d=1.0, seed=11)
        kernel = from_name("matern32")
        fit_calls, seen, results = [], [], []
        fit, optimize = gp.fit, hyperopt.optimize

        def counted_fit(*args, **kwargs):
            fit_calls.append(None)
            return fit(*args, **kwargs)

        def spy(objective, *args, **kwargs):
            def counted(w):
                seen.append(w.tobytes())
                return objective(w)
            results.append(optimize(counted, *args, **kwargs))
            return results[-1]

        monkeypatch.setattr(gp, "fit", counted_fit)
        monkeypatch.setattr(hyperopt, "optimize", spy)
        if split:
            *fits, ev = fit_discontinuous(data, Threshold(0.0), kernel, FAST)
            parts = split_by_label(data, Threshold(0.0))
        else:
            *fits, ev = fit_continuous(data, kernel, FAST)
            parts = (data,)
        monkeypatch.undo()

        opt, = results
        # every evaluation fits each part once, and no point is evaluated
        # twice
        assert len(fit_calls) == len(parts) * len(seen)
        assert len(set(seen)) == len(seen)
        log_ml, _, theta, _ = opt.outputs
        assert ev.log_ml == log_ml
        k, noise = hyperopt.kernel_and_noise(kernel, theta)
        c = float(np.mean(data.y))
        fresh = [gp.fit(part, k, noise, mean_constant=c) for part in parts]
        for got, want in zip(fits, fresh):
            assert got.kernel == want.kernel
            assert got.noise_variance == want.noise_variance
            for name in ("chol_inv", "log_det", "alpha", "grad_terms"):
                # entries that cancel to far below the array's largest carry
                # that largest entry's rounding, so the tolerance is on it
                want_array = getattr(want, name)
                np.testing.assert_allclose(
                    getattr(got, name), want_array, rtol=1e-12,
                    atol=1e-12 * np.max(np.abs(want_array)))
        assert ev.log_ml == pytest.approx(
            sum(gp.log_marginal_likelihood(f) for f in fresh), rel=1e-12)


class TestCallPoints:
    """bench/tracer.py counts calls by wrapping gp.fit, gp.jittered_cholesky,
    GramStructure.gram, kernels.gram and hyperopt.optimize where their
    callers look them up; its per-layer counts keep their meaning only while
    every objective evaluation goes through them once per part."""

    @pytest.mark.parametrize("split", [False, True], ids=["M0", "M1"])
    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_one_fit_gram_and_cholesky_per_part(self, monkeypatch, name,
                                                split):
        calls = dict.fromkeys(["fit", "gram", "cholesky", "kernels.gram"], 0)
        per_evaluation = []
        optimize = hyperopt.optimize

        def counting(key, fn):
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return counted

        def spy(objective, points):
            def counted(w):
                before = dict(calls)
                try:
                    return objective(w)
                finally:
                    per_evaluation.append(
                        {key: calls[key] - before[key] for key in calls})
            return optimize(counted, points)

        for owner, attr, key in (
                (gp, "fit", "fit"), (kernels.GramStructure, "gram", "gram"),
                (gp, "jittered_cholesky", "cholesky"),
                (kernels, "gram", "kernels.gram")):
            monkeypatch.setattr(owner, attr, counting(key, getattr(owner, attr)))
        monkeypatch.setattr(hyperopt, "optimize", spy)
        data, kernel = _step_data(40), from_name(name)
        if split:
            fit_discontinuous(data, Threshold(0.0), kernel, FAST)
        else:
            fit_continuous(data, kernel, FAST)
        monkeypatch.undo()

        parts = 2 if split else 1
        assert per_evaluation
        assert all(counts == {"fit": parts, "gram": parts, "cholesky": parts,
                              "kernels.gram": 0}
                   for counts in per_evaluation)
        # nothing is fitted outside an evaluation, so the tracer's
        # kernels.gram calls (both gram functions) equal its gp.fit calls
        assert calls["fit"] == parts * len(per_evaluation)
        assert calls["gram"] + calls["kernels.gram"] == calls["fit"]


class TestEffectSize:
    def test_identical_fits_symmetric(self):
        data = _step_data(30, d=0.0)
        fitted, _ = fit_continuous(data, from_name("se"), FAST)
        mean, var = effect_size(fitted, fitted, [[0.0]])
        _, v = gp.predict(fitted, [[0.0]])
        assert mean == 0.0
        assert var == pytest.approx(2.0 * v[0])

    def test_recovers_injected_step(self):
        data = _step_data(200, d=4.0, seed=6, noise=0.5)
        fc, fi, _ = fit_discontinuous(data, Threshold(0.0),
                                      from_name("exp"), FAST)
        mean, var = effect_size(fc, fi, [[0.0]])
        assert mean == pytest.approx(4.0, abs=3 * np.sqrt(var) + 0.5)

    def test_makes_no_n_by_n_array(self):
        # each side's fit keeps L^-1, so the effect at one point forms no
        # inverse: the peak stays below a quarter of one n x n array
        kern = from_name("matern32", lengthscale=0.5)
        fc, fi = (gp.fit(_step_data(300, seed=seed), kern, 0.3)
                  for seed in (1, 2))
        tracemalloc.start()
        try:
            effect_size(fc, fi, [[0.0]])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 300 * 300 * 8 / 4


class TestCompare:
    def test_bic_cancellation_exact(self):
        data = _step_data(50, d=1.0, seed=7)
        res = compare(data, Threshold(0.0), [from_name("se")], FAST)
        kr = res.kernel_results[0]
        assert kr.evidence_m0.k == kr.evidence_m1.k
        assert kr.log_bf10 == pytest.approx(
            kr.evidence_m1.log_ml - kr.evidence_m0.log_ml, abs=1e-12)

    def test_equal_evidences_give_half(self):
        totals = aggregate_totals(np.array([-10.0]), np.array([-10.0]),
                                  np.array([2.0]), np.array([1.0]))
        assert totals["total_log_bf"] == 0.0
        assert totals["total_p_m1"] == 0.5
        assert totals["bma_mean"] == pytest.approx(1.0)

    def test_dominant_kernel_takes_over(self):
        # one kernel 50 nats ahead: total BF collapses onto its BF
        le0 = np.array([-100.0, -50.0])
        le1 = np.array([-98.0, -47.0])
        totals = aggregate_totals(le0, le1, np.zeros(2), np.ones(2))
        assert totals["total_log_bf"] == pytest.approx(3.0, rel=1e-6)

    def test_kernel_weights_sum_to_one(self):
        data = _step_data(40, d=0.5, seed=8)
        res = compare(data, Threshold(0.0),
                      [from_name("linear"), from_name("se")], FAST)
        assert res.kernel_weights_m0.sum() == pytest.approx(1.0, abs=1e-12)
        assert res.kernel_weights_m1.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["linear", "se"])
    def test_constant_response_is_data_error(self, name):
        # v and the noise go to 0 with no maximum of the log posterior
        data = Dataset(np.linspace(-1.0, 1.0, 30), np.full(30, 2.0))
        with pytest.raises(DataError, match="constant"):
            compare(data, Threshold(0.0), [from_name(name)], FAST)

    def test_constant_parts_are_a_data_error(self, tmp_path, capsys):
        # a noise-free step: M0 fits, but each side of M1 is constant, so
        # M1's v and noise go to 0 with no maximum of the log posterior
        x = np.linspace(-1.0, 1.0, 30)
        y = np.where(x < 0.0, 1.0, 3.0)
        with pytest.raises(DataError, match="constant"):
            compare(Dataset(x, y), Threshold(0.0),
                    [from_name("linear"), from_name("se")], FAST)
        data = tmp_path / "step.csv"
        data.write_text("x,y\n" + "".join(f"{a},{b}\n"
                                          for a, b in zip(x, y)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": str(data), "response": "y",
                                   "predictors": ["x"], "threshold": 0.0,
                                   "kernels": ["se"]}))
        assert cli.main(["analyze", "--config", str(cfg)]) == 3
        assert "every part's response is constant" in capsys.readouterr().err

    def test_underflowed_step_is_a_failed_evaluation(self, monkeypatch):
        # an interrupted time series (t = 1..59, threshold 37) on which a
        # trial step of the linear M1 search underflows the offset to 0;
        # the prior there is a NumericalError, which the optimizer counts
        # as a failed evaluation, and no warning leaks
        t = np.arange(1.0, 60.0)
        rng = np.random.default_rng(11)
        y = (200.0 + 0.5 * t + 8.0 * np.sin(2.0 * np.pi * t / 12.0)
             - 30.0 * (t >= 37.0) + rng.normal(0.0, 10.0, t.size))
        log_prior, failed = hyperopt.log_prior, []

        def counted(theta):
            try:
                return log_prior(theta)
            except NumericalError:
                failed.append(theta)
                raise
        monkeypatch.setattr(hyperopt, "log_prior", counted)
        result = compare(Dataset(t, y), Threshold(37.0), [from_name("linear")],
                         OptConfig(restarts=5, seed=0))
        assert failed and np.isfinite(result.total_log_bf)

    def test_requires_kernel(self):
        with pytest.raises(ConfigError):
            compare(_step_data(20), Threshold(0.0), [], FAST)

    def test_effect_point_required_for_predicate(self):
        data = _step_data(20)
        with pytest.raises(ConfigError):
            compare(data, PointRule(lambda x: x[0] >= 0),
                    [from_name("se")], FAST)


def _lee(rep):
    """A Lee input (n = 100, d = 0.5, noise sd 0.3) and an optimizer
    config, both seeded by rep."""
    cfg = sim.SimConfig("Lee", n=100, effect=0.5, noise_sd=0.3)
    return sim.generate(cfg, seed=rep), OptConfig(restarts=2, seed=rep)


class TestInvariance:
    """Transforms of the data under which compare() keeps its log BF and
    its effect up to rounding. Each catches what no oracle does: a side
    swap or sign error in the effect, a mean constant taken per side, a
    stationary kernel that is not. (The linear kernel v <x, x'> + gamma
    depends on where x = 0 is, so it is left out of the shift in x.)"""

    REPS = (0, 1, 2)
    # on 10 such inputs: at most 3.5e-8 in log BF and 5.8e-9 in effect
    TOL = 1e-6

    @staticmethod
    def _compare(x, y, cutoff, name, opt):
        kr, = compare(Dataset(x, y), Threshold(cutoff), [from_name(name)],
                      opt).kernel_results
        return kr.log_bf10, kr.effect.m1_mean

    def _check(self, name, transform, sign=1.0):
        for rep in self.REPS:
            data, opt = _lee(rep)
            log_bf, effect = self._compare(data.X, data.y, 0.0, name, opt)
            got_bf, got_effect = self._compare(*transform(data), name, opt)
            assert got_bf == pytest.approx(log_bf, rel=0, abs=self.TOL)
            assert got_effect == pytest.approx(sign * effect, rel=0,
                                               abs=self.TOL)

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_reflection_negates_the_effect(self, name):
        # x -> -x swaps the sides at threshold 0
        self._check(name, lambda d: (-d.X, d.y, 0.0), sign=-1.0)

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_shift_in_y(self, name):
        self._check(name, lambda d: (d.X, d.y + 10.0, 0.0))

    @pytest.mark.parametrize("name", ["exp", "matern32", "se"])
    def test_shift_in_x_and_threshold(self, name):
        self._check(name, lambda d: (d.X + 5.0, d.y, 5.0))


class TestMixtureIdentities:
    def test_bma_mean_identity(self):
        eff = EffectPosterior(m1_mean=-3.0, m1_var=2.0,
                              spike_weight=0.7, gaussian_weight=0.3)
        assert eff.bma_mean == pytest.approx(0.3 * -3.0, abs=1e-15)

    def test_bma_variance_identity(self):
        eff = EffectPosterior(m1_mean=2.0, m1_var=0.5,
                              spike_weight=0.4, gaussian_weight=0.6)
        second = 0.6 * (0.5 + 4.0)
        assert eff.bma_var == pytest.approx(second - eff.bma_mean ** 2)

    def test_shrinkage(self):
        for p1 in [0.0, 0.2, 0.9, 1.0]:
            eff = EffectPosterior(m1_mean=-5.0, m1_var=1.0,
                                  spike_weight=1 - p1, gaussian_weight=p1)
            assert abs(eff.bma_mean) <= abs(eff.m1_mean)

    @staticmethod
    def _total_p_m1(log_bf):
        # one kernel, whose evidences differ by log_bf
        one = np.array([1.0])
        return aggregate_totals(np.array([0.0]), np.array([log_bf]),
                                one, one)["total_p_m1"]

    def test_p_m1_half_at_zero_log_bf(self):
        assert self._total_p_m1(0.0) == 0.5

    def test_p_m1_stable_at_extremes(self):
        assert self._total_p_m1(1000.0) == 1.0
        assert self._total_p_m1(-1000.0) == 0.0


class TestBmaSamples:
    def _result(self, d=2.0, seed=9):
        data = _step_data(80, d=d, seed=seed)
        return compare(data, Threshold(0.0), [from_name("exp")], FAST)

    def test_deterministic(self):
        res = self._result()
        a = bma_effect_samples(res, 1000, seed=1)
        b = bma_effect_samples(res, 1000, seed=1)
        np.testing.assert_array_equal(a, b)

    def test_spike_only(self):
        eff = EffectPosterior(m1_mean=2.0, m1_var=1.0,
                              spike_weight=1.0, gaussian_weight=0.0)
        s = inference.effect_samples(eff, 100, seed=0)
        np.testing.assert_array_equal(s, 0.0)

    def test_degenerate_gaussian(self):
        eff = EffectPosterior(m1_mean=2.0, m1_var=0.0,
                              spike_weight=0.0, gaussian_weight=1.0)
        s = inference.effect_samples(eff, 100, seed=0)
        np.testing.assert_allclose(s, 2.0)

    def test_half_mixture_mean(self):
        eff = EffectPosterior(m1_mean=2.0, m1_var=0.5,
                              spike_weight=0.5, gaussian_weight=0.5)
        s = inference.effect_samples(eff, 100000, seed=3)
        se = np.std(s, ddof=1) / np.sqrt(len(s))
        assert np.mean(s) == pytest.approx(1.0, abs=3 * se)

    def test_empirical_matches_analytic(self):
        res = self._result(d=1.0)
        s = bma_effect_samples(res, 100000, seed=5)
        se = np.std(s, ddof=1) / np.sqrt(len(s))
        assert np.mean(s) == pytest.approx(res.bma_mean, abs=3 * se)
