import numpy as np
import pytest

from gpqed import gp, hyperopt, inference, kernels, sim
from gpqed.errors import ConfigError
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

from conftest import PointRule

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
    evaluation there, and equal a fresh fit at theta_hat bit for bit."""

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
            def counted(theta):
                seen.append(theta.tobytes())
                return objective(theta)
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
        # every evaluation fits each part once, and no theta is evaluated
        # twice
        assert len(fit_calls) == len(parts) * len(seen)
        assert len(set(seen)) == len(seen)
        k, noise = hyperopt.kernel_and_noise(kernel, opt.theta_hat)
        c = float(np.mean(data.y))
        fresh = [gp.fit(part, k, noise, mean_constant=c) for part in parts]
        for got, want in zip(fits, fresh):
            assert got.kernel == want.kernel
            assert got.noise_variance == want.noise_variance
            for name in ("chol", "alpha", "log_ml_grad"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
        assert ev.log_ml == sum(gp.log_marginal_likelihood(f) for f in fresh)


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

    def test_requires_kernel(self):
        with pytest.raises(ConfigError):
            compare(_step_data(20), Threshold(0.0), [], FAST)

    def test_effect_point_required_for_predicate(self):
        data = _step_data(20)
        with pytest.raises(ConfigError):
            compare(data, PointRule(lambda x: x[0] >= 0),
                    [from_name("se")], FAST)


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
