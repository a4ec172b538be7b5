import numpy as np
import pytest

from gpqed import sim
from gpqed.errors import ConfigError, InputError, NumericalError
from gpqed.hyperopt import OptConfig
from gpqed.inference import EffectPosterior
from gpqed.kernels import from_name
from gpqed.sim import SimConfig, eval_latent, generate, rmse_closed_form

from conftest import rmse


class TestLatentFunctions:
    def test_linear_at_zero(self):
        assert eval_latent("Linear", 0.0) == pytest.approx(0.23)

    def test_lee_right_branch_at_zero(self):
        # zero belongs to the x >= x0 branch
        assert eval_latent("Lee", 0.0) == pytest.approx(0.48)

    def test_lee_left_of_zero(self):
        x = -0.5
        want = (0.48 + 1.27 * x + 7.18 * x**2 + 20.21 * x**3
                + 21.54 * x**4 + 7.33 * x**5)
        assert eval_latent("Lee", x) == pytest.approx(want)

    def test_sine_at_zero(self):
        assert eval_latent("Sine", 0.0) == 0.0

    def test_quad_branches(self):
        assert eval_latent("Quad", -1.0) == pytest.approx(3.0)
        assert eval_latent("Quad", 1.0) == pytest.approx(4.0)

    def test_curvature_coefficient(self):
        x = 0.5
        want = (0.48 + 0.84 * x - 0.3 * x**2 - 2.397 * x**3
                - 0.901 * x**4 + 3.56 * x**5)
        assert eval_latent("Curvature", x) == pytest.approx(want)

    def test_all_names_total_on_unit_interval(self):
        x = np.linspace(-1, 1, 101)
        for name in sim.LATENT_FUNCTIONS:
            vals = eval_latent(name, x)
            assert np.all(np.isfinite(vals))

    def test_unknown_name(self):
        with pytest.raises(InputError):
            eval_latent("Cosine", 0.0)


class TestGenerate:
    def test_noiseless_limit_on_latent(self):
        cfg = SimConfig(latent="Linear", n=50, effect=0.0, noise_sd=1e-12,
                        seed=1, repetitions=1)
        d = generate(cfg)
        np.testing.assert_allclose(d.y, 0.23 + 0.89 * d.X[:, 0], atol=1e-9)

    def test_same_seed_identical(self):
        cfg = SimConfig(latent="Quad", n=30, effect=1.0, seed=9, repetitions=1)
        a, b = generate(cfg), generate(cfg)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_large_sample_step_height(self):
        cfg = SimConfig(latent="Linear", n=10000, effect=4.0, noise_sd=1.0,
                        seed=2, repetitions=1)
        d = generate(cfg)
        right = d.y[d.X[:, 0] >= 0].mean()
        left = d.y[d.X[:, 0] < 0].mean()
        # latent asymmetry of the linear trend: 0.89 * (E[x|x>=0] - E[x|x<0])
        asym = 0.89 * 1.0
        assert right - left == pytest.approx(4.0 + asym,
                                             abs=4.0 / np.sqrt(10000) * 4)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(latent="Linear", n=5)
        with pytest.raises(ConfigError):
            SimConfig(latent="Nope")

    @pytest.mark.parametrize("threshold", [5.0, 1.0, -1.0, float("nan")])
    def test_threshold_outside_the_x_range_rejected(self, threshold):
        # x ~ U(-1, 1): such a threshold leaves one side empty in every
        # repetition
        with pytest.raises(ConfigError, match="threshold"):
            SimConfig(latent="Linear", threshold=threshold)
        assert SimConfig(latent="Linear", threshold=0.99).threshold == 0.99


class TestRmse:
    def test_point_mass_at_truth(self):
        eff = EffectPosterior(m1_mean=1.5, m1_var=0.0,
                              spike_weight=0.0, gaussian_weight=1.0)
        assert rmse_closed_form(eff, 1.5) == 0.0

    def test_spike_only_mixture(self):
        eff = EffectPosterior(m1_mean=3.0, m1_var=1.0,
                              spike_weight=1.0, gaussian_weight=0.0)
        assert rmse_closed_form(eff, 1.0) == pytest.approx(1.0)

    def test_gaussian_at_truth_gives_sd(self):
        eff = EffectPosterior(m1_mean=2.0, m1_var=0.64,
                              spike_weight=0.0, gaussian_weight=1.0)
        assert rmse_closed_form(eff, 2.0) == pytest.approx(0.8)
        mc = rmse(eff, 2.0, mc_count=200000, seed=4)
        assert mc == pytest.approx(0.8, abs=0.01)

    def test_mc_matches_closed_form_on_random_mixtures(self, rng):
        for _ in range(10):
            gw = float(rng.uniform(0, 1))
            eff = EffectPosterior(
                m1_mean=float(rng.normal()), m1_var=float(rng.uniform(0.1, 2)),
                spike_weight=1.0 - gw, gaussian_weight=gw)
            true_d = float(rng.normal())
            cf = rmse_closed_form(eff, true_d)
            n = 100000
            mc = rmse(eff, true_d, mc_count=n, seed=int(rng.integers(1e6)))
            # 3 MC standard errors of the mean-square, pushed through sqrt
            draws_var_bound = 3 * (cf ** 2 + 1.0) / np.sqrt(n)
            assert abs(mc - cf) < max(draws_var_bound, 0.05)


class TestRunGrid:
    def test_single_cell_single_rep(self):
        cfg = SimConfig(latent="Linear", n=40, effect=4.0, seed=3,
                        repetitions=1)
        summary = sim.run_grid(["Linear"], [4.0], cfg, [from_name("exp")],
                               opt=OptConfig(restarts=1, seed=0))
        assert len(summary.cells) == 1
        cell = summary.cells[0]
        assert cell.failures == 0
        assert cell.mean_log_bf["exp"] == cell.mean_total_log_bf
        assert cell.se_log_bf["exp"] == 0.0

    def test_reproducible(self):
        cfg = SimConfig(latent="Linear", n=40, effect=1.0, seed=3,
                        repetitions=2)
        a = sim.run_grid(["Linear"], [1.0], cfg, [from_name("exp")],
                         opt=OptConfig(restarts=1, seed=0))
        b = sim.run_grid(["Linear"], [1.0], cfg, [from_name("exp")],
                         opt=OptConfig(restarts=1, seed=0))
        assert a.cells[0].mean_log_bf == b.cells[0].mean_log_bf

    def test_only_typed_failures_are_counted(self, monkeypatch):
        cfg = SimConfig(latent="Linear", n=40, repetitions=2)

        def fails(error):
            def compare(*args, **kwargs):
                raise error
            return compare

        monkeypatch.setattr(sim.inference, "compare",
                            fails(NumericalError("diverged")))
        cell = sim.run_cell(cfg, [from_name("exp")])
        assert cell.failures == 2
        # anything else is a bug and must not be recorded as a failure
        monkeypatch.setattr(sim.inference, "compare", fails(KeyError("bug")))
        with pytest.raises(KeyError):
            sim.run_cell(cfg, [from_name("exp")])

    def test_every_cell_checked_before_any_runs(self, monkeypatch):
        calls = []

        def run_cell(*args, **kwargs):
            calls.append(args)
        monkeypatch.setattr(sim, "run_cell", run_cell)
        cfg = SimConfig(latent="Linear", n=40, repetitions=1)
        with pytest.raises(ConfigError, match="Bogus"):
            sim.run_grid(["Linear", "Bogus"], [1.0, 2.0], cfg,
                         [from_name("exp")])
        assert calls == []

    def test_empty_grid_rejected(self):
        cfg = SimConfig(latent="Linear", n=40, repetitions=1)
        with pytest.raises(ConfigError):
            sim.run_grid([], [1.0], cfg, [from_name("exp")])

    @pytest.mark.parametrize("names", [[], ["exp", "exponential"]],
                             ids=["empty", "duplicate"])
    def test_kernel_list_checked_before_any_repetition(self, monkeypatch,
                                                       names):
        # results are keyed by label: two kernels with one label would be
        # pooled, and no kernel would make every repetition a failure
        def compare(*args, **kwargs):
            raise AssertionError("a repetition ran")
        monkeypatch.setattr(sim.inference, "compare", compare)
        cfg = SimConfig(latent="Linear", n=40, repetitions=2)
        with pytest.raises(ConfigError):
            sim.run_cell(cfg, [from_name(name) for name in names])
