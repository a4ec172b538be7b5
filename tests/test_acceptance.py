"""End-to-end acceptance suite.

Each test exercises one release criterion, records a PASS/FAIL/SKIP line
that is printed in the terminal summary, and then asserts. Criterion 7
depends on an external dataset (data/sicily.csv, see scripts/fetch_sicily.py)
and is skipped when the file is absent.
"""

import dataclasses
import json
import os
import time

import numpy as np
import pytest

from conftest import (
    ALL_FAMILY_NAMES,
    oracle_log_marginal_likelihood,
    oracle_predict,
    random_instance,
    record_criterion,
)
from gpqed import cli, gp, inference, sim
from gpqed.geo import BoundaryPolyline, classify
from gpqed.gp import Dataset
from gpqed.hyperopt import OptConfig
from gpqed.inference import EffectPosterior, Threshold, compare
from gpqed.kernels import from_name

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")
SICILY_CSV = os.path.abspath(os.path.join(DATA_DIR, "sicily.csv"))

FAST = OptConfig(restarts=2, seed=0)


def _check(number, ok, detail=""):
    record_criterion(number, "PASS" if ok else "FAIL", detail)
    assert ok, f"criterion {number}: {detail}"


def _step_data(n=100, d=1.0, seed=0, noise=1.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, n)
    y = 0.23 + 0.89 * x + d * (x >= 0) + noise * rng.standard_normal(n)
    return Dataset(x.reshape(-1, 1), y)


class TestCriterion1OracleEquivalence:
    def test_exact_inference_matches_dense_oracles(self):
        rng = np.random.default_rng(101)
        started = time.perf_counter()
        worst = 0.0
        for case in range(200):
            name = ALL_FAMILY_NAMES[case % len(ALL_FAMILY_NAMES)]
            data, kern, noise = random_instance(rng, kernel_name=name)
            c = float(rng.normal())
            fitted = gp.fit(data, kern, noise, mean_constant=c)

            lml = gp.log_marginal_likelihood(fitted)
            lml_o = oracle_log_marginal_likelihood(data, kern, noise, c)
            worst = max(worst, abs(lml - lml_o) / max(abs(lml_o), 1.0))

            Xs = rng.uniform(-3, 3, size=(4, 1))
            mean, var = gp.predict(fitted, Xs)
            mean_o, var_o = oracle_predict(data, kern, noise, c, Xs)
            worst = max(worst, np.max(np.abs(mean - mean_o)
                                      / np.maximum(np.abs(mean_o), 1.0)))
            worst = max(worst, np.max(np.abs(var - var_o)
                                      / np.maximum(np.abs(var_o), 1.0)))
        elapsed = time.perf_counter() - started
        _check(1, worst < 1e-8 and elapsed < 10.0,
               f"max relative error {worst:.2e}, {elapsed:.1f} s")


class TestCriterion2BicCancellation:
    def test_log_bf_equals_log_ml_difference(self):
        data = _step_data(n=60, d=1.0, seed=2)
        worst = 0.0
        for name in ALL_FAMILY_NAMES:
            res = compare(data, Threshold(0.0), [from_name(name)], FAST)
            kr = res.kernel_results[0]
            worst = max(worst, abs(
                kr.log_bf10 - (kr.evidence_m1.log_ml - kr.evidence_m0.log_ml)))
        _check(2, worst <= 1e-12, f"max deviation {worst:.2e}")


class TestCriterion3MixtureIdentities:
    def test_analytic_and_monte_carlo(self):
        data = _step_data(n=80, d=2.0, seed=3)
        res = compare(data, Threshold(0.0), [from_name("exp")], FAST)
        eff = res.kernel_results[0].effect
        analytic_ok = eff.bma_mean == eff.gaussian_weight * eff.m1_mean

        samples = inference.effect_samples(eff, 100000, seed=0)
        se = np.std(samples, ddof=1) / np.sqrt(len(samples))
        mc_dev = abs(np.mean(samples) - eff.bma_mean)
        _check(3, analytic_ok and mc_dev <= 3 * se,
               f"MC deviation {mc_dev:.2e} vs 3 SE {3 * se:.2e}")


class TestCriterion4DetectionTrend:
    def test_log_bf_rises_with_effect_size(self):
        started = time.perf_counter()
        cfg = sim.SimConfig(latent="Linear", n=100, noise_sd=1.0, seed=0,
                            repetitions=100)
        summary = sim.run_grid(["Linear"], [0.25, 1.0, 4.0], cfg,
                               [from_name("exp")], opt=FAST)
        elapsed = time.perf_counter() - started
        means = [c.mean_log_bf["exp"] for c in summary.cells]
        ses = [c.se_log_bf["exp"] for c in summary.cells]
        monotone = all(
            means[i + 1] >= means[i] - np.hypot(ses[i], ses[i + 1])
            for i in range(2))
        ok = (means[0] <= 1.0 and means[2] > 3.0 and monotone
              and elapsed < 600.0)
        _check(4, ok, "mean log BF "
               + ", ".join(f"{m:.2f}" for m in means)
               + f" at d=0.25/1/4; {elapsed:.0f} s")


class TestCriterion5BmaShrinkage:
    def test_rmse_reduced_at_weak_effects(self):
        kernel_list = [from_name(n) for n in ALL_FAMILY_NAMES]
        cfg = sim.SimConfig(latent="Linear", n=100, noise_sd=1.0, seed=0,
                            repetitions=100)
        summary = sim.run_grid(["Linear"], [0.25, 4.0], cfg, kernel_list,
                               opt=FAST)
        weak, strong = summary.cells
        improved = sum(weak.mean_rmse_bma[lab] < weak.mean_rmse_m1[lab]
                       for lab in summary.kernel_labels)
        rel = max(abs(strong.mean_rmse_bma[lab] - strong.mean_rmse_m1[lab])
                  / strong.mean_rmse_m1[lab]
                  for lab in summary.kernel_labels)
        _check(5, improved >= 3 and rel <= 0.05,
               f"{improved}/4 kernels improved at d=0.25, "
               f"max relative gap {rel:.3f} at d=4")


class TestCriterion6DerivativeSensitivity:
    def test_derivative_discontinuity_detected(self):
        """The SE log BF rises at Lee's kink relative to placebo cutoffs.

        Lee with d = 0 is continuous at 0; only its slope (1.27 to 0.84) and
        curvature jump there. M1's effect is a level jump, which is absent,
        so the absolute sign is not the check: the mean log BF at 0 is about
        -0.5, and it turns positive only if the right branch carries a level
        jump (about +0.5 with the published right intercept 0.52 in place
        of 0.48). The check is the regression-discontinuity placebo test: on
        the same datasets and M0 fits, the mean log BF at cutoff 0 must
        exceed the average at -0.5 and +0.5, the midpoints of the two smooth
        branches, by more than 3 SE. The SE treats the three cutoffs as
        independent, which overstates it because they share their data.
        """
        cfg = sim.SimConfig(latent="Lee", n=200, effect=0.0, noise_sd=0.1,
                            seed=0, repetitions=100)
        kern = from_name("se")
        placebos = (-0.5, 0.5)
        log_bf = {c: [] for c in (0.0,) + placebos}
        started = time.perf_counter()
        for rep in range(cfg.repetitions):
            # the data and optimizer seeds of sim.run_cell's cell 0
            data = sim.generate(cfg, seed=sim.rep_seed(cfg.seed, 0, rep))
            opt_seed = sim.rep_seed(cfg.seed, 0, rep, stream=1)
            opt = dataclasses.replace(
                FAST, seed=int(opt_seed.generate_state(1)[0]))
            kr = compare(data, Threshold(0.0), [kern], opt).kernel_results[0]
            log_bf[0.0].append(kr.log_bf10)
            for c in placebos:
                *_, ev1 = inference.fit_discontinuous(
                    data, Threshold(c), kern, opt)
                log_bf[c].append(ev1.log_evidence
                                 - kr.evidence_m0.log_evidence)
        elapsed = time.perf_counter() - started

        mean = {c: np.mean(v) for c, v in log_bf.items()}
        se = {c: np.std(v, ddof=1) / np.sqrt(len(v))
              for c, v in log_bf.items()}
        delta = mean[0.0] - 0.5 * (mean[-0.5] + mean[0.5])
        se_delta = np.sqrt(se[0.0] ** 2 + 0.25 * (se[-0.5] ** 2 + se[0.5] ** 2))
        z = delta / se_delta
        _check(6, z > 3.0,
               "mean log BF "
               + ", ".join(f"{mean[c]:.2f} ± {se[c]:.2f} at {c:g}"
                           for c in log_bf)
               + f"; delta {delta:.2f}, z {z:.1f}; {elapsed:.0f} s")


class TestCriterion7SicilyReproduction:
    def test_table_values(self):
        if not os.path.exists(SICILY_CSV):
            record_criterion(
                7, "SKIP", "data/sicily.csv not present; run "
                "scripts/fetch_sicily.py")
            pytest.skip("sicily dataset not available")
        started = time.perf_counter()
        data = cli.load_csv(SICILY_CSV, ["time"], "rate")
        res = compare(data, Threshold(37.0),
                      [from_name("linear"), from_name("matern32")],
                      OptConfig(restarts=5, seed=0))
        lin, mat = res.kernel_results
        elapsed = time.perf_counter() - started
        checks = [
            abs(lin.log_bf10 - (-3.75)) <= 0.5,
            abs(lin.effect.m1_mean - (-14.1)) <= 2.0,
            abs(mat.log_bf10 - (-3.64)) <= 0.5,
            abs(mat.effect.m1_mean - (-8.13)) <= 1.5,
            abs(res.bma_mean - (-0.21)) <= 0.1,
            elapsed < 60.0,
        ]
        _check(7, all(checks),
               f"linear BF {lin.log_bf10:.2f} d {lin.effect.m1_mean:.1f}; "
               f"matern BF {mat.log_bf10:.2f} d {mat.effect.m1_mean:.1f}; "
               f"BMA d {res.bma_mean:.2f}; {elapsed:.0f} s")


class TestCriterion8GeometryOracle:
    @staticmethod
    def _oracle(boundary, point):
        v = boundary.vertices
        x, y = point
        x = min(max(x, v[0, 0]), v[-1, 0])
        return 0 if y > np.interp(x, v[:, 0], v[:, 1]) else 1

    def test_classify_matches_side_oracle(self):
        rng = np.random.default_rng(808)
        mismatches = 0
        cases = 0
        while cases < 1000:
            xs = np.sort(rng.uniform(-4, 4, 5))
            if np.any(np.diff(xs) < 1e-3):
                continue
            b = BoundaryPolyline(
                np.column_stack([xs, rng.uniform(-2, 2, 5)]))
            pt = rng.uniform(-4, 4, 2)
            if not (xs[0] + 0.1 < pt[0] < xs[-1] - 0.1):
                continue
            if abs(pt[1] - np.interp(pt[0], b.vertices[:, 0],
                                     b.vertices[:, 1])) < 0.3:
                continue
            mismatches += classify(b, pt) != self._oracle(b, pt)
            cases += 1
        _check(8, mismatches == 0, f"{mismatches}/1000 mismatches")


class TestCriterion9Determinism:
    def test_identical_reports(self, tmp_path):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, 50)
        y = 0.5 * x + 1.5 * (x >= 0) + 0.5 * rng.standard_normal(50)
        data = tmp_path / "d.csv"
        data.write_text("x,y\n" + "".join(f"{float(a)!r},{float(b)!r}\n"
                                          for a, b in zip(x, y)))
        out = tmp_path / "report.json"
        config = {"data": str(data), "response": "y",
                  "predictors": ["x"], "threshold": 0.0,
                  "kernels": ["exp", "se"], "seed": 42,
                  "optimizer": {"restarts": 2},
                  "output": {"report": str(out)}}
        reports = []
        for _ in range(2):
            cli.analyze(dict(config))
            obj = json.loads(out.read_bytes())
            obj.pop("wall_time_seconds")
            reports.append(json.dumps(obj, sort_keys=False))
        identical = reports[0] == reports[1]
        _check(9, identical, "reports byte-identical modulo wall time")
