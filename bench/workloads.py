"""The three benchmark workloads.

Each is a closed loop with one caller: an analysis, then the workload's
query batches against a fitted comparison, repeated. A workload object holds its inputs,
all made from the workload seed, and the comparison it queries.

- sim_grid: the acceptance-grid traffic. One analysis is one repetition of
  a simulation cell (Linear latent, n = 100) through ``sim.run_cell``, with
  four kernels and two restarts; many small fits where optimizer and
  per-evaluation overhead dominate.
- threshold_large: one 1-D ``compare`` at n = 400 with a Matern-3/2 kernel
  and one restart, where dense linear algebra dominates. (At n = 1000 an
  analysis takes ~11 s, so a run would rest on two or three of them; at
  n = 600 dense work slowed by up to 2x for seconds at a time on a shared
  machine, and seven analyses per run did not average that out.)
- boundary_2d: ``cli.analyze`` on a 2-D CSV (n = 300 around the example
  boundary) writing a report and density samples, alternating with query
  batches that label fresh points, build effect profiles and predict over
  a grid. Labels, prediction and the CLI are a small share of any analysis
  and go unmeasured without the query batches.
"""

from __future__ import annotations

import os

import numpy as np

from gpqed import cli, geo, gp, inference, sim
from gpqed.gp import Dataset
from gpqed.hyperopt import OptConfig
from gpqed.inference import Threshold
from gpqed.kernels import from_name

from calibration import GP_FIT, INTERPRETER
import checks

# distinct input datasets per run, reused cyclically; more than a run's
# analyses, so that every median is over distinct inputs
POOL = 32
WARMUP_N = 40       # size of the set-up's warm-up analysis
# the warm-up input does not depend on the seed: it only has to load the
# code paths, and seed-dependent optimizer work would add noise to setup_s
WARMUP_SEED = 0
CURVE_POINTS = 200  # 1-D query grid, as in the analyze curves output


def _step_data(n: int, seed: np.random.SeedSequence) -> Dataset:
    """x ~ U(-1, 1); y = 0.23 + 0.89 x + [x >= 0] + N(0, 1)."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    y = 0.23 + 0.89 * x + (x >= 0.0) + rng.standard_normal(n)
    return Dataset(x.reshape(-1, 1), y)


def _query_1d(target) -> dict:
    """Posterior curves per fit, the effect posterior and BMA draws."""
    grid = np.linspace(-1.0, 1.0, CURVE_POINTS).reshape(-1, 1)
    side = Threshold(0.0).labels(grid)
    preds = []
    for kr in target.kernel_results:
        preds.append(gp.predict(kr.fit_m0, grid))
        mc, vc = gp.predict(kr.fit_c, grid)
        mi, vi = gp.predict(kr.fit_i, grid)
        preds.append((np.where(side == 0, mc, mi), np.where(side == 0, vc, vi)))
        preds.append(inference.effect_size(kr.fit_c, kr.fit_i, [0.0]))
    samples = inference.bma_effect_samples(target, count=2000, seed=0)
    return {"preds": preds, "samples": samples}


def _check_query_1d(out) -> list[str]:
    problems = []
    for mean, var in out["preds"]:
        problems += checks.predictions_valid(mean, var)
    if not np.all(np.isfinite(out["samples"])):
        problems.append("non-finite BMA samples")
    return problems


class SimGrid:
    name = "sim_grid"
    kernel_names = ("linear", "exp", "matern32", "se")
    effects = (0.25, 1.0, 4.0)
    setup_unit = analysis_unit = query_unit = INTERPRETER
    trace_analyses = 20
    queries_per_analysis = 1

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.seed = seed
        self.n = 20 if smoke else 100
        self.kernels = [from_name(k) for k in self.kernel_names]
        self.opt = OptConfig(restarts=2)
        self.target = None

    def _config(self, i: int) -> sim.SimConfig:
        return sim.SimConfig(latent="Linear", n=self.n,
                             effect=self.effects[i % len(self.effects)],
                             noise_sd=1.0, threshold=0.0, seed=self.seed,
                             repetitions=1)

    def setup(self) -> None:
        # run_cell draws each repetition's data from the seed itself
        warm = sim.SimConfig(latent="Linear", n=WARMUP_N, effect=1.0,
                             seed=WARMUP_SEED, repetitions=1)
        sim.run_cell(warm, self.kernels, opt=OptConfig(restarts=1))

    def prepare(self) -> None:
        """Repeat cell 0's analysis directly, to query it and check it."""
        data = sim.generate(self._config(0), seed=sim.rep_seed(self.seed, 0, 0))
        opt_seed = int(sim.rep_seed(self.seed, 0, 0, stream=1).generate_state(1)[0])
        self.target = inference.compare(
            data, Threshold(0.0), self.kernels,
            OptConfig(restarts=self.opt.restarts, seed=opt_seed))

    def analysis_input(self, i: int):
        return i

    def analyze(self, i: int):
        return sim.run_cell(self._config(i), self.kernels, cell_index=i,
                            opt=self.opt)

    def check_analysis(self, i: int, cell) -> list[str]:
        problems = checks.cell_valid(cell)
        if i == 0 and self.target is not None:
            want = {kr.kernel.label: kr.log_bf10
                    for kr in self.target.kernel_results}
            if cell.mean_log_bf != want:
                problems.append("run_cell differs from a direct compare "
                                "on the same data")
        return problems

    def query_input(self, j: int):
        return None

    def query(self, _):
        return _query_1d(self.target)

    def check_query(self, _, out) -> list[str]:
        return _check_query_1d(out)

    def reference(self):
        """The fixed input whose MAP log-MLs are recorded."""
        data = sim.generate(sim.SimConfig(latent="Linear", n=100, effect=1.0),
                            seed=0)
        return inference.compare(data, Threshold(0.0), self.kernels,
                                 OptConfig(restarts=2, seed=0))


class ThresholdLarge:
    name = "threshold_large"
    kernel_names = ("matern32",)
    # analyses are dense fits at n = 400, query batches small and
    # interpreter-bound: each is scaled by the unit most like it
    setup_unit = query_unit = INTERPRETER
    analysis_unit = GP_FIT
    trace_analyses = 2
    # ~15 ms batches against ~2 s analyses: more of them per turn to get a
    # steady median at a small share of the loop
    queries_per_analysis = 3

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.seed = seed
        self.n = 40 if smoke else 400
        self.kernels = [from_name(k) for k in self.kernel_names]
        self.opt = OptConfig(restarts=1, seed=seed)
        self.target = None

    def setup(self) -> None:
        self.pool = [_step_data(self.n, np.random.SeedSequence([self.seed, k]))
                     for k in range(POOL)]
        warm = _step_data(WARMUP_N, np.random.SeedSequence(WARMUP_SEED))
        inference.compare(warm, Threshold(0.0), self.kernels, self.opt)

    def prepare(self) -> None:
        """Queries go to the latest analysis; nothing to fit up front."""

    def analysis_input(self, i: int):
        return self.pool[i % POOL]

    def analyze(self, data):
        self.target = inference.compare(data, Threshold(0.0), self.kernels,
                                        self.opt)
        return self.target

    def check_analysis(self, _, result) -> list[str]:
        return checks.totals_valid(result)

    def query_input(self, j: int):
        return None

    def query(self, _):
        return _query_1d(self.target)

    def check_query(self, _, out) -> list[str]:
        return _check_query_1d(out)

    def reference(self):
        data = _step_data(200, np.random.SeedSequence(0))
        return inference.compare(data, Threshold(0.0), self.kernels,
                                 OptConfig(restarts=1, seed=0))


class Boundary2D:
    name = "boundary_2d"
    kernel_names = ("exp", "matern32")
    # analyses are fits at n = 300 and query batches mostly predictions
    # against them, which track the GP fit unit; set-up is interpreter-bound
    setup_unit = INTERPRETER
    analysis_unit = query_unit = GP_FIT
    trace_analyses = 6
    # ~0.3 s batches against ~1.3 s analyses: two per turn keep the query
    # median steady and leave a dozen analyses per run
    queries_per_analysis = 2
    restarts = 2
    query_points = 2000
    grid_side = 50
    mc_samples = 10000

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.n = 40 if smoke else 300
        self.kernels = [from_name(k) for k in self.kernel_names]
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.boundary = geo.load_boundary(
            os.path.join(root, "data", "example_boundary.txt"))
        self.label = geo.BoundaryLabel(self.boundary)
        self.target = None

    def _points(self, rng, count: int) -> np.ndarray:
        """Points within 2 of the path, inside its x range, where the
        side oracle and the nearest-segment rule share one definition."""
        v = self.boundary.vertices
        x1 = rng.uniform(v[0, 0], v[-1, 0], count)
        x2 = np.interp(x1, v[:, 0], v[:, 1]) + rng.uniform(-2.0, 2.0, count)
        return np.column_stack([x1, x2])

    def _data(self, n: int, seed: np.random.SeedSequence) -> Dataset:
        rng = np.random.default_rng(seed)
        X = self._points(rng, n)
        side = checks.above_graph_labels(self.boundary.vertices, X)
        y = (0.5 + 0.4 * X[:, 0] - 0.3 * X[:, 1] + 1.0 * side
             + 0.5 * rng.standard_normal(n))
        return Dataset(X, y)

    def _write_csv(self, path: str, data: Dataset) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x1,x2,y\n")
            for (a, b), c in zip(data.X, data.y):
                fh.write(f"{float(a)!r},{float(b)!r},{float(c)!r}\n")

    def _config(self, csv_path: str, seed: int, restarts: int) -> dict:
        return {"data": csv_path, "predictors": ["x1", "x2"], "response": "y",
                "boundary": self.boundary_path,
                "kernels": list(self.kernel_names), "seed": seed,
                "optimizer": {"restarts": restarts},
                "mc_samples": self.mc_samples,
                "output": {
                    "report": os.path.join(self.workdir, "report.json"),
                    "density_samples": os.path.join(self.workdir,
                                                    "density.csv")}}

    def setup(self) -> None:
        self.boundary_path = os.path.join(self.workdir, "boundary.txt")
        with open(self.boundary_path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{float(x)!r} {float(y)!r}\n"
                          for x, y in self.boundary.vertices)
        self.pool = []
        for k in range(POOL):
            data = self._data(self.n, np.random.SeedSequence([self.seed, k]))
            path = os.path.join(self.workdir, f"data_{k}.csv")
            self._write_csv(path, data)
            self.pool.append((data, path))
        warm_path = os.path.join(self.workdir, "warmup.csv")
        self._write_csv(warm_path, self._data(
            WARMUP_N, np.random.SeedSequence(WARMUP_SEED)))
        cli.analyze(self._config(warm_path, seed=0, restarts=1))

    def prepare(self) -> None:
        """Fit the comparison the query batches read (pool entry 0)."""
        self.target = inference.compare(
            self.pool[0][0], self.label, self.kernels,
            OptConfig(restarts=self.restarts, seed=0),
            effect_point=geo.boundary_points(self.boundary, 3)[1])

    def analysis_input(self, i: int):
        return self._config(self.pool[i % POOL][1], seed=i % POOL,
                            restarts=self.restarts)

    def analyze(self, cfg):
        return cli.analyze(cfg)

    def check_analysis(self, cfg, report) -> list[str]:
        out = cfg["output"]
        problems = checks.report_valid(out["report"], out["density_samples"],
                                       list(self.kernel_names),
                                       self.mc_samples)
        if cfg["seed"] == 0 and self.target is not None and \
                report["totals"]["total_log_bf"] != self.target.total_log_bf:
            problems.append("analyze differs from a direct compare "
                            "on the same data")
        return problems

    def query_input(self, j: int):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 1, j]))
        return self._points(rng, self.query_points)

    def query(self, X):
        axes = [np.linspace(lo, hi, self.grid_side)
                for lo, hi in zip(X.min(axis=0), X.max(axis=0))]
        grid = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, 2)
        labels = self.label.labels(X)
        profiles, preds = [], []
        for kr in self.target.kernel_results:
            profiles.append(geo.effect_profile(kr.fit_c, kr.fit_i,
                                               self.boundary, count=100))
            preds += [gp.predict(f, grid)
                      for f in (kr.fit_m0, kr.fit_c, kr.fit_i)]
        return {"labels": labels, "profiles": profiles, "preds": preds}

    def check_query(self, X, out) -> list[str]:
        problems = checks.labels_match_oracle(self.boundary.vertices, X,
                                              out["labels"])
        for mean, var in out["preds"]:
            problems += checks.predictions_valid(mean, var)
        for p in out["profiles"]:
            problems += checks.predictions_valid(p.means, p.variances)
        return problems

    def reference(self):
        return inference.compare(
            self._data(100, np.random.SeedSequence(0)), self.label,
            self.kernels, OptConfig(restarts=2, seed=0),
            effect_point=geo.boundary_points(self.boundary, 3)[1])


WORKLOADS = {w.name: w for w in (SimGrid, ThresholdLarge, Boundary2D)}
