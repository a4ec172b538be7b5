"""Simulation harness: synthetic latent functions, data generation, and
effect-size recovery metrics (posterior expectations, RMSE, log Bayes
factors) aggregated over repeated analyses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import inference
from .errors import GpqedError, InputError, check_int, check_number, check_seed
from .gp import Dataset
from .hyperopt import OptConfig
from .inference import EffectPosterior, Threshold
from .kernels import KernelSpec


# ---------------------------------------------------------------------------
# latent functions; piecewise cases split at x0 = 0, x < 0 takes the first
# branch

def _poly(*coeffs):
    c = np.array(coeffs, dtype=float)

    def f(x):
        return np.polynomial.polynomial.polyval(x, c)
    return f


def _piecewise(left, right):
    def f(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, left(x), right(x))
    return f


LATENT_FUNCTIONS = {
    "Linear": _poly(0.23, 0.89),
    "Quad": _piecewise(_poly(0, 0, 3.0), _poly(0, 0, 4.0)),
    "Cubic": _piecewise(_poly(0, 0, 0, 3.0), _poly(0, 0, 0, 4.0)),
    "Lee": _piecewise(_poly(0.48, 1.27, 7.18, 20.21, 21.54, 7.33),
                      _poly(0.48, 0.84, -3.0, 7.99, -9.01, 3.56)),
    "CATE1": _poly(0.42, 0.84, -3.0, 7.99, -9.01, 3.56),
    "CATE2": _poly(0.42, 0.84, 0.0, 7.99, -9.01, 3.56),
    "Ludwig": _piecewise(_poly(3.71, 2.3, 3.28, 1.45, 0.23, 0.03),
                         _poly(3.71, 18.49, -54.81, 74.3, -45.02, 9.83)),
    # the -0.901 quartic coefficient is printed with a comma decimal in the
    # source table; read here as a decimal point
    "Curvature": _piecewise(_poly(0.48, 1.27, -3.44, 14.147, 23.694, 10.995),
                            _poly(0.48, 0.84, -0.3, -2.397, -0.901, 3.56)),
    "Sine": np.sin,
}


def _latent(name):
    """The latent function called name; InputError naming the valid names
    otherwise. Membership is tested in a list, so that an unhashable name
    is unknown, not a TypeError."""
    if name not in list(LATENT_FUNCTIONS):
        raise InputError(f"unknown latent function {name!r}; "
                         f"valid: {sorted(LATENT_FUNCTIONS)}")
    return LATENT_FUNCTIONS[name]


def eval_latent(name: str, x):
    """Evaluate a named latent function at x (scalar or array); InputError
    for an unknown name."""
    return _latent(name)(np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# configuration and generation

@dataclass(frozen=True)
class SimConfig:
    """One simulation cell's settings; InputError for a value it rejects."""

    latent: str
    n: int = 100
    effect: float = 0.0          # injected discontinuity d
    noise_sd: float = 1.0
    threshold: float = 0.0
    seed: int = 0
    repetitions: int = 100

    def __post_init__(self):
        _latent(self.latent)
        # numpy takes only integers as sizes and seeds, and rep_seed's
        # SeedSequence only non-negative ones; a bool is not one
        check_int("n", self.n, 10)
        check_int("repetitions", self.repetitions, 1)
        check_int("seed", self.seed, 0)
        for name in ("effect", "noise_sd", "threshold"):
            check_number(name, getattr(self, name))
        if not self.noise_sd > 0:
            raise InputError("noise sd must be positive")
        # x ~ U(-1, 1), so any other threshold leaves a side empty
        if not -1.0 < self.threshold < 1.0:
            raise InputError("threshold must lie strictly between -1 and 1")


def generate(config: SimConfig, seed=None) -> Dataset:
    """x ~ U(-1, 1); y ~ N(f(x) + d * [x >= x0], sigma^2), reproducibly;
    the jump's side is the one `Threshold(x0).labels` gives the analysis."""
    rng = np.random.default_rng(
        check_seed(config.seed if seed is None else seed))
    x = rng.uniform(-1.0, 1.0, size=config.n)
    f = eval_latent(config.latent, x)
    jump = config.effect * Threshold(config.threshold).labels(x)
    y = f + jump + config.noise_sd * rng.standard_normal(config.n)
    return Dataset(x.reshape(-1, 1), y)


# ---------------------------------------------------------------------------
# metrics

def rmse_closed_form(effect: EffectPosterior, true_d: float,
                     m1_only: bool = False) -> float:
    """sqrt E[(d_hat - true_d)^2] under the posterior, in closed form.

    With m1_only the expectation is under the Gaussian part alone; otherwise
    under the full spike-plus-Gaussian mixture.
    """
    gauss = effect.m1_var + (effect.m1_mean - true_d) ** 2
    if m1_only:
        return float(np.sqrt(gauss))
    return float(np.sqrt(effect.spike_weight * true_d ** 2
                         + effect.gaussian_weight * gauss))


# the per-kernel metrics of a cell, in the order run_cell computes them
METRICS = ("log_bf", "effect_m1", "effect_bma", "rmse_m1", "rmse_bma")


# ---------------------------------------------------------------------------
# grid runner

DEFAULT_EFFECT_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class CellSummary:
    """Aggregates over repetitions for one (latent, d) grid cell; the fields
    are in the order of a cell record in the `simulate` JSON summary."""

    latent: str
    effect: float
    repetitions: int
    failures: int
    mean_total_log_bf: float
    se_total_log_bf: float
    # mean_<m> and se_<m> for each m in METRICS, keyed by kernel label
    mean_log_bf: dict[str, float]
    se_log_bf: dict[str, float]
    mean_effect_m1: dict[str, float]
    se_effect_m1: dict[str, float]
    mean_effect_bma: dict[str, float]
    se_effect_bma: dict[str, float]
    mean_rmse_m1: dict[str, float]
    se_rmse_m1: dict[str, float]
    mean_rmse_bma: dict[str, float]
    se_rmse_bma: dict[str, float]


def _mean_se(values: list[float]) -> tuple[float, float]:
    """Mean and standard error; NaN for both when there are no values."""
    if not values:
        return np.nan, np.nan
    values = np.array(values)
    m = float(np.mean(values))
    if len(values) < 2:
        return m, 0.0
    return m, float(np.std(values, ddof=1) / np.sqrt(len(values)))


def rep_seed(master_seed: int, cell_index: int, rep: int,
             stream: int = 0) -> np.random.SeedSequence:
    """Deterministic per-repetition seed derived from the master seed."""
    return np.random.SeedSequence([master_seed, cell_index, rep, stream])


def repetition(config: SimConfig, cell_index: int, rep: int,
               opt: OptConfig = OptConfig()) -> tuple[Dataset, OptConfig]:
    """Repetition rep of grid cell cell_index: its data, drawn from
    rep_seed(config.seed, cell_index, rep), and opt with the optimizer seed
    drawn from stream 1 of that sequence."""
    data = generate(config, seed=rep_seed(config.seed, cell_index, rep))
    seed = rep_seed(config.seed, cell_index, rep, stream=1).generate_state(1)
    return data, replace(opt, seed=int(seed[0]))


def run_cell(config: SimConfig, kernel_list: list[KernelSpec],
             cell_index: int = 0,
             opt: OptConfig = OptConfig()) -> CellSummary:
    """Run `repetitions` independent analyses for one grid cell, each on the
    data and optimizer seed `repetition` draws (opt gives the restarts), and
    aggregate."""
    label = Threshold(value=config.threshold)
    labels = inference.kernel_labels(kernel_list)
    values = {(m, lab): [] for m in METRICS for lab in labels}
    totals = []
    failures = 0
    for rep in range(config.repetitions):
        data, rep_opt = repetition(config, cell_index, rep, opt)
        try:
            result = inference.compare(data, label, kernel_list, rep_opt)
        except GpqedError:
            failures += 1
            continue
        totals.append(result.total_log_bf)
        for lab, kr in zip(labels, result.kernel_results):
            e = kr.effect
            row = (kr.log_bf10, e.m1_mean, e.bma_mean,
                   rmse_closed_form(e, config.effect, m1_only=True),
                   rmse_closed_form(e, config.effect))
            for m, v in zip(METRICS, row):
                values[m, lab].append(v)

    stats = {f"{s}_{m}": {} for m in METRICS for s in ("mean", "se")}
    for (m, lab), v in values.items():
        stats[f"mean_{m}"][lab], stats[f"se_{m}"][lab] = _mean_se(v)
    mt, st = _mean_se(totals)
    return CellSummary(
        latent=config.latent, effect=config.effect,
        repetitions=config.repetitions, failures=failures,
        mean_total_log_bf=mt, se_total_log_bf=st, **stats)


def run_grid(latents: list[str], effects: list[float], template: SimConfig,
             kernel_list: list[KernelSpec],
             opt: OptConfig = OptConfig()) -> tuple[CellSummary, ...]:
    """Sweep (latent, d) cells, in the order of their product; per-cell
    failures are recorded, never fatal. Every cell's config is checked
    before the first cell runs."""
    if not latents or not effects:
        raise InputError("latent and effect grids must be non-empty")
    configs = [replace(template, latent=latent, effect=d)
               for latent, d in itertools.product(latents, effects)]
    return tuple(run_cell(config, kernel_list, cell_index=i, opt=opt)
                 for i, config in enumerate(configs))
