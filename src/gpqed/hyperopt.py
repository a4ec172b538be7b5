"""Maximum a posteriori search over a hyperparameter vector.

A model's hyperparameters are a plain float array in the order given by
`hyper_names`: the kernel's free parameters, then the noise variance. Every
one of them is positive (the linear kernel's offset too: the kernel is
positive semi-definite only for an offset >= 0) and carries one vague
Gamma(GAMMA_SHAPE, GAMMA_RATE) = Gamma(0.01, 0.01) prior; MAP is taken in
z = log(theta), so `log_prior` adds the log-Jacobian, which keeps the
prior's density spike at zero from dragging the parameters into
degeneracy.

The first hyperparameter, the kernel variance v, is a scale: the covariance
at theta is v times the covariance at theta / v ** `scale_powers`.
Its optimum given the others has a closed form (`profiled_scale`), so the
search runs over the log unit-scale coordinates alone, from the points
`starts` gives: one per `OptConfig` restart, seeded by its seed, for a
stationary kernel, and restart 0 alone for the linear kernel, which has no
lengthscale mode for a restart to reach. Restart 0 starts at
`default_init`, which splits var(y) into a signal variance and a noise
variance estimated from the differences of nearest neighbours in X; those
depend on the data alone, so `data_scales` computes them once per
`inference.compare` call for every kernel and model.
`optimize` is a plain multi-start L-BFGS-B minimizer of whatever objective
it is handed, under the one stopping rule `STOPPING`. A later run also ends
as soon as it asks for a point within `REJOIN` of the best point of an
earlier converged run in every coordinate of the search (in log
coordinates, 10% in every hyperparameter), which is not evaluated: the
region-of-attraction rule of clustering multistart (Rinnooy Kan & Timmer
1987), over a fixed start set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.spatial import cKDTree

from .errors import (DataError, InputError, NumericalError,
                     OptimizationError, check_int, check_seed)
from .gp import Dataset
from .kernels import KernelSpec


def hyper_names(kernel: KernelSpec) -> list[str]:
    """Order of a model's hyperparameter array: the kernel variance, the
    lengthscale of a stationary kernel or the linear kernel's offset, then
    the noise variance."""
    return ["variance", "lengthscale" if kernel.stationary else "offset",
            "noise_variance"]


def scale_powers(kernel: KernelSpec) -> np.ndarray:
    """The power of the kernel variance v that each entry of a model's
    hyperparameter array scales with: the covariance at theta is v times the
    covariance at theta / v ** powers, whose variance is 1. The lengthscale
    does not scale (0); the variance, the linear offset and the noise do (1).
    """
    return np.array([1.0, 0.0 if kernel.stationary else 1.0, 1.0])


def kernel_and_noise(kernel: KernelSpec, theta) -> tuple[KernelSpec, float]:
    """Split a hyperparameter array into a kernel spec and a noise variance."""
    variance, p, noise = np.asarray(theta, dtype=float).tolist()
    l, offset = (p, None) if kernel.stationary else (None, p)
    return KernelSpec(kernel.family, variance, l, offset), noise


# shape and rate of the Gamma prior on every hyperparameter
GAMMA_SHAPE = GAMMA_RATE = 0.01
# the log of that prior's normalizing constant, b^a / Gamma(a)
GAMMA_LOG_NORM = GAMMA_SHAPE * math.log(GAMMA_RATE) - math.lgamma(GAMMA_SHAPE)


def log_prior(theta) -> tuple[float, np.ndarray]:
    """Summed log Gamma prior density of the positive array theta plus the
    log-Jacobian sum(log theta) of the search in log space, and its
    gradient with respect to log theta; NumericalError unless theta > 0."""
    theta = np.asarray(theta, dtype=float)
    if not theta.min() > 0.0:
        raise NumericalError("a hyperparameter is not positive")
    a, b = GAMMA_SHAPE, GAMMA_RATE
    value = (theta.size * GAMMA_LOG_NORM
             + a * float(np.log(theta).sum()) - b * float(theta.sum()))
    return value, a - b * theta


def profiled_scale(quad: float, n: int, unit: np.ndarray,
                   powers: np.ndarray) -> float:
    """The kernel variance u at which the log posterior of the
    hyperparameters unit * u ** powers is largest, given the rest.

    unit is a hyperparameter array whose variance unit[0] is 1, powers is
    `scale_powers`, and quad = r^T K1^-1 r is the quadratic term of the n
    observations' log-likelihood under the unit-scale covariance K1. In
    s = log u, log-likelihood, Gamma prior and log-Jacobian sum to
    (m a - n/2) s - quad e^-s / 2 - b c e^s plus terms free of s, with
    m = sum(powers), c = unit @ powers and the prior's shape a and rate b.
    That is strictly concave, and u is the positive root of
    b c u^2 + (n/2 - m a) u - quad / 2 = 0: the concentrated likelihood of
    kriging (Santner, Williams & Notz 2003) with the prior kept. Raises
    NumericalError unless quad is positive and finite, so that u is.
    """
    h = 0.5 * n - GAMMA_SHAPE * float(powers.sum())
    bc = GAMMA_RATE * float(unit @ powers)
    # the root in the form that does not cancel
    u = (quad / (h + math.sqrt(h * h + 2.0 * bc * quad))
         if 0.0 < quad < math.inf else 0.0)
    if not u > 0.0:
        raise NumericalError("no positive kernel variance maximizes the "
                             "log posterior")
    return u


@dataclass(frozen=True)
class OptConfig:
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        check_int("restarts", self.restarts, 1)
        check_seed(self.seed)


# L-BFGS-B's stopping rule for every run of every search
STOPPING = {"maxiter": 500, "gtol": 1e-5, "ftol": 1e-12}

# how near, in every coordinate, a later run must come back to the best
# point of an earlier converged run for `optimize` to end it; at 0.3 a run
# passing an earlier optimum on its way to a better one is cut (criterion
# 6's Lee repetition 33, se M0), so 0.1 keeps a margin below that
REJOIN = 0.1


def starts(kernel: KernelSpec, init, cfg: OptConfig) -> np.ndarray:
    """The search's start points in the unit-scale log coordinates
    w = log(theta[1:] / theta[0] ** powers[1:]) (powers from
    `scale_powers(kernel)`), one row per restart.

    init is the positive hyperparameter array of restart 0 (InputError if an
    entry is not > 0). A stationary kernel takes cfg.restarts rows: restart
    k > 0 starts at z = log(init) plus Normal(0, 0.5) draws on every entry,
    from a generator seeded with cfg.seed, taken to w. The linear kernel
    takes restart 0 alone, whatever cfg.restarts is: restarts are there to
    reach other lengthscale modes, and it has no lengthscale.
    """
    init = np.asarray(init, dtype=float)
    bad = np.flatnonzero(~(init > 0))
    if bad.size:
        raise InputError(f"hyperparameter {bad[0]} must be positive")
    powers = scale_powers(kernel)
    rng = np.random.default_rng(cfg.seed)
    later = cfg.restarts - 1 if kernel.stationary else 0
    z = np.log(init) + np.vstack([
        np.zeros(init.size), rng.normal(0.0, 0.5, size=(later, init.size))])
    return z[:, 1:] - powers[1:] * z[:, :1]


@dataclass(frozen=True)
class OptResult:
    outputs: tuple    # the best evaluation's outputs after value and gradient
    converged: bool   # whether that evaluation's run converged


class _Rejoined(Exception):
    """A later run has come back to the best point of an earlier converged
    run; raised through L-BFGS-B to end that run."""


def optimize(objective, points) -> OptResult:
    """Minimize objective by L-BFGS-B from each row of points; return the
    best evaluation.

    objective(x) returns the value, its gradient and any further outputs;
    an evaluation that raises NumericalError, or whose value or gradient is
    not finite, counts as failed (value 1e30, zero gradient). Each run stops
    by `STOPPING` and counts as converged when L-BFGS-B reports success or
    its final gradient is below STOPPING["gtol"]. A run also ends, without
    evaluating it, at the first point x that L-BFGS-B asks for (its start
    included) with max |x - x_best| < `REJOIN` (0.1), when the best
    evaluation so far, at x_best, comes from an earlier converged run: the
    run has come back to that optimum, and going on would change the result
    by about the stopping tolerance. With one point, as `starts` gives for
    the linear kernel, the rule never applies.

    The result holds the outputs of the evaluation with the lowest value
    over all runs, the first of equals winning, and its run's `converged`;
    a run ended by `REJOIN` never holds it, and no point is evaluated
    again. Raises OptimizationError when no evaluation succeeds.
    """
    # (value, outputs, run, x); a failed evaluation's 1e30 never beats it
    best = (1e30, None, None, None)
    converged = []

    def tracked(x, run):
        nonlocal best
        _, _, best_run, best_x = best
        if (best_run is not None and best_run < run and converged[best_run]
                and np.max(np.abs(x - best_x)) < REJOIN):
            raise _Rejoined
        try:
            value, grad, *outputs = objective(x)
        except NumericalError:
            return 1e30, np.zeros_like(x)
        if not (np.isfinite(value) and np.isfinite(grad).all()):
            return 1e30, np.zeros_like(x)
        if value < best[0]:
            best = (value, tuple(outputs), run, x.copy())
        return value, grad

    for run, x0 in enumerate(points):
        try:
            res = minimize(tracked, x0, args=(run,), jac=True,
                           method="L-BFGS-B", options=STOPPING)
        except _Rejoined:
            # this run holds no best evaluation, so its entry is never read
            converged.append(False)
            continue
        # res.jac is the gradient L-BFGS-B already holds at res.x
        converged.append(bool(np.max(np.abs(res.jac)) < STOPPING["gtol"])
                         or res.success)
    _, outputs, run, _ = best
    if outputs is None:
        raise OptimizationError("all optimizer restarts diverged")
    return OptResult(outputs=outputs, converged=converged[run])


@dataclass(frozen=True)
class DataScales:
    """The part of `default_init` that depends on the data alone."""

    var_y: float        # var(y), floored at 1e-6
    noise_frac: float   # the noise variance's fraction of var_y
    half_range: float   # the mean per-dimension half-range of X


def data_scales(data: Dataset) -> DataScales:
    """var(y), the noise fraction and the half-range that `default_init`
    starts every kernel and model from (its docstring gives the rules).

    `inference.compare` computes them once per call and hands them to
    every fit; they are not kept with the data. DataError unless data has
    two rows or more, as a row's nearest other row needs: the one place a
    fit's two-observation rule is checked.
    """
    if data.n < 2:
        raise DataError("need at least 2 observations")
    var_y = float(np.var(data.y))
    # with duplicate rows a row's own index may come second, or not at all
    _, nearest = cKDTree(data.X).query(data.X, k=2)
    own = nearest[:, 0] == np.arange(data.n)
    other = np.where(own, nearest[:, 1], nearest[:, 0])
    noise = 0.5 * float(np.mean((data.y - data.y[other]) ** 2))
    # a constant y has no noise to estimate: the lower bound
    frac = min(max(noise / var_y, 1e-3), 0.9) if var_y > 0 else 1e-3
    ranges = data.X.max(axis=0) - data.X.min(axis=0)
    half_range = float(np.mean(ranges)) / 2.0
    return DataScales(var_y=max(var_y, 1e-6), noise_frac=frac,
                      half_range=half_range if half_range > 0 else 1.0)


def default_init(kernel: KernelSpec, scales: DataScales) -> np.ndarray:
    """Data-driven starting values, ordered by `hyper_names(kernel)`, from
    the `data_scales` of the data, which `inference.compare` computes once
    for all its kernels and models.

    noise_variance <- s2, the nearest-neighbour estimate of the noise
    variance, 0.5 * mean_i (y_i - y_nn(i)) ** 2, where nn(i) is the nearest
    other row of X in Euclidean distance (Rice 1984 in 1-D; Devroye, Gyorfi,
    Lugosi & Walk 2018 for any p), bounded to [1e-3, 0.9] * var(y);
    variance <- var(y) - s2, so that var(y) splits into signal and noise.
    Both are fractions of var(y) taken before var(y) is floored at 1e-6, so
    the start's noise coordinate log(noise / variance) in w does not move
    with the units of y. lengthscale <- mean per-dimension half-range of X
    (1 when every row of X is the same), which w does not scale;
    offset <- 1 whatever the units, so the linear kernel's offset
    coordinate log(1 / variance) does move: y times 1000 takes it down by
    log(1e6) = 13.8.
    """
    frac, var_y = scales.noise_frac, scales.var_y
    return np.array([(1.0 - frac) * var_y,
                     scales.half_range if kernel.stationary else 1.0,
                     frac * var_y])
