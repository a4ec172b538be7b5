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
`starts` gives, one per `OptConfig` restart and seeded by its seed.
`optimize` is a plain multi-start L-BFGS-B minimizer of whatever objective
it is handed, under the one stopping rule `STOPPING`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import InputError, NumericalError, OptimizationError
from .gp import Dataset
from .kernels import KernelSpec


def hyper_names(kernel: KernelSpec) -> list[str]:
    """Order of a model's hyperparameter array: kernel parameters, then noise."""
    return kernel.param_names() + ["noise_variance"]


def scale_powers(kernel: KernelSpec) -> np.ndarray:
    """The power of the kernel variance v that each entry of a model's
    hyperparameter array scales with: the covariance at theta is v times the
    covariance at theta / v ** powers, whose variance is 1. The lengthscale
    does not scale (0); the variance, the linear offset and the noise do (1).
    """
    return np.array([0.0 if name == "lengthscale" else 1.0
                     for name in hyper_names(kernel)])


def kernel_and_noise(kernel: KernelSpec, theta) -> tuple[KernelSpec, float]:
    """Split a hyperparameter array into a kernel spec and a noise variance."""
    variance, p, noise = np.asarray(theta, dtype=float).tolist()
    l, offset = (p, None) if kernel.stationary else (None, p)
    return KernelSpec(kernel.family, variance, l, offset), noise


# shape and rate of the Gamma prior on every hyperparameter
GAMMA_SHAPE = GAMMA_RATE = 0.01


def log_prior(theta) -> tuple[float, np.ndarray]:
    """Summed log Gamma prior density of the positive array theta plus the
    log-Jacobian sum(log theta) of the search in log space, and its
    gradient with respect to log theta; NumericalError unless theta > 0."""
    theta = np.asarray(theta, dtype=float)
    if not theta.min() > 0.0:
        raise NumericalError("a hyperparameter is not positive")
    a, b = GAMMA_SHAPE, GAMMA_RATE
    value = (theta.size * (a * math.log(b) - math.lgamma(a))
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


# L-BFGS-B's stopping rule for every run of every search
STOPPING = {"maxiter": 500, "gtol": 1e-5, "ftol": 1e-12}


def starts(init, powers, cfg: OptConfig) -> np.ndarray:
    """The restarts' start points in the unit-scale log coordinates
    w = log(theta[1:] / theta[0] ** powers[1:]), one row per restart.

    init is the positive hyperparameter array of restart 0 (InputError if an
    entry is not > 0, or if cfg.restarts < 1). Restart k > 0 starts at
    z = log(init) plus Normal(0, 0.5) draws on every entry, from a generator
    seeded with cfg.seed, taken to w.
    """
    if cfg.restarts < 1:
        raise InputError("restarts must be >= 1")
    init = np.asarray(init, dtype=float)
    bad = np.flatnonzero(~(init > 0))
    if bad.size:
        raise InputError(f"hyperparameter {bad[0]} must be positive")
    rng = np.random.default_rng(cfg.seed)
    z = np.log(init) + np.vstack([
        np.zeros(init.size),
        rng.normal(0.0, 0.5, size=(cfg.restarts - 1, init.size))])
    return z[:, 1:] - powers[1:] * z[:, :1]


@dataclass(frozen=True)
class OptResult:
    outputs: tuple    # the best evaluation's outputs after value and gradient
    converged: bool   # whether that evaluation's run converged


def optimize(objective, points) -> OptResult:
    """Minimize objective by L-BFGS-B from each row of points; return the
    best evaluation.

    objective(x) returns the value, its gradient and any further outputs;
    an evaluation that raises NumericalError, or whose value or gradient is
    not finite, counts as failed (value 1e30, zero gradient). Each run stops
    by `STOPPING` and counts as converged when L-BFGS-B reports success or
    its final gradient is below STOPPING["gtol"].

    The result holds the outputs of the evaluation with the lowest value
    over all runs, the first of equals winning, and its run's `converged`;
    no point is evaluated again. Raises OptimizationError when no evaluation
    succeeds.
    """
    # (value, outputs, run); a failed evaluation's 1e30 never beats it
    best = (1e30, None, None)

    def tracked(x, run):
        nonlocal best
        try:
            value, grad, *outputs = objective(x)
        except NumericalError:
            return 1e30, np.zeros_like(x)
        if not (np.isfinite(value) and np.isfinite(grad).all()):
            return 1e30, np.zeros_like(x)
        if value < best[0]:
            best = (value, tuple(outputs), run)
        return value, grad

    converged = []
    for run, x0 in enumerate(points):
        res = minimize(tracked, x0, args=(run,), jac=True, method="L-BFGS-B",
                       options=STOPPING)
        # res.jac is the gradient L-BFGS-B already holds at res.x
        converged.append(bool(np.max(np.abs(res.jac)) < STOPPING["gtol"])
                         or res.success)
    _, outputs, run = best
    if outputs is None:
        raise OptimizationError("all optimizer restarts diverged")
    return OptResult(outputs=outputs, converged=converged[run])


def default_init(kernel: KernelSpec, data: Dataset) -> np.ndarray:
    """Data-driven starting values, ordered by `hyper_names(kernel)`.

    variance <- var(y) (floored at 1e-6), lengthscale <- mean per-dimension
    half-range of X, noise_variance <- 0.1 * var(y), offset <- 1.
    """
    var_y = float(np.var(data.y))
    if var_y < 1e-6:
        var_y = 1e-6
    ranges = data.X.max(axis=0) - data.X.min(axis=0)
    half_range = float(np.mean(ranges)) / 2.0
    if half_range <= 0:
        half_range = 1.0
    start = {"variance": var_y, "lengthscale": half_range, "offset": 1.0,
             "noise_variance": 0.1 * var_y}
    return np.array([start[name] for name in hyper_names(kernel)])
