"""Maximize the log marginal likelihood over a hyperparameter vector.

A model's hyperparameters are a plain float array in the order given by
`hyper_names`: the kernel's free parameters, then the noise variance. Every
one of them is positive (the linear kernel's offset too: the kernel is
positive semi-definite only for an offset >= 0). The objective is regularized
by one vague Gamma(GAMMA_SHAPE, GAMMA_RATE) = Gamma(0.01, 0.01) prior on each
parameter; the reported objective value is the prior-free log marginal
likelihood at the best point evaluated, which is what enters the BIC.

The first hyperparameter, the kernel variance v, is a scale: the covariance
is v times a unit-scale matrix of the others' ratios to it (`scale_powers`).
Its optimum given the others has a closed form (`profiled_scale`), so the
objective profiles it out and L-BFGS-B searches only the other coordinates
of z = log(theta), with the objective's analytic gradient carried through
the prior, the log transform and its log-Jacobian. Everything is
deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    *values, noise = np.asarray(theta, dtype=float).tolist()
    return replace(kernel, **dict(zip(kernel.param_names(), values))), noise


# shape and rate of the Gamma prior on every hyperparameter
GAMMA_SHAPE = GAMMA_RATE = 0.01


def log_prior(theta) -> float:
    """Summed log Gamma prior density of the positive array theta."""
    total = 0.0
    a, b = GAMMA_SHAPE, GAMMA_RATE
    for value in map(float, theta):
        total += (a * math.log(b) - math.lgamma(a)
                  + (a - 1.0) * math.log(value) - b * value)
    return total


def log_prior_grad(theta) -> np.ndarray:
    """Gradient of `log_prior` with respect to theta."""
    theta = np.asarray(theta, dtype=float)
    return (GAMMA_SHAPE - 1.0) / theta - GAMMA_RATE


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
    h = 0.5 * n - GAMMA_SHAPE * float(np.sum(powers))
    bc = GAMMA_RATE * float(unit @ powers)
    # the root in the form that does not cancel
    u = (quad / (h + math.sqrt(h * h + 2.0 * bc * quad))
         if 0.0 < quad < math.inf else 0.0)
    if not u > 0.0:
        raise NumericalError("no positive kernel variance maximizes the "
                             "log posterior")
    return u


@dataclass(frozen=True)
class OptResult:
    theta_hat: np.ndarray        # the best point evaluated
    objective_value: float       # prior-free log marginal likelihood
    converged: bool
    extra: tuple = ()            # the objective's other outputs at theta_hat


@dataclass(frozen=True)
class OptConfig:
    restarts: int = 5
    seed: int = 0
    max_iterations: int = 500
    tolerance: float = 1e-5


def _from_unconstrained(z):
    # clip keeps exp() strictly positive and finite at extreme steps
    return np.exp(np.clip(np.asarray(z, dtype=float), -700.0, 700.0))


def _neg_log_posterior(w, scale, objective):
    """Minus (objective + log prior + log-Jacobian) at the point the
    objective evaluates for theta = exp([scale, *w]), and its gradient in w.
    (1e30, zeros) marks a failed evaluation."""
    theta = _from_unconstrained(np.concatenate(([scale], w)))
    try:
        val, grad, theta, *_ = objective(theta)
    except NumericalError:
        return 1e30, np.zeros_like(w)
    val += log_prior(theta)
    grad = grad + log_prior_grad(theta)
    # log-Jacobian of the log transform: MAP is taken in log space, which
    # keeps the Gamma prior's density spike at zero from dragging the
    # parameters into degeneracy
    val += float(np.sum(np.log(theta)))
    # chain rule through theta = exp(z), plus the log-Jacobian's gradient
    grad = grad * theta + 1.0
    if not (np.isfinite(val) and np.all(np.isfinite(grad))):
        return 1e30, np.zeros_like(w)
    # w moves z[1:] one for one; a profiling objective also moves theta
    # along its scale, where the log posterior is flat (envelope theorem)
    return -val, -grad[1:]


def optimize(objective, init, cfg: OptConfig) -> OptResult:
    """Maximize objective + log prior over theta; return the best point.

    objective(theta) returns the value at the point it evaluates, the
    value's gradient with respect to theta there, that point, and
    optionally further outputs; it raises NumericalError where it cannot be
    evaluated. theta is a positive float array shaped like `init` (at least
    two entries, InputError if one is not > 0), searched as z = log(theta)
    under the Gamma prior. The objective evaluates either theta itself or
    theta with its scale theta[0] moved to its optimum given the rest (as
    `profiled_scale` gives it), and L-BFGS-B searches z[1:] with z[0] held
    at its start; a profiling objective makes that a search of the unit
    coordinates theta[1:] / theta[0] ** powers, shifted by a constant.

    cfg.restarts runs are made (InputError if fewer than 1): restart 0
    starts at `init`, and later restarts perturb each entry of z by
    Normal(0, 0.5) draws from a generator seeded with cfg.seed. Each runs
    for at most cfg.max_iterations iterations and counts as converged when
    its gradient is below cfg.tolerance.

    theta_hat is the evaluated point with the best regularized objective
    over all restarts, the first of equals winning. `objective_value` and
    `extra` (the further outputs) are those of that evaluation, and
    `converged` is its restart's flag; theta_hat is not evaluated again.
    Raises OptimizationError when no evaluation gives a finite objective.
    """
    if cfg.restarts < 1:
        raise InputError("restarts must be >= 1")
    init = np.asarray(init, dtype=float)
    if init.size < 2:
        raise InputError("need a scale and at least one more hyperparameter")
    bad = np.flatnonzero(~(init > 0))
    if bad.size:
        raise InputError(f"hyperparameter {bad[0]} must be positive")
    z0 = np.log(init)
    rng = np.random.default_rng(cfg.seed)
    # (minimized value, outputs, restart); a failed evaluation's 1e30 never
    # beats the start
    best = (1e30, None, None)

    def tracked(w, scale, restart):
        nonlocal best
        held = []

        def recorded(theta):
            held.append(objective(theta))
            return held[0]

        value, grad = _neg_log_posterior(w, scale, recorded)
        if value < best[0]:
            best = (value, held[0], restart)
        return value, grad

    converged = []
    for k in range(cfg.restarts):
        z_init = z0 if k == 0 else z0 + rng.normal(0.0, 0.5, size=len(z0))
        res = minimize(tracked, z_init[1:], args=(z_init[0], k), jac=True,
                       method="L-BFGS-B",
                       options={"maxiter": cfg.max_iterations,
                                "gtol": cfg.tolerance, "ftol": 1e-12})
        # res.jac is the gradient L-BFGS-B already holds at res.x
        converged.append(bool(np.max(np.abs(res.jac)) < cfg.tolerance)
                         or res.success)
    _, outputs, restart = best
    if outputs is None:
        raise OptimizationError("all optimizer restarts diverged")
    value, _, theta_hat, *extra = outputs
    return OptResult(theta_hat=theta_hat, objective_value=float(value),
                     converged=converged[restart], extra=tuple(extra))


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
