"""Maximize the log marginal likelihood over a hyperparameter vector.

A model's hyperparameters are a plain float array in the order given by
`hyper_names`: the kernel's free parameters, then the noise variance. Every
one of them is positive (the linear kernel's offset too: the kernel is
positive semi-definite only for an offset >= 0). The objective is regularized
by one vague Gamma(GAMMA_SHAPE, GAMMA_RATE) = Gamma(0.01, 0.01) prior on each
parameter; the reported objective value is the prior-free log marginal
likelihood at the best point evaluated, which is what enters the BIC.
Optimization runs over z = log(theta), using L-BFGS-B with the objective's
analytic gradient carried through the prior, the log transform and its
log-Jacobian. Everything is deterministic given the seed.
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


def _neg_log_posterior(z, objective):
    """Minus (objective + log prior + log-Jacobian) at z = log(theta), and
    its gradient in z. (1e30, zeros) marks a failed evaluation."""
    theta = _from_unconstrained(z)
    try:
        val, grad, *_ = objective(theta)
    except NumericalError:
        return 1e30, np.zeros_like(z)
    val += log_prior(theta)
    grad = grad + log_prior_grad(theta)
    # log-Jacobian of the log transform: MAP is taken in log space, which
    # keeps the Gamma prior's density spike at zero from dragging the
    # parameters into degeneracy
    val += float(np.sum(z))
    # chain rule through theta = exp(z), plus the log-Jacobian's gradient
    grad = grad * theta + 1.0
    if not (np.isfinite(val) and np.all(np.isfinite(grad))):
        return 1e30, np.zeros_like(z)
    return -val, -grad


def optimize(objective, init, cfg: OptConfig) -> OptResult:
    """Maximize objective + log prior over theta; return the best point.

    objective(theta) returns the value, its gradient with respect to theta
    and optionally further outputs, and raises NumericalError where it
    cannot be evaluated. theta is a positive float array shaped like
    `init` (InputError if an entry of `init` is not > 0), searched as
    z = log(theta) under the Gamma prior. cfg.restarts runs are made
    (InputError if fewer than 1): restart 0 starts at `init`, and later
    restarts perturb each z by Normal(0, 0.5) draws from a generator seeded
    with cfg.seed. Each runs for at most cfg.max_iterations iterations and
    counts as converged when its gradient is below cfg.tolerance.

    theta_hat is the evaluated point with the best regularized objective
    over all restarts, the first of equals winning. `objective_value` and
    `extra` (the further outputs) are those of that evaluation, and
    `converged` is its restart's flag; theta_hat is not evaluated again.
    Raises OptimizationError when no evaluation gives a finite objective.
    """
    if cfg.restarts < 1:
        raise InputError("restarts must be >= 1")
    init = np.asarray(init, dtype=float)
    bad = np.flatnonzero(~(init > 0))
    if bad.size:
        raise InputError(f"hyperparameter {bad[0]} must be positive")
    z0 = np.log(init)
    rng = np.random.default_rng(cfg.seed)
    # (minimized value, theta, outputs, restart); a failed evaluation's
    # 1e30 never beats the start
    best = (1e30, None, None, None)

    def tracked(z, restart):
        nonlocal best
        held = []

        def recorded(theta):
            held.append((theta, objective(theta)))
            return held[0][1]

        value, grad = _neg_log_posterior(z, recorded)
        if value < best[0]:
            best = (value, *held[0], restart)
        return value, grad

    converged = []
    for k in range(cfg.restarts):
        z_init = z0 if k == 0 else z0 + rng.normal(0.0, 0.5, size=len(z0))
        res = minimize(tracked, z_init, args=(k,), jac=True,
                       method="L-BFGS-B",
                       options={"maxiter": cfg.max_iterations,
                                "gtol": cfg.tolerance, "ftol": 1e-12})
        # res.jac is the gradient L-BFGS-B already holds at res.x
        converged.append(bool(np.max(np.abs(res.jac)) < cfg.tolerance)
                         or res.success)
    _, theta_hat, outputs, restart = best
    if theta_hat is None:
        raise OptimizationError("all optimizer restarts diverged")
    value, _, *extra = outputs
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
