"""Maximize the log marginal likelihood over a hyperparameter vector.

A model's hyperparameters are a plain float array in the order given by
`hyper_names`: the kernel's free parameters, then the noise variance. Every
one of them is positive (the linear kernel's offset too: the kernel is
positive semi-definite only for an offset >= 0). The objective is regularized
by one vague Gamma(GAMMA_SHAPE, GAMMA_RATE) = Gamma(0.01, 0.01) prior on each
parameter; the reported objective value is the prior-free log marginal
likelihood at the optimum, which is what enters the BIC. Optimization runs
over z = log(theta), using L-BFGS-B with the objective's analytic gradient
carried through the prior, the log transform and its log-Jacobian.
Everything is deterministic given the seed.
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
    theta_hat: np.ndarray        # hyperparameters at the best restart
    objective_value: float       # prior-free log marginal likelihood
    converged: bool
    extra: tuple = ()            # the objective's other outputs at theta_hat
    reevaluations: int = 0       # 1 if theta_hat had to be evaluated again


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
    """Maximize objective + log prior over theta; return the best restart.

    objective(theta) returns the value, its gradient with respect to theta
    and optionally further outputs, and raises NumericalError where it
    cannot be evaluated. theta is a positive float array shaped like
    `init` (InputError if an entry of `init` is not > 0), searched as
    z = log(theta) under the Gamma prior. cfg.restarts runs are made
    (InputError if fewer than 1): restart 0 starts at `init`, and later
    restarts perturb each z by Normal(0, 0.5) draws from a generator seeded
    with cfg.seed. Each runs for at most cfg.max_iterations iterations and
    counts as converged when its gradient is below cfg.tolerance.
    The best restart is chosen by the regularized objective, ties broken by
    the lowest restart index. Raises OptimizationError when every restart
    fails to produce a finite objective.

    theta_hat is not evaluated again: `objective_value` and `extra` (the
    further outputs) come from the evaluation L-BFGS-B made there, matched
    on the exact bytes of theta. Only the best finished restart's outputs
    are held. Should theta_hat not be an evaluated point, it is evaluated
    once more and `reevaluations` is 1.
    """
    if cfg.restarts < 1:
        raise InputError("restarts must be >= 1")
    init = np.asarray(init, dtype=float)
    bad = np.flatnonzero(~(init > 0))
    if bad.size:
        raise InputError(f"hyperparameter {bad[0]} must be positive")
    z0 = np.log(init)
    rng = np.random.default_rng(cfg.seed)
    # L-BFGS-B stops at its last evaluated point or, after a failed line
    # search, back at its last iterate: a restart holds the evaluations at
    # both, as (bytes of theta, outputs)
    last = iterate = None

    def recorded(theta):
        nonlocal last, iterate
        # a trial point that is not the iterate can no longer be returned
        last = None
        out = objective(theta)
        last = (theta.tobytes(), out)
        if iterate is None:
            iterate = last
        return out

    def new_iterate(_):
        # an iterate is the point the line search evaluated last
        nonlocal iterate
        iterate = last

    best = None
    for k in range(cfg.restarts):
        z_init = z0 if k == 0 else z0 + rng.normal(0.0, 0.5, size=len(z0))
        last = iterate = None
        # a failed start has a zero gradient, so L-BFGS-B stops right there
        res = minimize(_neg_log_posterior, z_init,
                       args=(recorded,), jac=True,
                       method="L-BFGS-B", callback=new_iterate,
                       options={"maxiter": cfg.max_iterations,
                                "gtol": cfg.tolerance, "ftol": 1e-12})
        if res.fun >= 1e30:
            continue
        # res.jac is the gradient L-BFGS-B already holds at res.x
        converged = (bool(np.max(np.abs(res.jac)) < cfg.tolerance)
                     or res.success)
        if best is None or -res.fun > best[0]:
            key = _from_unconstrained(res.x).tobytes()
            held = [e[1] for e in (last, iterate) if e and e[0] == key]
            best = (-res.fun, res.x, converged, held[0] if held else None)
    if best is None:
        raise OptimizationError("all optimizer restarts diverged")
    _, z_hat, converged, outputs = best
    theta_hat = _from_unconstrained(z_hat)
    reevaluations = int(outputs is None)
    if reevaluations:
        outputs = objective(theta_hat)
    value, _, *extra = outputs
    return OptResult(theta_hat=theta_hat, objective_value=float(value),
                     converged=converged, extra=tuple(extra),
                     reevaluations=reevaluations)


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
