"""Shared fixtures and independent oracles used across the test suite.

The oracles deliberately avoid the package's Cholesky code path: log marginal
likelihoods come from a dense multivariate-normal density and predictions
from explicit Gaussian conditioning with a dense solve. Covariances of single
point pairs come straight from the formulas in the kernels module docstring.
"""

import dataclasses
import os

# One BLAS thread, set before numpy is first imported: criterion 6's n = 200
# fits ran about three times slower with two OpenBLAS threads on a 2-core
# machine. An explicit setting wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from gpqed import inference, kernels
from gpqed.gp import Dataset
from gpqed.inference import LabelFunction
from gpqed.kernels import KernelSpec

ALL_FAMILY_NAMES = ["linear", "exp", "matern32", "se"]


def random_kernel(rng, name=None) -> KernelSpec:
    """A random kernel family with random valid hyperparameters."""
    name = name if name is not None else rng.choice(ALL_FAMILY_NAMES)
    variance = float(rng.uniform(0.2, 3.0))
    if name == "linear":
        # nonnegative offset keeps the linear kernel PSD
        return kernels.from_name("linear", variance=variance,
                                 offset=float(rng.uniform(0.0, 2.0)))
    return kernels.from_name(name, variance=variance,
                             lengthscale=float(rng.uniform(0.3, 3.0)))


def random_instance(rng, n=None, p=1, kernel_name=None):
    """A random small GP regression instance."""
    n = int(rng.integers(2, 9)) if n is None else n
    X = rng.uniform(-3.0, 3.0, size=(n, p))
    y = rng.normal(size=n)
    kern = random_kernel(rng, kernel_name)
    noise = float(rng.uniform(0.05, 1.0))
    return Dataset(X, y), kern, noise


def oracle_kernel(spec, x, xp) -> float:
    """k(x, x') for two points of equal dimension, one scalar at a time."""
    x = np.asarray(x, dtype=float).reshape(-1)
    xp = np.asarray(xp, dtype=float).reshape(-1)
    assert x.shape == xp.shape
    v = spec.variance
    if spec.family == "linear":
        return v * float(x @ xp) + spec.offset
    r, l = float(np.linalg.norm(x - xp)), spec.lengthscale
    if spec.family == "exponential":
        return v * np.exp(-r / l)
    if spec.family == "matern32":
        return v * (1.0 + np.sqrt(3.0) * r / l) * np.exp(-np.sqrt(3.0) * r / l)
    return v * np.exp(-r ** 2 / l)


class PointRule(LabelFunction):
    """Labels 1 where fn(point) is true: a rule compare() cannot place an
    effect point for, applied one point at a time."""

    def __init__(self, fn):
        self.fn = fn

    def labels(self, X):
        return np.array([1 if self.fn(x) else 0 for x in X], dtype=int)


def oracle_log_marginal_likelihood(data, kern, noise, mean_constant):
    """Dense multivariate-normal log density of the residuals."""
    K = kernels.gram(kern, data.X) + noise * np.eye(data.n)
    return multivariate_normal.logpdf(
        data.y - mean_constant, mean=np.zeros(data.n), cov=K,
        allow_singular=True)


def oracle_predict(data, kern, noise, mean_constant, Xs):
    """Gaussian conditioning of the joint (f(Xs), y) with dense solves."""
    Xs = np.asarray(Xs, dtype=float)
    K = kernels.gram(kern, data.X) + noise * np.eye(data.n)
    Ks = kernels.cross(kern, data.X, Xs)
    Kss = kernels.gram(kern, Xs)
    Kinv = np.linalg.inv(K)
    mean = mean_constant + Ks.T @ Kinv @ (data.y - mean_constant)
    cov = Kss - Ks.T @ Kinv @ Ks
    return mean, np.diag(cov)


def rmse(effect, true_d, mc_count=10000, seed=0, m1_only=False) -> float:
    """Monte Carlo counterpart of sim.rmse_closed_form."""
    if m1_only:
        effect = dataclasses.replace(effect, spike_weight=0.0,
                                     gaussian_weight=1.0)
    draws = inference.effect_samples(effect, mc_count, seed=seed)
    return float(np.sqrt(np.mean((draws - true_d) ** 2)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# acceptance reporting: one printed line per criterion at end of run

ACCEPTANCE_RESULTS = []


def record_criterion(number: int, status: str, detail: str = "") -> None:
    """status is 'PASS', 'FAIL', or 'SKIP'."""
    ACCEPTANCE_RESULTS.append((number, status, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number, status, detail in sorted(ACCEPTANCE_RESULTS):
        line = f"criterion {number}: {status}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
