"""Exact Gaussian-process regression with Gaussian observation noise.

Everything is routed through one Cholesky factorization of K + sigma_n^2 I;
no matrix inverse is ever formed. The mean function is a constant, by default
the empirical mean of the responses used in the fit. Predictive variances are
latent-function variances (observation noise excluded).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from . import kernels
from .errors import DataError, InputError
from .kernels import GramStructure, KernelSpec, jittered_cholesky

LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class Dataset:
    """Predictors X (n x p) and responses y (n,)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = kernels._atleast_2d(self.X)
        y = np.asarray(self.y, dtype=float).reshape(-1)
        if X.shape[0] != y.shape[0]:
            raise DataError(
                f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
        if X.shape[0] < 1:
            raise DataError("dataset must contain at least one observation")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise DataError("dataset contains non-finite values")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def subset(self, mask: np.ndarray) -> "Dataset":
        mask = np.asarray(mask, dtype=bool)
        return Dataset(self.X[mask], self.y[mask])


@dataclass(frozen=True)
class GPFit:
    """A trained GP: kernel, constant mean, noise, and its Cholesky state."""

    kernel: KernelSpec
    mean_constant: float
    noise_variance: float
    data: Dataset
    chol: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.data.n


def fit(data: Dataset, kernel: KernelSpec, noise_variance: float,
        mean_constant: float | None = None,
        structure: GramStructure | None = None) -> GPFit:
    """Precompute the Cholesky factor of K + sigma_n^2 I and alpha.

    mean_constant defaults to the empirical mean of data.y; pass an explicit
    value to share one constant across several sub-fits. A GramStructure for
    data.X may be supplied to reuse cached pairwise distances.
    """
    if not noise_variance > 0:
        raise InputError("noise variance must be positive")
    c = float(np.mean(data.y)) if mean_constant is None else float(mean_constant)
    if structure is None:
        K = kernels.gram(kernel, data.X)
    else:
        K = structure.gram(kernel)
    Ky = K + noise_variance * np.eye(data.n)
    L, _ = jittered_cholesky(Ky)
    resid = data.y - c
    alpha = cho_solve((L, True), resid)
    return GPFit(kernel=kernel, mean_constant=c, noise_variance=noise_variance,
                 data=data, chol=L, alpha=alpha)


def log_marginal_likelihood(gpfit: GPFit) -> float:
    """log N(y - c; 0, K + sigma_n^2 I) via the stored Cholesky factor."""
    resid = gpfit.data.y - gpfit.mean_constant
    quad = float(resid @ gpfit.alpha)
    logdet = 2.0 * float(np.sum(np.log(np.diag(gpfit.chol))))
    return -0.5 * quad - 0.5 * logdet - 0.5 * gpfit.n * LOG_2PI


def predict(gpfit: GPFit, Xs) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and latent variance at the query points Xs (m x p).

    Returns (mean, variance), each of shape (m,). Variances are clamped to
    zero when round-off drives them slightly negative.
    """
    Xs = kernels._atleast_2d(Xs)
    if Xs.shape[1] != gpfit.data.p:
        raise InputError(
            f"query dimension {Xs.shape[1]} != training dimension {gpfit.data.p}")
    Ks = kernels.cross(gpfit.kernel, gpfit.data.X, Xs)       # n x m
    mean = gpfit.mean_constant + Ks.T @ gpfit.alpha
    V = solve_triangular(gpfit.chol, Ks, lower=True)          # n x m
    kss = kernels.diag(gpfit.kernel, Xs)
    var = np.maximum(kss - np.sum(V * V, axis=0), 0.0)
    return mean, var
