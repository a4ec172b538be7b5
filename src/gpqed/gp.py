"""Exact Gaussian-process regression with Gaussian observation noise.

Everything is routed through one Cholesky factorization L of
K + sigma_n^2 I. Two inverses are formed from it, both through
kernels.lower_inverse, a recursive blocked L^-1 (OpenBLAS's dpotri and
dtrtrs run several times slower): K^-1 for the log marginal likelihood's
gradient in fit, and L^-1 for the predictive variances in predict. Neither
is kept in a GPFit. The mean function is a constant, by default the
empirical mean of the responses used in the fit. Predictive variances are
latent-function variances (observation noise excluded).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, lapack

from . import kernels
from .errors import DataError, InputError
from .kernels import (GramStructure, KernelSpec, cholesky_inverse,
                      jittered_cholesky, lower_inverse)

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
    """A trained GP: kernel, constant mean, noise, and its Cholesky state.

    log_ml_grad is the gradient of the log marginal likelihood with respect
    to the hyperparameters in the order kernel.param_names(), then the noise
    variance. jitter is what jittered_cholesky added to the diagonal of
    K + sigma_n^2 I before chol factorized it (0.0 when none was needed).
    """

    kernel: KernelSpec
    mean_constant: float
    noise_variance: float
    jitter: float
    data: Dataset
    chol: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    log_ml_grad: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.data.n


def fit(data: Dataset, kernel: KernelSpec, noise_variance: float,
        mean_constant: float | None = None,
        structure: GramStructure | None = None) -> GPFit:
    """Precompute the Cholesky factor of K + sigma_n^2 I, alpha and the
    log marginal likelihood's gradient.

    mean_constant defaults to the empirical mean of data.y; pass an explicit
    value to share one constant across several sub-fits. A GramStructure for
    data.X may be supplied to reuse cached pairwise distances.
    """
    if not noise_variance > 0:
        raise InputError("noise variance must be positive")
    c = float(np.mean(data.y)) if mean_constant is None else float(mean_constant)
    if structure is None:
        structure = GramStructure(data.X)
    # an extreme trial step can overflow the formula; jittered_cholesky's
    # finiteness check then raises NumericalError instead of a warning
    with np.errstate(over="ignore", invalid="ignore"):
        K = structure.gram(kernel)
    # in place: no identity matrix and no second n x n copy
    K.flat[::data.n + 1] += noise_variance
    L, jitter = jittered_cholesky(K)
    resid = data.y - c
    alpha, _ = lapack.dpotrs(L, resid, lower=1)
    grad = _log_ml_grad(structure, kernel, noise_variance, K, L, resid, alpha)
    return GPFit(kernel=kernel, mean_constant=c, noise_variance=noise_variance,
                 jitter=jitter, data=data, chol=L, alpha=alpha, log_ml_grad=grad)


def _log_ml_grad(structure: GramStructure, kernel: KernelSpec, noise: float,
                 Ky: np.ndarray, L: np.ndarray, resid: np.ndarray,
                 alpha: np.ndarray) -> np.ndarray:
    """d log-ML / d theta = tr(W dKy/d theta) / 2 with W = alpha alpha^T -
    Ky^-1 (Rasmussen & Williams 2006, eq. 5.9), for theta = kernel
    parameters, then noise.

    Ky^-1 comes from the factor L through kernels.cholesky_inverse and is
    the one n x n array added; every trace is a reduction, not a matrix
    product. Ky is overwritten.
    """
    # Ky^-1 in the upper triangle (zeros below) of a C-ordered view
    U = cholesky_inverse(L).T

    def trace_w(M):
        # tr(Ky^-1 M) over the upper triangle of a symmetric M
        inv_term = 2.0 * np.vdot(U, M) - np.vdot(U.diagonal(), M.diagonal())
        return float(alpha @ (M @ alpha)) - inv_term

    trace_w_noise = float(alpha @ alpha) - float(np.trace(U))
    # K = Ky - noise I and tr(W Ky) = alpha^T resid - n
    trace_wk = float(alpha @ resid) - len(alpha) - noise * trace_w_noise
    traces = structure.derivative_traces(kernel, Ky, trace_w, trace_wk)
    return 0.5 * np.array(traces + [trace_w_noise])


def log_marginal_likelihood(gpfit: GPFit) -> float:
    """log N(y - c; 0, K + sigma_n^2 I) via the stored Cholesky factor."""
    resid = gpfit.data.y - gpfit.mean_constant
    quad = float(resid @ gpfit.alpha)
    logdet = 2.0 * float(np.sum(np.log(np.diag(gpfit.chol))))
    return -0.5 * quad - 0.5 * logdet - 0.5 * gpfit.n * LOG_2PI


def predict(gpfit: GPFit, Xs) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and latent variance at the query points Xs (m x p).

    Returns (mean, variance), each of shape (m,). The mean is Ks^T alpha for
    the n x m cross-covariance Ks. The variance is k(x, x) minus the squared
    norm of each row of V^T = Ks^T L^-T: L^-1 is formed afresh from a copy of
    gpfit.chol on every call, and one dtrmm overwrites Ks with V^T. Ks is the
    one n x m array a call makes; beside it are L^-1 (n x n) and arrays of
    m values. Variances are clamped to zero when round-off drives them
    slightly negative.
    """
    Xs = kernels._atleast_2d(Xs)
    if Xs.shape[1] != gpfit.data.p:
        raise InputError(
            f"query dimension {Xs.shape[1]} != training dimension {gpfit.data.p}")
    Ks = kernels.cross(gpfit.kernel, gpfit.data.X, Xs)       # n x m
    mean = gpfit.mean_constant + Ks.T @ gpfit.alpha
    # Ks is C-ordered, so Ks.T is Fortran-ordered and dtrmm writes into it
    Vt = blas.dtrmm(1.0, lower_inverse(gpfit.chol), Ks.T, side=1, lower=1,
                    trans_a=1, overwrite_b=1)                 # m x n
    var = kernels.diag(gpfit.kernel, Xs) - np.einsum("ij,ij->i", Vt, Vt)
    return mean, np.maximum(var, 0.0)
