"""Exact Gaussian-process regression with Gaussian observation noise.

Everything is routed through one Cholesky factorization L of
K + sigma_n^2 I. fit takes alpha and the log-determinant from L, then
overwrites L with L^-1 by kernels.cholesky_inverse, a recursive blocked
inverse (OpenBLAS's dpotri and dtrtrs run several times slower), which also
returns K^-1 for the log marginal likelihood's gradient. A GPFit keeps L^-1,
so predict's variances cost one triangular product and no inverse; K^-1 is
not kept. The mean function is a constant, by default the empirical mean of
the responses used in the fit. Predictive variances are latent-function
variances (observation noise excluded).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, lapack

from . import kernels
from .errors import DataError, InputError, NumericalError
from .kernels import (GramStructure, KernelSpec, cholesky_inverse,
                      jittered_cholesky)

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

    chol_inv is L^-1 for the lower Cholesky factor L of Ky = K + sigma_n^2 I
    (plus jitter), Fortran-ordered with an exactly zero upper triangle;
    log_det is log |Ky| = 2 sum(log diag L), taken from L before it was
    inverted. grad_terms holds the two terms of the log marginal
    likelihood's gradient with respect to the hyperparameters in the order
    kernel.param_names(), then the noise variance: row 0 is the data term
    alpha^T dKy alpha / 2, row 1 the complexity term tr(Ky^-1 dKy) / 2; the
    gradient is their difference. jitter is what jittered_cholesky added to
    the diagonal of K + sigma_n^2 I before it was factorized (0.0 when none
    was needed).
    """

    kernel: KernelSpec
    mean_constant: float
    noise_variance: float
    jitter: float
    log_det: float
    data: Dataset
    chol_inv: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    grad_terms: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.data.n


def fit(data: Dataset, kernel: KernelSpec, noise_variance: float,
        mean_constant: float | None = None,
        structure: GramStructure | None = None) -> GPFit:
    """Factorize K + sigma_n^2 I as L L^T and precompute alpha, the
    log-determinant, L^-1 and the two terms of the log marginal likelihood's
    gradient.

    mean_constant defaults to the empirical mean of data.y; pass an explicit
    value to share one constant across several sub-fits. A GramStructure for
    data.X may be supplied to reuse cached pairwise distances. Raises
    NumericalError when the covariance cannot be factorized or the gradient
    is not finite.
    """
    if not noise_variance > 0:
        raise InputError("noise variance must be positive")
    c = float(np.mean(data.y)) if mean_constant is None else float(mean_constant)
    if structure is None:
        structure = GramStructure(data.X)
    # an extreme trial step can overflow the kernel formula, or underflow
    # the square of a lengthscale the gradient divides by; the finiteness
    # checks of jittered_cholesky and below then raise NumericalError
    # instead of a warning
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        K = structure.gram(kernel)
        # in place: no identity matrix and no second n x n copy
        K.flat[::data.n + 1] += noise_variance
        L, jitter = jittered_cholesky(K)
        resid = data.y - c
        alpha, _ = lapack.dpotrs(L, resid, lower=1)
        log_det = 2.0 * float(np.log(L.diagonal()).sum())
        # L becomes L^-1 in place
        Ky_inv = cholesky_inverse(L)
        terms = _log_ml_grad_terms(structure, kernel, noise_variance, K,
                                   Ky_inv, resid, alpha)
    if not np.isfinite(terms).all():
        raise NumericalError("log marginal likelihood gradient is not finite")
    return GPFit(kernel=kernel, mean_constant=c, noise_variance=noise_variance,
                 jitter=jitter, log_det=log_det, data=data, chol_inv=L,
                 alpha=alpha, grad_terms=terms)


def _log_ml_grad_terms(structure: GramStructure, kernel: KernelSpec,
                       noise: float, Ky: np.ndarray, Ky_inv: np.ndarray,
                       resid: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """The terms of d log-ML / d theta = alpha^T dKy alpha / 2 -
    tr(Ky^-1 dKy) / 2 (Rasmussen & Williams 2006, eq. 5.9) as the rows of a
    2 x p array, for theta = kernel parameters, then noise.

    Ky_inv is the lower triangle of Ky^-1, as kernels.cholesky_inverse
    returns it; every trace is a reduction, not a matrix product. Ky is
    overwritten by GramStructure.derivative.
    """
    # Ky^-1 in the upper triangle (zeros below) of a C-ordered view
    U = Ky_inv.T
    data_n, trace_n = float(alpha @ alpha), float(U.trace())  # dKy/dnoise = I
    d_var, d_p = structure.derivative(kernel, Ky)
    if d_var is None:
        # dK/dvariance = K / variance, with K = Ky - noise I,
        # alpha^T Ky alpha = alpha^T resid and tr(Ky^-1 Ky) = n
        data_v = (float(alpha @ resid) - noise * data_n) / kernel.variance
        trace_v = (len(alpha) - noise * trace_n) / kernel.variance
    else:
        data_v, trace_v = _traces(U, alpha, d_var)
    data_p, trace_p = _traces(U, alpha, d_p)
    return 0.5 * np.array([[data_v, data_p, data_n],
                           [trace_v, trace_p, trace_n]])


def _traces(U: np.ndarray, alpha: np.ndarray, M: np.ndarray) -> tuple:
    # alpha^T M alpha and tr(Ky^-1 M) for a symmetric M, U as above
    return (float(alpha @ (M @ alpha)),
            2.0 * np.vdot(U, M) - np.vdot(U.diagonal(), M.diagonal()))


def log_marginal_likelihood(gpfit: GPFit) -> float:
    """log N(y - c; 0, K + sigma_n^2 I) from the stored alpha and
    log-determinant."""
    resid = gpfit.data.y - gpfit.mean_constant
    quad = float(resid @ gpfit.alpha)
    return -0.5 * quad - 0.5 * gpfit.log_det - 0.5 * gpfit.n * LOG_2PI


def predict(gpfit: GPFit, Xs) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and latent variance at the query points Xs (m x p).

    Returns (mean, variance), each of shape (m,). The mean is Ks^T alpha for
    the n x m cross-covariance Ks. The variance is k(x, x) minus the squared
    norm of each row of V^T = Ks^T L^-T: one dtrmm by the stored
    gpfit.chol_inv overwrites Ks with V^T (Rasmussen & Williams 2006,
    Alg. 2.1), O(n^2 m) with no O(n^3) term. Ks is the one n x m array a call
    makes, beside arrays of m values; gpfit is left as it is. Variances are
    clamped to zero when round-off drives them slightly negative.
    """
    Xs = kernels._atleast_2d(Xs)
    if Xs.shape[1] != gpfit.data.p:
        raise InputError(
            f"query dimension {Xs.shape[1]} != training dimension {gpfit.data.p}")
    Ks = kernels.cross(gpfit.kernel, gpfit.data.X, Xs)       # n x m
    mean = gpfit.mean_constant + Ks.T @ gpfit.alpha
    # Ks is C-ordered, so Ks.T is Fortran-ordered and dtrmm writes into it
    Vt = blas.dtrmm(1.0, gpfit.chol_inv, Ks.T, side=1, lower=1, trans_a=1,
                    overwrite_b=1)                            # m x n
    var = kernels.diag(gpfit.kernel, Xs) - np.einsum("ij,ij->i", Vt, Vt)
    return mean, np.maximum(var, 0.0)
