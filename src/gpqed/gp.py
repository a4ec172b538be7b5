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

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, lapack

from . import kernels
from .errors import DataError, InputError, NumericalError, check_number
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


def finite_decimal(text: str) -> float:
    """A number read from a data or boundary file: a finite decimal, else
    ValueError. float() also reads "1_000", "inf" and "nan", which are not."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if "_" in text or not math.isfinite(value):
        raise ValueError(f"not a finite decimal number: {text!r}")
    return value


@dataclass(frozen=True)
class GPFit:
    """A trained GP: kernel, constant mean, noise, and its Cholesky state.

    chol_inv is L^-1 for the lower Cholesky factor L of Ky = K + sigma_n^2 I
    (plus jitter), Fortran-ordered with an exactly zero upper triangle;
    log_det is log |Ky| = 2 sum(log diag L), taken from L before it was
    inverted. quad is r^T alpha = r^T Ky^-1 r for the residuals
    r = y - mean_constant, the log marginal likelihood's quadratic term.
    grad_terms holds the two terms of the log marginal
    likelihood's gradient with respect to the kernel's second parameter
    (the lengthscale, or the linear offset), then the noise variance, as a
    2 x 2 array: row 0 is the data term alpha^T dKy alpha / 2, row 1 the
    complexity term tr(Ky^-1 dKy) / 2; the gradient is their difference.
    The kernel variance has no column: the search profiles it out in
    closed form (hyperopt.profiled_scale). jitter is what jittered_cholesky
    added to the diagonal of K + sigma_n^2 I before it was factorized (0.0
    when none was needed).
    """

    kernel: KernelSpec
    mean_constant: float
    noise_variance: float
    jitter: float
    log_det: float
    quad: float
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
    log-determinant, the quadratic term r^T alpha, L^-1 and the two terms of
    the log marginal likelihood's gradient in the kernel's second parameter
    and the noise (GPFit). The search's objective (inference._fit_parts)
    reads quad, log_det and grad_terms from here and computes none of them
    again.

    mean_constant defaults to the empirical mean of data.y; pass an explicit
    value to share one constant across several sub-fits. A GramStructure for
    data.X may be supplied to reuse cached pairwise distances; InputError
    when it was built for other points. Raises NumericalError when the
    covariance cannot be factorized or the gradient is not finite.
    """
    if not check_number("noise variance", noise_variance) > 0:
        raise InputError("noise variance must be positive")
    c = float(np.mean(data.y)) if mean_constant is None else float(mean_constant)
    if structure is None:
        structure = GramStructure(data.X)
    elif structure.X is not data.X and not np.array_equal(structure.X, data.X):
        raise InputError("structure was built for other points than data.X")
    # an extreme trial step can overflow the kernel formula, or underflow
    # the square of a lengthscale the gradient divides by; the finiteness
    # checks of jittered_cholesky and below then raise NumericalError
    # instead of a warning
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        K = structure.gram(kernel)
        # in place: no identity matrix and no second n x n copy
        K.reshape(-1)[::data.n + 1] += noise_variance
        L, jitter = jittered_cholesky(K)
        r = data.y - c
        alpha, _ = lapack.dpotrs(L, r, lower=1)
        log_det = 2.0 * float(np.log(L.diagonal()).sum())
        # L becomes L^-1 in place
        Ky_inv = cholesky_inverse(L)
        terms = _log_ml_grad_terms(structure, kernel, K, Ky_inv, alpha)
    return GPFit(kernel=kernel, mean_constant=c, noise_variance=noise_variance,
                 jitter=jitter, log_det=log_det, quad=float(r @ alpha),
                 data=data, chol_inv=L, alpha=alpha, grad_terms=terms)


def _log_ml_grad_terms(structure: GramStructure, kernel: KernelSpec,
                       Ky: np.ndarray, Ky_inv: np.ndarray,
                       alpha: np.ndarray) -> np.ndarray:
    """The terms of d log-ML / d theta = alpha^T dKy alpha / 2 -
    tr(Ky^-1 dKy) / 2 (Rasmussen & Williams 2006, eq. 5.9) as the rows of a
    2 x 2 array, for theta = the kernel's second parameter, then noise.

    Ky_inv is the lower triangle of Ky^-1, as kernels.cholesky_inverse
    returns it; every trace is a reduction, not a matrix product. Ky is
    overwritten by GramStructure.derivative. Raises NumericalError when a
    term is not finite.
    """
    # Ky^-1 in the upper triangle (zeros below) of a C-ordered view
    U = Ky_inv.T
    data_n, trace_n = float(alpha @ alpha), float(U.trace())  # dKy/dnoise = I
    d_p = structure.derivative(kernel, Ky)
    data_p = float(alpha @ (d_p @ alpha))
    # tr(Ky^-1 d_p) for the symmetric d_p, from U's upper triangle
    trace_p = float(2.0 * np.vdot(U, d_p)
                    - np.vdot(U.diagonal(), d_p.diagonal()))
    if not all(map(math.isfinite, (data_p, data_n, trace_p, trace_n))):
        raise NumericalError("log marginal likelihood gradient is not finite")
    return np.array([[0.5 * data_p, 0.5 * data_n],
                     [0.5 * trace_p, 0.5 * trace_n]])


def scaled_log_ml(quad: float, log_det: float, n: int,
                  scale: float = 1.0) -> float:
    """log N(r; 0, scale * Ky) for n residuals r, from quad = r^T Ky^-1 r and
    log_det = log |Ky|: the one log marginal likelihood formula."""
    return -0.5 * (quad / scale + log_det + n * (np.log(scale) + LOG_2PI))


def log_marginal_likelihood(gpfit: GPFit) -> float:
    """log N(y - c; 0, Ky) for the Ky = K + (sigma_n^2 + jitter) I that fit
    factorized, by scaled_log_ml from the stored quadratic term and
    log-determinant."""
    return scaled_log_ml(gpfit.quad, gpfit.log_det, gpfit.n)


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
    Ks = kernels.cross(gpfit.kernel, gpfit.data.X, Xs)       # n x m
    mean = gpfit.mean_constant + Ks.T @ gpfit.alpha
    # Ks is C-ordered, so Ks.T is Fortran-ordered and dtrmm writes into it
    Vt = blas.dtrmm(1.0, gpfit.chol_inv, Ks.T, side=1, lower=1, trans_a=1,
                    overwrite_b=1)                            # m x n
    var = kernels.diag(gpfit.kernel, Xs) - np.einsum("ij,ij->i", Vt, Vt)
    return mean, np.maximum(var, 0.0)
