"""Covariance functions and their hyperparameter bookkeeping.

Four families are supported, each with two hyperparameters. The linear
kernel is sigma_v^2 * <x, x'> + gamma with an offset gamma >= 0. The
stationary kernels are parameterized by an output variance ``sigma_v^2`` and
a lengthscale ``l`` and evaluate on the Euclidean distance r = ||x - x'||:

    exponential:  sigma_v^2 * exp(-r / l)
    matern32:     sigma_v^2 * (1 + sqrt(3) r / l) * exp(-sqrt(3) r / l)
    se:           sigma_v^2 * exp(-r^2 / l)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack
from scipy.spatial.distance import cdist

from .errors import InputError, NumericalError

# each family and the label its results are reported under
FAMILIES = {"linear": "linear", "exponential": "exp", "matern32": "matern32",
            "squared_exponential": "se"}

SQRT3 = np.sqrt(3.0)

# up to this order _invert_lower, which forms each fit's L^-1 once, is one
# LAPACK dtrtri call; above it the recursion's dtrmm calls run faster than
# OpenBLAS dtrtri (on a 2-core Xeon with OpenBLAS 0.3.31 on one thread,
# leaves of 32 and 128 were no faster at any n from 40 to 1000)
_TRTRI_LEAF = 64

# the kernel formulas run over slices of at most this many elements, so a
# slice and its temporaries stay in cache (one matern32 cross at n = 300,
# m = 2,500 on a 2-core Xeon: 4.4-5.3 ms at 2^15 and 2^16, 6.2-8.5 ms at
# 2^11 and 6.7-7.8 ms at 2^20, against 8.5-9.4 ms over the whole array)
_CHUNK = 2 ** 15


@dataclass(frozen=True)
class KernelSpec:
    """A covariance-function family plus its hyperparameter values."""

    family: str
    variance: float = 1.0
    lengthscale: float | None = None
    offset: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InputError(f"unknown kernel family {self.family!r}")
        if not self.variance > 0:
            raise InputError("kernel variance must be positive")
        if self.family == "linear":
            if self.lengthscale is not None:
                raise InputError("linear kernel has no lengthscale")
            if self.offset is None:
                object.__setattr__(self, "offset", 0.0)
            if not self.offset >= 0:
                # the kernel is not positive semi-definite for offset < 0
                raise InputError("linear offset must be >= 0")
        else:
            if self.lengthscale is None:
                object.__setattr__(self, "lengthscale", 1.0)
            if not self.lengthscale > 0:
                raise InputError("lengthscale must be positive")
            if self.offset is not None:
                raise InputError("offset only applies to the linear kernel")

    @property
    def stationary(self) -> bool:
        return self.family != "linear"

    @property
    def label(self) -> str:
        return FAMILIES[self.family]

    def param_names(self) -> list[str]:
        """Names of the free (optimizable) kernel hyperparameters."""
        if self.family == "linear":
            return ["variance", "offset"]
        return ["variance", "lengthscale"]


def from_name(name: str, **overrides) -> KernelSpec:
    """Build a KernelSpec from a family name or its label, like "linear",
    "exp" or "squared_exponential"."""
    key = name.strip().lower()
    for family, label in FAMILIES.items():
        if key in (family, label):
            return KernelSpec(family=family, **overrides)
    raise InputError(f"unknown kernel name {name!r}; valid: "
                     f"{sorted({*FAMILIES, *FAMILIES.values()})}")


def _atleast_2d(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 0:
        X = X.reshape(1, 1)
    elif X.ndim == 1:
        X = X.reshape(-1, 1)
    elif X.ndim != 2:
        raise InputError("points must be at most 2-dimensional arrays")
    return X


def _chunks(src: np.ndarray, out: np.ndarray) -> list:
    """Pairs of views of consecutive slices of src and out, flattened, or
    src and out themselves when they fit in one chunk."""
    if src.size <= _CHUNK:
        return [(src, out)]
    src, out = src.reshape(-1), out.reshape(-1)
    return [(src[i:i + _CHUNK], out[i:i + _CHUNK])
            for i in range(0, src.size, _CHUNK)]


def _stationary_from_r(spec: KernelSpec, r: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
    """The module docstring's formulas at the distances r, written into out
    (a C-ordered array shaped like r, or r itself; a new one by default).

    They are evaluated chunk by chunk in their plain order of operations, so
    bit-equal to them; no temporary is larger than a chunk.
    """
    family, v, l = spec.family, spec.variance, spec.lengthscale
    out = np.empty(r.shape) if out is None else out
    # scratch for exp(-z), shaped like a chunk: e[:len(ks)] is all of it
    # when r is one chunk, and a chunk's length of it otherwise
    e = (np.empty(r.shape if r.size <= _CHUNK else _CHUNK)
         if family == "matern32" else None)
    for rs, ks in _chunks(r, out):
        if family == "matern32":
            np.multiply(SQRT3, rs, out=ks)          # z
            ks /= l
            t = np.negative(ks, out=e[:len(ks)])    # exp(-z)
            np.exp(t, out=t)
            ks += 1.0
            ks *= v
            ks *= t
        else:
            if family == "exponential":
                np.negative(rs, out=ks)
            else:
                np.square(rs, out=ks)
                np.negative(ks, out=ks)
            ks /= l
            np.exp(ks, out=ks)
            ks *= v
    return out


def _linear_from_dot(spec: KernelSpec, dots: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """variance * dots + offset, written into out as _stationary_from_r
    writes its formulas."""
    out = np.empty(dots.shape) if out is None else out
    for ds, ks in _chunks(dots, out):
        np.multiply(spec.variance, ds, out=ks)
        ks += spec.offset
    return out


def cross(spec: KernelSpec, X, Xs) -> np.ndarray:
    """The n x m matrix of covariances between rows of X and rows of Xs.

    It is the one n x m array made: the kernel formula overwrites the
    distances (or dot products) it is evaluated at.
    """
    X = _atleast_2d(X)
    Xs = _atleast_2d(Xs)
    if X.shape[1] != Xs.shape[1]:
        raise InputError(
            f"dimension mismatch: {X.shape[1]} vs {Xs.shape[1]}")
    if spec.stationary:
        r = cdist(X, Xs)
        return _stationary_from_r(spec, r, out=r)
    dots = X @ Xs.T
    return _linear_from_dot(spec, dots, out=dots)


def diag(spec: KernelSpec, X) -> np.ndarray:
    """The prior variances k(x, x) of the rows of X, without a Gram matrix."""
    X = _atleast_2d(X)
    if spec.stationary:
        return np.full(X.shape[0], float(spec.variance))
    # a stack of row-by-column products rounds like one point's x @ x, which
    # a plain sum of squares does not for p >= 2
    return _linear_from_dot(spec, (X[:, None, :] @ X[:, :, None]).ravel())


def gram(spec: KernelSpec, X) -> np.ndarray:
    """The symmetric n x n covariance matrix of the rows of X."""
    X = _atleast_2d(X)
    K = cross(spec, X, X)
    # enforce exact symmetry against floating-point asymmetry in cdist
    return 0.5 * (K + K.T)


class GramStructure:
    """Precomputed pairwise distances/dot products for one fixed point set.

    Re-evaluating a Gram matrix for new hyperparameters then costs only the
    elementwise kernel formula, which matters inside hyperparameter
    optimization loops.
    """

    def __init__(self, X):
        self.X = _atleast_2d(X)
        self._dist = None
        self._dots = None

    def gram(self, spec: KernelSpec) -> np.ndarray:
        if spec.stationary:
            if self._dist is None:
                d = cdist(self.X, self.X)
                self._dist = 0.5 * (d + d.T)
            return _stationary_from_r(spec, self._dist)
        if self._dots is None:
            dots = self.X @ self.X.T
            self._dots = 0.5 * (dots + dots.T)
        return _linear_from_dot(spec, self._dots)

    def derivative(self, spec: KernelSpec,
                   K: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
        """(dK/dvariance, dK/dp) for K = gram(spec) and p its second
        parameter, the lengthscale or the linear offset.

        K is the array gram(spec) returned, with anything added to its
        diagonal; it is overwritten with dK/dp. dK/dvariance is None for a
        stationary kernel, where it is the noise-free K / variance, and the
        cached dot products (not to be written) for the linear kernel.
        """
        if not spec.stationary:
            K.fill(1.0)
            return self._dots, K
        r, l = self._dist, spec.lengthscale
        # dK/dl is K times a function of r that is 0 at r = 0, so the
        # diagonal of K never matters
        if spec.family == "matern32":        # K z^2 / ((1 + z) l)
            z = r * (SQRT3 / l)
            K *= z
            K *= z
            z += 1.0
            K /= z
            K /= l
        else:               # K r / l^2, or K r^2 / l^2 for se
            K *= r
            if spec.family == "squared_exponential":
                K *= r
            K /= l * l
        return None, K


def jittered_cholesky(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of the exactly symmetric K, with escalating
    diagonal jitter.

    The factor comes from LAPACK dpotrf as a Fortran-ordered array whose
    lower triangle is L and whose upper triangle is exactly zero. A clean
    factorization is attempted first; on failure jitter starts at
    1e-6 * mean(diag) and doubles until 1e-2 * mean(diag). The jitter goes
    onto K's diagonal in place, and the diagonal is restored before return.
    Raises NumericalError if K is not finite or still fails to factorize.
    """
    if not np.isfinite(K).all():
        raise NumericalError("covariance matrix has non-finite entries")
    # K.T is K in Fortran order: dpotrf reads it without a transposing copy
    # and clean=1 zeros the factor's upper triangle
    L, info = lapack.dpotrf(K.T, lower=1, clean=1)
    if info == 0:
        return L, 0.0
    scale = float(np.mean(np.diag(K)))
    if scale <= 0 or not np.isfinite(scale):
        scale = 1.0
    diagonal = K.diagonal().copy()
    jitter = 1e-6 * scale
    cap = 1e-2 * scale
    try:
        while jitter <= cap:
            K.flat[::K.shape[0] + 1] = diagonal + jitter
            L, info = lapack.dpotrf(K.T, lower=1, clean=1)
            if info == 0:
                return L, jitter
            jitter *= 2.0
    finally:
        K.flat[::K.shape[0] + 1] = diagonal
    raise NumericalError(
        "Cholesky factorization failed after jitter escalation")


def cholesky_inverse(L: np.ndarray) -> np.ndarray:
    """Overwrite the lower Cholesky factor L, as jittered_cholesky returns
    it, with L^-1, and return (L L^T)^-1 = L^-T L^-1.

    L^-1 comes from a recursive blocked inverse in place, so it keeps L's
    Fortran order and zero upper triangle. One copy of it is then
    overwritten with L^-T L^-1 by dlauum: a Fortran-ordered array whose
    lower triangle is the inverse and whose upper triangle is exactly zero,
    as LAPACK dpotri would return. Every other array is a block of about a
    quarter of L. Raises NumericalError if L has a zero on its diagonal.
    """
    _invert_lower(L)
    inv, info = lapack.dlauum(np.array(L, order="F"), lower=1, overwrite_c=1)
    if info != 0:
        raise NumericalError("covariance matrix inverse failed")
    return inv


def _invert_lower(W: np.ndarray) -> None:
    """Overwrite the lower-triangular W (zeros above the diagonal) with W^-1.

    With W = [[A, 0], [B, C]], W^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]: two
    half-size inverses and two triangular products (Elmroth, Gustavson,
    Jonsson & Kagstrom, SIAM Review 2004), down to LAPACK dtrtri at the leaves.
    """
    n = W.shape[0]
    if n <= _TRTRI_LEAF:
        inv, info = lapack.dtrtri(W, lower=1, overwrite_c=1)
        if info != 0:
            raise NumericalError("covariance matrix inverse failed")
        # a view of a larger W reaches LAPACK as a copy
        W[...] = inv
        return
    k = n // 2
    _invert_lower(W[:k, :k])
    _invert_lower(W[k:, k:])
    BA_inv = blas.dtrmm(1.0, W[:k, :k], W[k:, :k], side=1, lower=1)
    W[k:, :k] = blas.dtrmm(-1.0, W[k:, k:], BA_inv, lower=1, overwrite_b=1)
