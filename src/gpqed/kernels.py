"""Covariance functions and their hyperparameter bookkeeping.

Four families are supported, each with two hyperparameters. The linear
kernel is sigma_v^2 * <x, x'> + gamma with an offset gamma >= 0. The
stationary kernels are parameterized by an output variance ``sigma_v^2`` and
a lengthscale ``l`` and evaluate on the Euclidean distance r = ||x - x'||:

    exponential:  sigma_v^2 * exp(-r / l)
    matern32:     sigma_v^2 * (1 + sqrt(3) r / l) * exp(-sqrt(3) r / l)
    se:           sigma_v^2 * exp(-r^2 / l)

One producer, _pairwise, makes the distances and dot products for cross and
GramStructure. With two or more predictors they come from scipy's cdist and
X @ Xs.T. With one predictor they are |d| for d = x - x', and x * x', made
by broadcasting, which is cheaper and bit-equal: in binary64 cdist's
sqrt(fl(d^2)) is |d| unless d^2 under- or overflows (|d| < 1.5e-154 or
> 1.34e154, where cdist loses the distance and |d| keeps it), and a matrix
product with inner dimension 1 is one multiplication per entry.

The pairs of a point set with itself are exactly symmetric as made, so gram
and GramStructure use them as they are: |x - x'| and x * x' are symmetric,
cdist sums the same squares in the same order for (i, j) and (j, i), and
numpy forms X @ X.T by BLAS syrk from the one C-ordered array _atleast_2d
makes (two copies, or a strided X, would go through dgemm, which is not).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack
from scipy.spatial.distance import cdist

from .errors import InputError, NumericalError, check_number

# each family and the label its results are reported under
FAMILIES = {"linear": "linear", "exponential": "exp", "matern32": "matern32",
            "squared_exponential": "se"}

SQRT3 = np.sqrt(3.0)

# up to this order _invert_lower, which forms each fit's L^-1 once, is one
# LAPACK dtrtri call; above it the recursion's dtrmm calls run faster than
# OpenBLAS dtrtri (on a 2-core Xeon with OpenBLAS 0.3.31 on one thread,
# leaves of 32 and 128 were no faster at any n from 40 to 1000)
_TRTRI_LEAF = 64

# the kernel formulas and the lengthscale derivative run over slices of at
# most this many elements, so a slice and its temporaries stay in cache and
# no temporary is n x n (on a 2-core Xeon, one matern32 cross at n = 300,
# m = 2,500: 4.4-5.3 ms at 2^15 and 2^16, 6.2-8.5 ms at 2^11 and 6.7-7.8
# ms at 2^20, against 8.5-9.4 ms over the whole array; the matern32
# derivative in an n = 400 fit: 0.71 ms, against 1.17-1.23 ms over it)
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
        if not check_number("variance", self.variance) > 0:
            raise InputError("kernel variance must be positive")
        if self.stationary:
            if self.lengthscale is None:
                object.__setattr__(self, "lengthscale", 1.0)
            if not check_number("lengthscale", self.lengthscale) > 0:
                raise InputError("lengthscale must be positive")
            if self.offset is not None:
                raise InputError("offset only applies to the linear kernel")
        else:
            if self.lengthscale is not None:
                raise InputError("linear kernel has no lengthscale")
            if self.offset is None:
                object.__setattr__(self, "offset", 0.0)
            if not check_number("offset", self.offset) >= 0:
                # the kernel is not positive semi-definite for offset < 0
                raise InputError("linear offset must be >= 0")

    @property
    def stationary(self) -> bool:
        return self.family != "linear"

    @property
    def label(self) -> str:
        return FAMILIES[self.family]


def from_name(name: str, **overrides) -> KernelSpec:
    """Build a KernelSpec from a family name or its label, like "linear",
    "exp" or "squared_exponential"; InputError for anything else."""
    key = name.strip().lower() if isinstance(name, str) else None
    for family, label in FAMILIES.items():
        if key in (family, label):
            return KernelSpec(family=family, **overrides)
    raise InputError(f"unknown kernel name {name!r}; valid: "
                     f"{sorted({*FAMILIES, *FAMILIES.values()})}")


def _atleast_2d(X) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=float)    # C order; 1-D for a scalar
    if X.ndim == 1:
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


def _scratch(src: np.ndarray) -> np.ndarray:
    """Scratch for any slice of _chunks(src, out), as s[:len(slice)]."""
    return np.empty(src.shape if src.size <= _CHUNK else _CHUNK)


def _stationary_from_r(spec: KernelSpec, r: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
    """The module docstring's formulas at the distances r, written into out
    (a C-ordered array shaped like r, or r itself; a new one by default).

    They are evaluated chunk by chunk in their plain order of operations, so
    bit-equal to them; no temporary is larger than a chunk. A variance of
    exactly 1, as in every Gram build of the search, skips its multiply,
    which changes no bit.
    """
    family, v, l = spec.family, spec.variance, spec.lengthscale
    out = np.empty(r.shape) if out is None else out
    e = _scratch(r) if family == "matern32" else None    # for exp(-z)
    for rs, ks in _chunks(r, out):
        if family == "matern32":
            np.multiply(SQRT3, rs, out=ks)          # z
            ks /= l
            t = np.negative(ks, out=e[:len(ks)])    # exp(-z)
            np.exp(t, out=t)
            ks += 1.0
            if v != 1.0:
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
            if v != 1.0:
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


def _pairwise(stationary: bool, X: np.ndarray, Xs: np.ndarray) -> np.ndarray:
    """The n x m distances (stationary) or dot products between rows of the
    2-D X and Xs, as the one n x m array made: by broadcasting (abs in
    place) with one column, with the bits of cdist and X @ Xs.T (module
    docstring), and by those with more."""
    if X.shape[1] == 1:
        if stationary:
            r = np.subtract(X, Xs.T)
            return np.abs(r, out=r)
        return np.multiply(X, Xs.T)
    return cdist(X, Xs) if stationary else X @ Xs.T


def cross(spec: KernelSpec, X, Xs) -> np.ndarray:
    """The n x m matrix of covariances between rows of X and rows of Xs,
    the one n x m array made: the kernel formula overwrites the distances
    (or dot products) from _pairwise."""
    X = _atleast_2d(X)
    Xs = _atleast_2d(Xs)
    if X.shape[1] != Xs.shape[1]:
        raise InputError(
            f"dimension mismatch: {X.shape[1]} vs {Xs.shape[1]}")
    pairs = _pairwise(spec.stationary, X, Xs)
    if spec.stationary:
        return _stationary_from_r(spec, pairs, out=pairs)
    return _linear_from_dot(spec, pairs, out=pairs)


def diag(spec: KernelSpec, X) -> np.ndarray:
    """The prior variances k(x, x) of the rows of X, without a Gram matrix."""
    X = _atleast_2d(X)
    if spec.stationary:
        return np.full(X.shape[0], float(spec.variance))
    # a stack of row-by-column products rounds like one point's x @ x, which
    # a plain sum of squares does not for p >= 2
    return _linear_from_dot(spec, (X[:, None, :] @ X[:, :, None]).ravel())


def gram(spec: KernelSpec, X) -> np.ndarray:
    """The n x n covariance matrix of the rows of X: cross of X, converted
    once, with itself, exactly symmetric as made (module docstring)."""
    X = _atleast_2d(X)
    return cross(spec, X, X)


class GramStructure:
    """Precomputed pairwise distances/dot products for one fixed point set.

    Re-evaluating a Gram matrix for new hyperparameters then costs only the
    elementwise kernel formula, which matters inside hyperparameter
    optimization loops. It caches the pairs from _pairwise, as cross uses
    them, as made: they are exactly symmetric (module docstring).
    """

    def __init__(self, X):
        self.X = _atleast_2d(X)
        self._dist = None
        self._dots = None

    def gram(self, spec: KernelSpec) -> np.ndarray:
        if spec.stationary:
            if self._dist is None:
                self._dist = _pairwise(True, self.X, self.X)
            return _stationary_from_r(spec, self._dist)
        if self._dots is None:
            self._dots = _pairwise(False, self.X, self.X)
        return _linear_from_dot(spec, self._dots)

    def derivative(self, spec: KernelSpec, K: np.ndarray) -> np.ndarray:
        """dK/dp for K = gram(spec) and p its second parameter, the
        lengthscale or the linear offset, written over K and returned.

        K is the array gram(spec) returned, with anything added to its
        diagonal. The linear kernel's dK/doffset is a matrix of ones. The
        lengthscale derivative runs chunk by chunk, as the kernel formulas
        do, so no temporary is n x n.
        """
        if not spec.stationary:
            K.fill(1.0)
            return K
        r, l = self._dist, spec.lengthscale
        # dK/dl is K times a function of r that is 0 at r = 0, so the
        # diagonal of K never matters
        if spec.family == "matern32":        # K z^2 / ((1 + z) l)
            s = _scratch(r)
            for rs, ks in _chunks(r, K):
                z = np.multiply(rs, SQRT3 / l, out=s[:len(ks)])
                ks *= z
                ks *= z
                z += 1.0
                ks /= z
                ks /= l
        else:               # K r / l^2, or K r^2 / l^2 for se
            for rs, ks in _chunks(r, K):
                ks *= rs
                if spec.family == "squared_exponential":
                    ks *= rs
                ks /= l * l
        return K


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
        # a view of a larger W reaches LAPACK as a copy; a whole W is
        # inverted in place
        if inv is not W:
            W[...] = inv
        return
    k = n // 2
    _invert_lower(W[:k, :k])
    _invert_lower(W[k:, k:])
    BA_inv = blas.dtrmm(1.0, W[:k, :k], W[k:, :k], side=1, lower=1)
    W[k:, :k] = blas.dtrmm(-1.0, W[k:, k:], BA_inv, lower=1, overwrite_b=1)
