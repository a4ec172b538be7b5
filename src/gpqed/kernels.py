"""Covariance functions and their hyperparameter bookkeeping.

Four families are supported: a polynomial kernel (degree 1 is the "linear"
kernel), the exponential kernel, Matern with nu=3/2, and the squared
exponential. The stationary kernels are parameterized by an output variance
``sigma_v^2`` and a lengthscale ``l`` and evaluate on the Euclidean distance
r = ||x - x'||:

    exponential:  sigma_v^2 * exp(-r / l)
    matern32:     sigma_v^2 * (1 + sqrt(3) r / l) * exp(-sqrt(3) r / l)
    se:           sigma_v^2 * exp(-r^2 / l)

The polynomial kernel is (sigma_v^2 * <x, x'> + gamma)^degree with the degree
a fixed structural choice (never optimized).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .errors import InputError, NumericalError

FAMILIES = ("polynomial", "exponential", "matern32", "squared_exponential")

_ALIASES = {
    "linear": ("polynomial", 1),
    "poly": ("polynomial", None),
    "polynomial": ("polynomial", None),
    "exp": ("exponential", None),
    "exponential": ("exponential", None),
    "matern32": ("matern32", None),
    "matern": ("matern32", None),
    "se": ("squared_exponential", None),
    "rbf": ("squared_exponential", None),
    "squared_exponential": ("squared_exponential", None),
}

SQRT3 = np.sqrt(3.0)


@dataclass(frozen=True)
class KernelSpec:
    """A covariance-function family plus its hyperparameter values."""

    family: str
    variance: float = 1.0
    lengthscale: float | None = None
    offset: float | None = None
    degree: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InputError(f"unknown kernel family {self.family!r}")
        if not self.variance > 0:
            raise InputError("kernel variance must be positive")
        if self.family == "polynomial":
            if self.degree is None or self.degree < 1:
                raise InputError("polynomial degree must be a positive integer")
            if self.lengthscale is not None:
                raise InputError("polynomial kernel has no lengthscale")
            if self.offset is None:
                object.__setattr__(self, "offset", 0.0)
        else:
            if self.lengthscale is None:
                object.__setattr__(self, "lengthscale", 1.0)
            if not self.lengthscale > 0:
                raise InputError("lengthscale must be positive")
            if self.offset is not None or self.degree is not None:
                raise InputError("offset/degree only apply to the polynomial kernel")

    @property
    def stationary(self) -> bool:
        return self.family != "polynomial"

    @property
    def label(self) -> str:
        if self.family == "polynomial":
            return "linear" if self.degree == 1 else f"polynomial{self.degree}"
        return {"exponential": "exp", "matern32": "matern32",
                "squared_exponential": "se"}[self.family]

    def param_names(self) -> list[str]:
        """Names of the free (optimizable) kernel hyperparameters."""
        if self.family == "polynomial":
            return ["variance", "offset"]
        return ["variance", "lengthscale"]

    def with_params(self, **values: float) -> "KernelSpec":
        return replace(self, **values)


def from_name(name: str, **overrides) -> KernelSpec:
    """Build a KernelSpec from a config key like "linear", "exp", "se"."""
    key = name.strip().lower()
    if key not in _ALIASES:
        raise InputError(
            f"unknown kernel name {name!r}; valid: {sorted(set(_ALIASES))}")
    family, degree = _ALIASES[key]
    kwargs: dict = dict(overrides)
    if family == "polynomial":
        kwargs.setdefault("degree", degree if degree is not None else 1)
        kwargs.setdefault("offset", 0.0)
    return KernelSpec(family=family, **kwargs)


def num_hyperparameters(spec: KernelSpec, include_noise: bool = False) -> int:
    """Number of free hyperparameters; +1 for the noise variance at model level."""
    n = len(spec.param_names())
    return n + 1 if include_noise else n


def _atleast_2d(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 0:
        X = X.reshape(1, 1)
    elif X.ndim == 1:
        X = X.reshape(-1, 1)
    elif X.ndim != 2:
        raise InputError("points must be at most 2-dimensional arrays")
    return X


def _stationary_from_r(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    v, l = spec.variance, spec.lengthscale
    if spec.family == "exponential":
        return v * np.exp(-r / l)
    if spec.family == "matern32":
        z = SQRT3 * r / l
        return v * (1.0 + z) * np.exp(-z)
    if spec.family == "squared_exponential":
        return v * np.exp(-(r ** 2) / l)
    raise InputError(f"{spec.family} is not stationary")


def _polynomial_from_dot(spec: KernelSpec, dots: np.ndarray) -> np.ndarray:
    return (spec.variance * dots + spec.offset) ** spec.degree


def _as_point(x) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(-1)
    return x


def eval(spec: KernelSpec, x, xp) -> float:  # noqa: A001 - spec'd name
    """Evaluate k(x, x') for two points in R^p."""
    x = _as_point(x)
    xp = _as_point(xp)
    if x.shape != xp.shape:
        raise InputError(
            f"dimension mismatch: {x.shape[0]} vs {xp.shape[0]}")
    if spec.stationary:
        r = float(np.linalg.norm(x - xp))
        return float(_stationary_from_r(spec, np.array(r)))
    return float(_polynomial_from_dot(spec, float(x @ xp)))


def cross(spec: KernelSpec, X, Xs) -> np.ndarray:
    """The n x m matrix of covariances between rows of X and rows of Xs."""
    X = _atleast_2d(X)
    Xs = _atleast_2d(Xs)
    if X.shape[1] != Xs.shape[1]:
        raise InputError(
            f"dimension mismatch: {X.shape[1]} vs {Xs.shape[1]}")
    if spec.stationary:
        return _stationary_from_r(spec, cdist(X, Xs))
    return _polynomial_from_dot(spec, X @ Xs.T)


def diag(spec: KernelSpec, X) -> np.ndarray:
    """The prior variances k(x, x) of the rows of X, without a Gram matrix."""
    X = _atleast_2d(X)
    if spec.stationary:
        return np.full(X.shape[0], float(spec.variance))
    # a stack of row-by-column products rounds like eval's x @ x, which a
    # plain sum of squares does not for p >= 2
    return _polynomial_from_dot(spec, (X[:, None, :] @ X[:, :, None]).ravel())


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
        return _polynomial_from_dot(spec, self._dots)


def jittered_cholesky(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of K with escalating diagonal jitter.

    A clean factorization is attempted first; on failure jitter starts at
    1e-6 * mean(diag) and doubles until 1e-2 * mean(diag). Raises
    NumericalError if K is not finite or still fails to factorize.
    """
    if not np.all(np.isfinite(K)):
        raise NumericalError("covariance matrix has non-finite entries")
    scale = float(np.mean(np.diag(K)))
    if scale <= 0 or not np.isfinite(scale):
        scale = 1.0
    try:
        return np.linalg.cholesky(K), 0.0
    except np.linalg.LinAlgError:
        pass
    jitter = 1e-6 * scale
    cap = 1e-2 * scale
    while jitter <= cap:
        try:
            L = np.linalg.cholesky(K + jitter * np.eye(K.shape[0]))
            return L, jitter
        except np.linalg.LinAlgError:
            jitter *= 2.0
    raise NumericalError(
        "Cholesky factorization failed after jitter escalation")
