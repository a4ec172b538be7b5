"""Exception hierarchy shared across the package, and its checks of a
random seed and of a count.

Exit-code mapping used by the CLI: ConfigError -> 2, DataError -> 3,
NumericalError -> 4.
"""

import numbers

import numpy as np


class GpqedError(Exception):
    """Base class for all package errors."""


class InputError(GpqedError, ValueError):
    """Invalid argument to a library call (shape/dimension mismatch etc.)."""


class ConfigError(GpqedError):
    """Invalid or inconsistent analysis configuration."""


class DataError(GpqedError):
    """Malformed or unusable input data."""


class NumericalError(GpqedError):
    """A numerical routine failed beyond recovery (e.g. Cholesky breakdown)."""


class OptimizationError(NumericalError):
    """All optimizer restarts diverged."""


def check_seed(seed):
    """seed, when numpy can seed a generator from it: an integer >= 0 or a
    SeedSequence. InputError otherwise, where numpy raises an untyped
    ValueError or TypeError."""
    if not (isinstance(seed, np.random.SeedSequence)
            or isinstance(seed, numbers.Integral) and seed >= 0):
        raise InputError(f"seed must be an integer >= 0, got {seed!r}")
    return seed


def check_count(name, value):
    """InputError naming the argument name unless value is an integer >= 1
    that is not a bool (numpy integers pass), where numpy would raise an
    untyped TypeError or, for True, count 1."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < 1):
        raise InputError(f"{name} must be an integer >= 1, got {value!r}")
