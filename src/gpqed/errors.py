"""Exception hierarchy shared across the package, and its two checks of a
setting it is given: `check_int` (an integer that is not a bool, of at least
a bound: every count, size and seed) and `check_number` (a finite real
number that is not a bool), each an InputError when it fails. `check_seed`
is `check_int` for a seed, or a SeedSequence.

A library check raises InputError; ConfigError is the command line's own.
The CLI exits 2 on either, 3 on DataError and 4 on NumericalError.
"""

import math
import numbers
import sys

import numpy as np


class GpqedError(Exception):
    """Base class for all package errors."""


class InputError(GpqedError, ValueError):
    """A value a library check rejects (shape mismatch, unknown name etc.)."""


class ConfigError(GpqedError):
    """The command line's own error: a config key or file it cannot use."""


class DataError(GpqedError):
    """Malformed or unusable input data."""


class NumericalError(GpqedError):
    """A numerical routine failed beyond recovery (e.g. Cholesky breakdown)."""


class OptimizationError(NumericalError):
    """All optimizer restarts diverged."""


def check_int(name, value, low):
    """value, if it is an integer >= low that is not a bool (numpy integers
    pass); InputError naming name otherwise, where numpy would raise an
    untyped TypeError or take True as 1."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low):
        raise InputError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def check_number(name, value):
    """value, if it is a finite real number that is not a bool; InputError
    naming name otherwise."""
    # a finite Python float, as the search passes, needs no further test;
    # an integer too large for a float fails the exact comparison, where
    # math.isfinite would raise OverflowError; a float takes math.isfinite,
    # as numpy would compare a float32 with the bound cast to float32's inf
    if not (type(value) is float and math.isfinite(value)) and (
            isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (abs(value) <= sys.float_info.max
                    if isinstance(value, numbers.Integral)
                    else math.isfinite(value))):
        raise InputError(f"{name} must be a finite number, got {value!r}")
    return value


def check_seed(seed):
    """seed, when numpy can seed a generator from it: a SeedSequence or an
    integer >= 0 that is not a bool. InputError otherwise, where numpy raises
    an untyped ValueError or TypeError."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return check_int("seed", seed, 0)
