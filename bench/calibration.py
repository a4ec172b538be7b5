"""Machine-speed calibration of the benchmark's timings.

On a shared 2-core VM the wall time of identical work drifted by up to 75%
between 10-second windows. A fixed unit of work that does not touch gpqed
is timed around each measured span, and timings are reported in reference
seconds:

    wall time * unit.reference_s / mean of the unit's times around the span

Set-ups, analyses and query batches are each calibrated by the unit whose
work is most like theirs, because neighbours on the host slow
interpreter-bound and dense work by different factors at different times
(one window slowed the interpreter unit 1.7x while n = 400 comparisons ran
at their usual speed):

- INTERPRETER, for small fits and set-ups: an interpreter loop over small
  numpy calls plus a 250 x 250 Cholesky factorization. Over 20-second
  windows it cut the spread (quartile distance over median) of one
  n = 100 `compare` from 13% to 2%, and of a batch of predictions from
  15% to 5%.
- GP_FIT, for fits at n = 300-400 and predictions against them: two
  L-BFGS-B iterations, with finite-difference gradients, of a Matern-3/2
  GP marginal likelihood on 400 fixed points, written here in plain
  numpy/scipy. Over 24 windows of 25 seconds of n = 400 comparisons it cut
  the spread of the window median from 15% to 7-9%; timing Cholesky
  factorizations or Gram builds alone tracked those comparisons less
  closely. It also tracked the 2-D n = 300 analyses and their query
  batches more closely than INTERPRETER, which overcorrected them.

A change to gpqed cannot move either unit.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize


class Unit:
    """A fixed unit of work and its median time on an unloaded machine
    (2-core x86_64 VM, OpenBLAS with one thread)."""

    def __init__(self, name: str, work, reference_s: float, repeats: int):
        self.name = name
        self.work = work
        self.reference_s = reference_s
        self.repeats = repeats

    def measure(self) -> float:
        """Median wall time of `repeats` units."""
        times = []
        for _ in range(self.repeats):
            started = time.perf_counter()
            self.work()
            times.append(time.perf_counter() - started)
        return statistics.median(times)

    def scale(self, before: float, after: float) -> float:
        """Reference seconds per wall second, from the unit's times around
        a span."""
        return self.reference_s / ((before + after) / 2.0)


_x = np.linspace(0.0, 1.0, 250)
_dist = np.abs(_x[:, None] - _x[None, :])
_rhs = np.cos(7.0 * _x)


def _interpreter_work() -> float:
    K = np.exp(-_dist / 0.3) + 0.1 * np.eye(len(_x))
    a = cho_solve((np.linalg.cholesky(K), True), _rhs)
    total = 0.0
    for i in range(400):
        v = np.array([i, 1.0, 2.0])
        j = i % (len(a) - 3)
        total += math.log(1.0 + float(v @ v)) + float(np.sum(a[j:j + 3]))
    return total


_fit_x = np.linspace(-1.0, 1.0, 400)
_fit_dist = np.abs(_fit_x[:, None] - _fit_x[None, :])
_fit_y = (np.sin(3.0 * _fit_x) + (_fit_x >= 0.0)
          + 0.3 * np.random.default_rng(0).standard_normal(len(_fit_x)))


def _neg_log_ml(z: np.ndarray) -> float:
    variance, lengthscale, noise = np.exp(z)
    r = math.sqrt(3.0) * _fit_dist / lengthscale
    K = variance * (1.0 + r) * np.exp(-r) + noise * np.eye(len(_fit_x))
    factor = cho_factor(K, lower=True)
    return float(0.5 * _fit_y @ cho_solve(factor, _fit_y)
                 + np.sum(np.log(np.diag(factor[0]))))


def _gp_fit_work():
    # deterministic: the same 16 likelihood evaluations every time
    return minimize(_neg_log_ml, np.zeros(3), method="L-BFGS-B",
                    options={"maxiter": 2})


INTERPRETER = Unit("interpreter", _interpreter_work, reference_s=0.004,
                   repeats=5)
GP_FIT = Unit("gp_fit", _gp_fit_work, reference_s=0.05, repeats=1)
