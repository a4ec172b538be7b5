"""Write every number a comparison reports on fixed inputs, for an `==` check.

The inputs are the three benchmark workloads' ``reference()`` inputs, the
first pool input of ``threshold_large`` (n = 400) and of ``boundary_2d``
(n = 300) at seed 0, each spanning several kernel chunks, and 20 fixed Lee
inputs (n = 100, d = 0.5, noise sd 0.3, four kernels, 2 restarts,
data and optimizer seeds as ``sim.run_cell`` draws them for repetitions
0-19 of cell 0 under master seed 0). For each input the JSON holds every
kernel's M0 and M1 log-ML, log BF, M1 effect mean and variance, the
kernel-averaged totals and the number of objective evaluations. On each
reference input it also holds every kernel's effect posterior away from the
effect point: ``effect_size`` at 5 points, one call per point, on a 1-D
input, and a 50-point ``geo.effect_profile`` on the 2-D boundary input. On
each 1-D reference input it also holds every fit's (M0, M1's two sides)
posterior mean and variance on the 200-point grid of the workloads' 1-D
query batches.
Last come the cells of one small ``cli.simulate`` grid, read back from the
summary file it writes, and the M0 and M1 log-ML of every kernel in each
of the grid's repetitions (``fits``, in the order the grid fits them: entry
i is repetition i % repetitions of cell i // repetitions). Every value is a
Python float written by ``repr``, so two outputs are equal as text exactly
when every number is bit-equal.

Run it in two checkouts and compare:

    python scripts/same_numbers.py > before.json   # in one checkout
    python scripts/same_numbers.py > after.json    # in the other
    cmp before.json after.json
    python scripts/same_numbers.py --diff before.json after.json

``--diff A B`` reads two such files and prints how many floats differ,
each file's total objective evaluations when the totals differ, the
largest absolute difference per quantity (the keys on a number's path below
its input, without list positions or kernel labels), and which inputs are
identical. Last it lists each M0 or M1 log-ML (``log_ml_m0``,
``log_ml_m1``) that rose, and each that fell, by more than ``MODE_CHANGE``
nats, with its input (and its place in ``fits``) and kernel: a change that
large is a fit that reached another mode, not the stopping tolerance. It
exits 0 when every number is equal, 1 when one differs, and 2 when the two
files do not hold the same keys and list lengths.

The package and the workloads come from the checkout the script is in;
nothing under ``bench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

# one BLAS thread, as tier-1 and the benchmark run; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import numpy as np  # noqa: E402

from gpqed import cli, geo, gp, hyperopt, inference, sim  # noqa: E402
from gpqed.hyperopt import OptConfig  # noqa: E402
from gpqed.inference import Threshold  # noqa: E402
from gpqed.kernels import from_name  # noqa: E402
from workloads import (CURVE_POINTS, WORKLOADS, Boundary2D,  # noqa: E402
                       ThresholdLarge, _step_data)

LEE_INPUTS = 20
KERNELS = ("linear", "exp", "matern32", "se")
EFFECT_POINTS = (-0.5, -0.25, 0.0, 0.25, 0.5)
QUERY_GRID = np.linspace(-1.0, 1.0, CURVE_POINTS).reshape(-1, 1)
PROFILE_POINTS = 50
# a log-ML change, in nats, above which --diff lists the fit
MODE_CHANGE = 1e-3
SIM_GRID = {"latents": ["Linear", "Lee"], "effects": [0.0, 1.0],
            "kernels": ["linear", "matern32"], "n": 30, "repetitions": 2,
            "seed": 0, "optimizer": {"restarts": 2}}


def _floats(values) -> list[float]:
    """A scalar or an array as a flat list of Python floats."""
    return [float(v) for v in np.ravel(values)]


def _lee(rep: int):
    """Repetition rep of a Lee cell, with the optimizer seed run_cell uses."""
    config = sim.SimConfig(latent="Lee", n=100, effect=0.5, noise_sd=0.3)
    data, opt = sim.repetition(config, 0, rep, OptConfig(restarts=2))
    return _numbers(inference.compare(data, Threshold(config.threshold),
                                      [from_name(k) for k in KERNELS], opt))


def _numbers(result: inference.ComparisonResult) -> dict:
    return {
        "kernels": {kr.kernel.label: {
            "log_ml_m0": kr.evidence_m0.log_ml,
            "log_ml_m1": kr.evidence_m1.log_ml,
            "log_bf10": kr.log_bf10,
            "effect_mean": float(kr.effect.m1_mean),
            "effect_var": float(kr.effect.m1_var)}
            for kr in result.kernel_results},
        "totals": {key: float(getattr(result, key)) for key in (
            "total_log_bf", "total_p_m1", "bma_m1_mean", "bma_m1_var",
            "bma_mean", "bma_var")}}


def _posterior(workload, kr, p: int) -> dict:
    """One kernel's effect posterior along the boundary (p = 2), or at
    EFFECT_POINTS, one effect_size call per point, with every fit's
    posterior on the 1-D query grid (p = 1)."""
    if p == 2:
        prof = geo.effect_profile(kr.fit_c, kr.fit_i, workload.boundary,
                                  count=PROFILE_POINTS)
        return {"means": _floats(prof.means),
                "variances": _floats(prof.variances)}
    pairs = [inference.effect_size(kr.fit_c, kr.fit_i, [x])
             for x in EFFECT_POINTS]
    curves = {}
    for name in ("fit_m0", "fit_c", "fit_i"):
        mean, var = gp.predict(getattr(kr, name), QUERY_GRID)
        curves[name] = {"means": _floats(mean), "variances": _floats(var)}
    return {"means": [v for m, _ in pairs for v in _floats(m)],
            "variances": [v for _, var in pairs for v in _floats(var)],
            "curves": curves}


def _reference(workload) -> dict:
    result = workload.reference()
    p = result.effect_point.shape[1]
    return {**_numbers(result), "posteriors": {
        kr.kernel.label: _posterior(workload, kr, p)
        for kr in result.kernel_results}}


# the first pool input of a workload at seed 0
FIRST = np.random.SeedSequence([0, 0])


def _threshold_large(workload: ThresholdLarge) -> dict:
    """An n = 400 input, five kernel chunks, fitted as an analysis at seed 0
    fits it."""
    return _numbers(inference.compare(
        _step_data(400, FIRST), Threshold(0.0), workload.kernels,
        OptConfig(restarts=1, seed=0)))


def _boundary_2d(workload: Boundary2D) -> dict:
    """An n = 300 input in 2-D, three kernel chunks, fitted as the workload
    fits the comparison its queries read."""
    return _numbers(inference.compare(
        workload._data(300, FIRST), workload.label, workload.kernels,
        OptConfig(restarts=workload.restarts, seed=0),
        effect_point=geo.boundary_points(workload.boundary, 3)[1]))


def _simulate(workdir: str) -> dict:
    """The cells of SIM_GRID as `simulate` writes them to its summary, and
    each comparison's log-MLs per kernel, recorded as `compare` returns."""
    path = os.path.join(workdir, "grid.json")
    fits = []
    compare = inference.compare

    def recording(*args, **kwargs):
        result = compare(*args, **kwargs)
        fits.append({kr.kernel.label: {"log_ml_m0": kr.evidence_m0.log_ml,
                                       "log_ml_m1": kr.evidence_m1.log_ml}
                     for kr in result.kernel_results})
        return result

    inference.compare = recording
    try:
        cli.simulate({**SIM_GRID, "output": {"summary_json": path}})
    finally:
        inference.compare = compare
    with open(path, encoding="utf-8") as fh:
        return {"cells": json.load(fh)["cells"], "fits": fits}


def _counted(run) -> dict:
    """run()'s numbers and the objective evaluations it made."""
    evals = 0
    optimize = hyperopt.optimize

    def counting(objective, points):
        def counted(x):
            nonlocal evals
            evals += 1
            return objective(x)
        return optimize(counted, points)

    hyperopt.optimize = counting
    try:
        out = run()
    finally:
        hyperopt.optimize = optimize
    out["objective_evals"] = evals
    return out


LARGE = {"threshold_large": _threshold_large, "boundary_2d": _boundary_2d}


def _leaves(tree, path=()):
    """(path, value) for every number or string in a parsed JSON tree; a
    list position is the int on the path."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from _leaves(value, path + (i,))
    else:
        yield path, tree


def _quantity(path) -> str:
    """A leaf's quantity name: its keys below the input, without list
    positions or kernel labels."""
    return ".".join(key for key in path[1:]
                    if isinstance(key, str) and key not in KERNELS) or path[0]


def diff(before: dict, after: dict) -> int:
    """Print how two outputs of this script differ; the exit status."""
    a, b = dict(_leaves(before)), dict(_leaves(after))
    if a.keys() != b.keys():
        path = min(a.keys() ^ b.keys(), key=str)
        print(f"the files differ in structure at {path}")
        return 2
    floats = differ = 0
    largest = {}
    changed = set()
    moved = {"rose": [], "fell": []}
    for path, x in a.items():
        y = b[path]
        if x != y and not (x != x and y != y):   # NaN equals NaN here
            changed.add(path[0])
            name = _quantity(path)
            gap = math.inf if str in (type(x), type(y)) else abs(y - x)
            largest[name] = max(largest.get(name, 0.0), gap)
            differ += isinstance(x, float)
            if path[-1] in ("log_ml_m0", "log_ml_m1") and gap > MODE_CHANGE:
                # the input, and a simulate fit's place in its list
                where = "/".join(str(key) for key in path[:-2]
                                 if key != "kernels")
                moved["rose" if y > x else "fell"].append(
                    f"  {where} {path[-2]} {path[-1]} {y - x:+.3g}")
        floats += isinstance(x, float)
    print(f"{differ} of {floats} floats differ")
    evals = before["objective_evals"], after["objective_evals"]
    if evals[0] != evals[1]:
        print(f"objective evaluations: {evals[0]} in A, {evals[1]} in B "
              f"({evals[1] / evals[0] - 1.0:+.1%})")
    if largest:
        print("largest absolute difference per quantity:")
        width = max(map(len, largest))
        for name in sorted(largest):
            print(f"  {name:<{width}}  {largest[name]:.3g}")
    inputs = [name for name in before if isinstance(before[name], dict)]
    same = [name for name in inputs if name not in changed]
    print(f"identical inputs ({len(same)} of {len(inputs)}): "
          + (", ".join(same) or "none"))
    for way, lines in moved.items():
        print(f"log-MLs that {way} by more than {MODE_CHANGE:g} nats: "
              f"{len(lines)}", *lines, sep="\n")
    return 1 if changed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="compare two outputs of this script")
    args = parser.parse_args()
    if args.diff:
        trees = []
        for name in args.diff:
            with open(name, encoding="utf-8") as fh:
                trees.append(json.load(fh))
        return diff(*trees)
    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, cls in WORKLOADS.items():
            workload = cls(seed=0, workdir=workdir)
            out[f"reference/{name}"] = _counted(lambda: _reference(workload))
            if name in LARGE:
                out[f"large/{name}"] = _counted(
                    lambda: LARGE[name](workload))
        for rep in range(LEE_INPUTS):
            out[f"lee/{rep}"] = _counted(lambda: _lee(rep))
        out["simulate"] = _counted(lambda: _simulate(workdir))
    out["objective_evals"] = sum(v["objective_evals"] for v in out.values())
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
