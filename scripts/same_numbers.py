"""Write every number a comparison reports on fixed inputs, for an `==` check.

The inputs are the three benchmark workloads' ``reference()`` inputs and 20
fixed Lee inputs (n = 100, d = 0.5, noise sd 0.3, four kernels, 2 restarts,
data and optimizer seeds as ``sim.run_cell`` draws them for repetitions
0-19 of cell 0 under master seed 0). For each input the JSON holds every
kernel's M0 and M1 log-ML, log BF, M1 effect mean and variance, the
kernel-averaged totals and the number of objective evaluations. Floats are
written by ``repr``, so two outputs are equal as text exactly when every
number is bit-equal.

Run it in two checkouts and compare:

    python scripts/same_numbers.py > before.json   # in one checkout
    python scripts/same_numbers.py > after.json    # in the other
    cmp before.json after.json

The package and the workloads come from the checkout the script is in;
nothing under ``bench/`` is changed.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

# one BLAS thread, as tier-1 and the benchmark run; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from gpqed import hyperopt, inference, sim  # noqa: E402
from gpqed.hyperopt import OptConfig  # noqa: E402
from gpqed.inference import Threshold  # noqa: E402
from gpqed.kernels import from_name  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LEE_INPUTS = 20
KERNELS = ("linear", "exp", "matern32", "se")


def _lee(rep: int):
    """Repetition rep of a Lee cell, with the optimizer seed run_cell uses."""
    config = sim.SimConfig(latent="Lee", n=100, effect=0.5, noise_sd=0.3)
    data = sim.generate(config, seed=sim.rep_seed(config.seed, 0, rep))
    opt_seed = int(sim.rep_seed(config.seed, 0, rep, stream=1)
                   .generate_state(1)[0])
    return inference.compare(data, Threshold(config.threshold),
                             [from_name(k) for k in KERNELS],
                             OptConfig(restarts=2, seed=opt_seed))


def _numbers(result: inference.ComparisonResult) -> dict:
    return {
        "kernels": {kr.kernel.label: {
            "log_ml_m0": kr.evidence_m0.log_ml,
            "log_ml_m1": kr.evidence_m1.log_ml,
            "log_bf10": kr.log_bf10,
            "effect_mean": kr.effect.m1_mean,
            "effect_var": kr.effect.m1_var} for kr in result.kernel_results},
        "totals": {key: float(getattr(result, key)) for key in (
            "total_log_bf", "total_p_m1", "bma_m1_mean", "bma_m1_var",
            "bma_mean", "bma_var")}}


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
        out = _numbers(run())
    finally:
        hyperopt.optimize = optimize
    out["objective_evals"] = evals
    return out


def main() -> int:
    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, cls in WORKLOADS.items():
            out[f"reference/{name}"] = _counted(
                cls(seed=0, workdir=workdir).reference)
    for rep in range(LEE_INPUTS):
        out[f"lee/{rep}"] = _counted(lambda: _lee(rep))
    out["objective_evals"] = sum(v["objective_evals"] for v in out.values())
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
