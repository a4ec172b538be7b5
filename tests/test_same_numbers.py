"""The bit-equality tool runs: ``scripts/same_numbers.py`` exits 0 and its
JSON holds every input it documents, so an API change that breaks the tool
fails here rather than in the next comparison of two checkouts."""

import json
import math
import subprocess
import sys
from pathlib import Path

INPUTS = {"reference/sim_grid", "reference/threshold_large",
          "reference/boundary_2d", "large/threshold_large",
          "large/boundary_2d", *(f"lee/{rep}" for rep in range(20)),
          "simulate"}


def test_same_numbers_runs():
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable,
                           str(root / "scripts" / "same_numbers.py")],
                          cwd=root, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    out = json.loads(done.stdout)
    assert set(out) == INPUTS | {"objective_evals"}
    assert all(out[name]["objective_evals"] > 0 for name in INPUTS)
    assert out["objective_evals"] == sum(out[name]["objective_evals"]
                                         for name in INPUTS)
    # each 1-D reference input has every fit's posterior on the query grid
    for name in ("reference/sim_grid", "reference/threshold_large"):
        for posterior in out[name]["posteriors"].values():
            for curve in posterior["curves"].values():
                assert len(curve["means"]) == len(curve["variances"]) == 200
                assert all(map(math.isfinite,
                               curve["means"] + curve["variances"]))
