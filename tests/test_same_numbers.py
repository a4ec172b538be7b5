"""The bit-equality tool runs: ``scripts/same_numbers.py`` exits 0 and its
JSON holds every input it documents, so an API change that breaks the tool
fails here rather than in the next comparison of two checkouts; and its
``--diff`` mode reports what differs between two of its outputs."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "same_numbers.py"
INPUTS = {"reference/sim_grid", "reference/threshold_large",
          "reference/boundary_2d", "large/threshold_large",
          "large/boundary_2d", *(f"lee/{rep}" for rep in range(20)),
          "simulate"}


def _run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)


@pytest.fixture(scope="module")
def output():
    done = _run()
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def test_same_numbers_runs(output):
    out = json.loads(output)
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
    # one entry per repetition of every simulate cell, each kernel's two
    # log-MLs in it
    fits = out["simulate"]["fits"]
    assert len(fits) == len(out["simulate"]["cells"]) * 2
    for fit in fits:
        assert sorted(fit) == ["linear", "matern32"]
        for pair in fit.values():
            assert sorted(pair) == ["log_ml_m0", "log_ml_m1"]
            assert all(map(math.isfinite, pair.values()))


def _floats(tree):
    if isinstance(tree, dict):
        return sum(map(_floats, tree.values()))
    if isinstance(tree, list):
        return sum(map(_floats, tree))
    return isinstance(tree, float)


def test_diff_against_itself(output, tmp_path):
    path = tmp_path / "a.json"
    path.write_text(output)
    done = _run("--diff", path, path)
    assert done.returncode == 0, done.stderr[-2000:]
    out = json.loads(output)
    inputs = [name for name in out if name in INPUTS]
    assert done.stdout.splitlines() == [
        f"0 of {_floats(out)} floats differ",
        f"identical inputs ({len(INPUTS)} of {len(INPUTS)}): "
        + ", ".join(inputs),
        "log-MLs that rose by more than 0.001 nats: 0",
        "log-MLs that fell by more than 0.001 nats: 0"]


def test_diff_against_a_perturbed_copy(output, tmp_path):
    out = json.loads(output)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(output)
    out["lee/3"]["kernels"]["se"]["log_ml_m1"] += 0.25
    out["lee/7"]["kernels"]["exp"]["log_ml_m1"] -= 0.5
    # a rise within the stopping tolerance is not a change of mode
    out["lee/3"]["kernels"]["linear"]["log_ml_m0"] += 5e-4
    out["simulate"]["cells"][1]["mean_log_bf"]["linear"] += 1e-9
    # a simulate fit that reached another mode is named by its place
    out["simulate"]["fits"][5]["matern32"]["log_ml_m0"] += 2.0
    out["lee/7"]["objective_evals"] += 3
    b.write_text(json.dumps(out))
    done = _run("--diff", a, b)
    assert done.returncode == 1, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert lines[0] == f"5 of {_floats(out)} floats differ"
    table = dict(line.split() for line in lines[2:-6])
    assert table == {"kernels.log_ml_m0": "0.0005", "kernels.log_ml_m1": "0.5",
                     "cells.mean_log_bf": "1e-09", "fits.log_ml_m0": "2",
                     "objective_evals": "3"}
    same = sorted(INPUTS - {"lee/3", "lee/7", "simulate"})
    assert sorted(lines[-6].split(": ")[1].split(", ")) == same
    assert lines[-6].startswith(f"identical inputs ({len(same)} of ")
    assert lines[-5:] == ["log-MLs that rose by more than 0.001 nats: 2",
                          "  lee/3 se log_ml_m1 +0.25",
                          "  simulate/fits/5 matern32 log_ml_m0 +2",
                          "log-MLs that fell by more than 0.001 nats: 1",
                          "  lee/7 exp log_ml_m1 -0.5"]


def test_diff_of_another_structure(output, tmp_path):
    out = json.loads(output)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(output)
    del out["lee/3"]
    b.write_text(json.dumps(out))
    done = _run("--diff", a, b)
    assert done.returncode == 2
    assert "structure" in done.stdout


def test_diff_prints_each_files_evaluations(output, tmp_path):
    # equal numbers from fewer objective evaluations: the totals are
    # printed under the float count
    out = json.loads(output)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(output)
    total = out["objective_evals"]
    out["lee/7"]["objective_evals"] -= 3
    out["objective_evals"] -= 3
    b.write_text(json.dumps(out))
    done = _run("--diff", a, b)
    assert done.returncode == 1, done.stderr[-2000:]
    assert done.stdout.splitlines()[:2] == [
        f"0 of {_floats(out)} floats differ",
        f"objective evaluations: {total} in A, {total - 3} in B "
        f"({-3 / total:+.1%})"]
