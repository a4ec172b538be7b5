"""Run alternating pairs of the benchmark on two checkouts and summarize them.

    python scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload sim_grid --seeds 2801-2810 > pairs.json

A pair runs ``bench/run.py --workload W --seed S --seconds T --trace 0`` in
each checkout, one after the other, at one seed of the range; T is the
``run_seconds`` of this checkout's ``BENCHMARK.json``. The parent runs first
in pairs 0, 2, 4, ... and the change in the others, so that neither side
always meets the host warmer. A run's result is the last line of its
output; a run that writes no result line stops the script.

Standard output gets one JSON object: the workload's entry in the ``runs``
layout of the ``BENCH_<n>.json`` files (the seeds, the number of pairs,
each side's attempted and failed operations and whether every operation
passed its checks, which side ran first in each pair, and per end-to-end
metric each side's median and inclusive quartiles, the change's relative
change of median, the pairs the change won and every pair's two values),
with three additions per metric:

- ``bound``: whether the change's median is worse than the parent's by no
  more than the metric's ``bound`` in ``BENCHMARK.json``, as a fraction of
  the parent's median;
- ``claim``: whether a claimed gain on the metric is met: at least 10
  pairs, the change better in at least 9 of every 10 of them, and the
  medians further apart than the parent's quartile distance;
- ``parent_spread``: the parent's quartile distance over its median, which
  the ``bound`` must clear for a reading to tell anything.

``failed_share_ok`` says whether the change failed no larger share of its
operations than the parent, and ``results`` holds every run's result line
as ``[seed, side, result]``. Progress goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
# a claimed gain needs this many pairs, and the change better in this
# share of them
CLAIM_PAIRS, CLAIM_WINS = 10, 0.9


def parse_seeds(text: str) -> list[int]:
    """The seeds A..B, both included, of the text "A-B"."""
    try:
        first, last = (int(part) for part in text.split("-"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected A-B, two integers >= 0, got {text!r}") from None
    if not 0 <= first <= last:
        raise argparse.ArgumentTypeError(
            f"expected A-B with 0 <= A <= B, got {text!r}")
    return list(range(first, last + 1))


def run(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in checkout; its result line."""
    done = subprocess.run(
        [sys.executable, os.path.join(checkout, "bench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"error: {checkout} seed {seed} wrote no result line "
                 f"(exit {done.returncode}):\n{done.stderr[-2000:]}")


def _quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(results: list, benchmark: dict) -> dict:
    """The summary described in the module docstring, from results, a list
    of [seed, side, result] in the order the runs were made, and the
    parsed BENCHMARK.json."""
    seeds = list(dict.fromkeys(seed for seed, _, _ in results))
    by = {(seed, side): result for seed, side, result in results}
    first = [next(side for s, side, _ in results if s == seed)
             for seed in seeds]
    sides = {side: [by[seed, side] for seed in seeds] for side in SIDES}
    out = {
        "seeds": seeds, "pairs": len(seeds),
        "failed": {side: sum(r["failed"] for r in rs)
                   for side, rs in sides.items()},
        "attempted": {side: sum(r["attempted"] for r in rs)
                      for side, rs in sides.items()},
        "correct": {side: all(r["correct"] for r in rs)
                    for side, rs in sides.items()},
        "first": first,
    }
    share = {side: out["failed"][side] / max(out["attempted"][side], 1)
             for side in SIDES}
    out["failed_share_ok"] = share["change"] <= share["parent"]
    out["summary"] = {}
    for metric in benchmark["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        values = {side: [r["metrics"][name]["value"] for r in rs]
                  for side, rs in sides.items()}
        parent_q, change_q = (_quartiles(values[side]) for side in SIDES)
        parent_median, change_median = parent_q[1], change_q[1]
        relative = (change_median - parent_median) / parent_median
        wins = sum(sign * (c - p) < 0
                   for p, c in zip(values["parent"], values["change"]))
        pairs = len(seeds)
        out["summary"][name] = {
            "parent_median": parent_median, "parent_quartiles": parent_q,
            "change_median": change_median, "change_quartiles": change_q,
            "change_vs_parent": relative,
            "change_better_pairs": f"{wins}/{pairs}",
            "pairs_parent_change": [list(p) for p in zip(values["parent"],
                                                         values["change"])],
            "bound": sign * relative <= metric["bound"],
            "claim": (pairs >= CLAIM_PAIRS
                      and wins >= math.ceil(CLAIM_WINS * pairs)
                      and sign * (parent_median - change_median)
                      > parent_q[2] - parent_q[0]),
            "parent_spread": (parent_q[2] - parent_q[0]) / parent_median,
        }
    out["results"] = results
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="A-B, one pair per seed")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    checkout = {"parent": args.parent, "change": args.change}
    results = []
    for i, seed in enumerate(args.seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            result = run(checkout[side], args.workload, seed,
                         benchmark["run_seconds"])
            results.append([seed, side, result])
            print(f"# {args.workload} seed {seed} {side}: " + json.dumps(
                {m: v["value"] for m, v in result["metrics"].items()}),
                file=sys.stderr, flush=True)
    print(json.dumps(summarize(results, benchmark), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
