"""``scripts/bench_pairs.py``'s summary of alternating benchmark pairs, on
canned results: no benchmark runs."""

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]


def _result(analysis_s, failed=0, rss=100.0):
    """A run's result line: analysis_s as given, every other metric fixed
    (analyses_per_s its inverse)."""
    values = dict.fromkeys(METRICS, 1.0)
    values.update(analysis_s=analysis_s, analyses_per_s=1.0 / analysis_s,
                  peak_rss_mb=rss)
    return {"correct": failed == 0, "attempted": 100, "failed": failed,
            "metrics": {m: {"value": v, "unit": "s"}
                        for m, v in values.items()}}


def _pairs(parent, change, **change_kwargs):
    """Results in the order the script makes them: the parent first in
    even pairs, the change in odd ones."""
    results = []
    for i, (p, c) in enumerate(zip(parent, change)):
        run = [[2800 + i, "parent", _result(p)],
               [2800 + i, "change", _result(c, **change_kwargs)]]
        results += run if i % 2 == 0 else run[::-1]
    return results


PARENT = [0.052, 0.053, 0.051, 0.0525, 0.0515, 0.052, 0.054, 0.0518,
          0.0522, 0.0530]


def test_claim_met():
    change = [p - 0.003 for p in PARENT]
    out = bench_pairs.summarize(_pairs(PARENT, change), BENCHMARK)
    assert out["seeds"] == list(range(2800, 2810)) and out["pairs"] == 10
    assert out["first"] == ["parent", "change"] * 5
    assert out["attempted"] == {"parent": 1000, "change": 1000}
    assert out["failed"] == {"parent": 0, "change": 0}
    assert out["correct"] == {"parent": True, "change": True}
    assert out["failed_share_ok"]
    s = out["summary"]["analysis_s"]
    # inclusive quartiles of the sorted parent values 0.051 ... 0.054
    assert s["parent_quartiles"] == pytest.approx([0.05185, 0.0521, 0.052875])
    assert s["parent_median"] == pytest.approx(0.0521)
    assert s["change_median"] == pytest.approx(0.0491)
    assert s["change_vs_parent"] == pytest.approx(-0.003 / 0.0521)
    assert s["change_better_pairs"] == "10/10"
    assert s["pairs_parent_change"][3] == [0.0525, pytest.approx(0.0495)]
    assert s["claim"] and s["bound"]
    assert s["parent_spread"] == pytest.approx(0.001025 / 0.0521)
    # analyses_per_s is better higher: the same runs win there too
    assert out["summary"]["analyses_per_s"]["change_better_pairs"] == "10/10"
    assert out["summary"]["analyses_per_s"]["claim"]
    # equal readings are no win and no claim, and within every bound
    assert out["summary"]["setup_s"]["change_better_pairs"] == "0/10"
    assert not out["summary"]["setup_s"]["claim"]
    assert out["summary"]["setup_s"]["bound"]
    assert len(out["results"]) == 20


def test_eight_wins_are_no_claim():
    change = [p - 0.003 for p in PARENT[:8]] + [p + 0.001
                                                for p in PARENT[8:]]
    s = bench_pairs.summarize(_pairs(PARENT, change),
                              BENCHMARK)["summary"]["analysis_s"]
    assert s["change_better_pairs"] == "8/10" and not s["claim"]


def test_gap_within_the_parent_spread_is_no_claim():
    # better in every pair, by less than the parent's quartile distance
    change = [p - 0.0002 for p in PARENT]
    s = bench_pairs.summarize(_pairs(PARENT, change),
                              BENCHMARK)["summary"]["analysis_s"]
    assert s["change_better_pairs"] == "10/10" and not s["claim"]


def test_nine_pairs_are_no_claim():
    change = [p - 0.003 for p in PARENT]
    s = bench_pairs.summarize(_pairs(PARENT[:9], change[:9]),
                              BENCHMARK)["summary"]["analysis_s"]
    assert s["change_better_pairs"] == "9/9" and not s["claim"]


def test_bound():
    bound = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    out = bench_pairs.summarize(
        _pairs(PARENT, [p * 1.3 for p in PARENT], rss=104.0), BENCHMARK)
    # analysis_s 30% worse, past its bound; analyses_per_s 1 - 1/1.3 =
    # 23% worse, inside it; peak_rss_mb 4% worse, inside its 5%
    assert bound["analysis_s"] < 0.3 and not out["summary"]["analysis_s"][
        "bound"]
    assert out["summary"]["analyses_per_s"]["bound"]
    assert out["summary"]["peak_rss_mb"]["bound"]
    out = bench_pairs.summarize(
        _pairs(PARENT, PARENT, rss=106.0), BENCHMARK)
    assert not out["summary"]["peak_rss_mb"]["bound"]


def test_larger_failed_share():
    out = bench_pairs.summarize(_pairs(PARENT, PARENT, failed=1), BENCHMARK)
    assert out["failed"] == {"parent": 0, "change": 10}
    assert out["correct"] == {"parent": True, "change": False}
    assert not out["failed_share_ok"]


def test_one_pair():
    s = bench_pairs.summarize(_pairs(PARENT[:1], [0.05]),
                              BENCHMARK)["summary"]["analysis_s"]
    assert s["parent_quartiles"] == [0.052] * 3
    assert s["change_better_pairs"] == "1/1" and not s["claim"]


@pytest.mark.parametrize("text, seeds", [("7-7", [7]),
                                         ("2801-2803", [2801, 2802, 2803])])
def test_parse_seeds(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds


@pytest.mark.parametrize("text", ["7", "3-1", "-1-2", "a-b", "1-2-3"])
def test_parse_seeds_rejects(text):
    with pytest.raises(argparse.ArgumentTypeError, match="A-B"):
        bench_pairs.parse_seeds(text)

