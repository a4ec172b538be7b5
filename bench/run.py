"""Benchmark for gpqed: end-to-end metrics, or per-layer metrics when traced.

    python3 bench/run.py --workload sim_grid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run from anywhere; it builds nothing and imports gpqed from ``src/`` of the
checkout that holds this file. Every file it writes goes under
``.bench_work/`` of that checkout.

Untraced (``--trace 0``): set-up is done five times (a fresh interpreter
importing gpqed, input generation, file writes and one small warm-up
analysis) and its median is ``setup_s``. A closed loop with one caller then
runs turns of one analysis and the workload's query batches until
``--seconds`` have passed. Afterwards a fixed reference input is analyzed
and its MAP log-MLs are checked against ``reference.json``, and log-MLs are
checked against a dense oracle. Timing metrics are in reference seconds:
each set-up, each analysis and each turn's query batches sit between two
timings of a calibration unit, and their wall time is scaled by its mean
speed (see calibration.py). ``analyses_per_s`` counts analyses per reference second
of turn time. The wall-time figures are printed alongside.

Traced (``--trace 1``): a fixed number of turns (``trace_analyses`` of the
workload) run with every layer wrapped, so the counts repeat exactly at one
seed; ``--seconds`` does not apply. Each traced turn is repeated untraced
right after it, and the median of the paired differences in analysis time
is the tracing overhead. The aggregated span table is written to
``.bench_work/<workload>/trace.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An operation (an
analysis, a query batch or a reference check) fails when it raises a
GpqedError or fails an output check; any failure makes the exit code 1.
``--smoke`` runs every workload at a tiny size, traced and untraced, and
checks that every metric named in BENCHMARK.json is reported.
"""

from __future__ import annotations

import os
import sys

# pin BLAS to one thread before numpy is imported: on two cores a second
# BLAS thread made n = 1000 comparisons slower and far noisier
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402


BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_ROUNDS = 5
SMOKE_SECONDS = 0.5


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.problems.append(f"{what}: {'; '.join(problems)}")
        return not problems

    @property
    def failed(self) -> int:
        return len(self.problems)


def _fresh_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def _import_in_fresh_interpreter() -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    subprocess.run([sys.executable, "-c", "import gpqed.cli"], env=env,
                   cwd=ROOT, check=True)


def set_up(cls, seed: int, workdir: str, smoke: bool, rounds: int):
    """The workload after `rounds` timed set-ups, and their times in
    reference seconds."""
    times = []
    for _ in range(rounds):
        _fresh_dir(workdir)
        before = cls.setup_unit.measure()
        started = time.perf_counter()
        _import_in_fresh_interpreter()
        workload = cls(seed, workdir, smoke)
        workload.setup()
        elapsed = time.perf_counter() - started
        times.append(elapsed * cls.setup_unit.scale(
            before, cls.setup_unit.measure()))
    return workload, times


def attempt(tally: Tally, what: str, fn, check):
    """Run fn() timed, then check(out); returns (seconds, out) or None."""
    from gpqed.errors import GpqedError
    started = time.perf_counter()
    try:
        out = fn()
        elapsed = time.perf_counter() - started
        problems = check(out)
    except GpqedError as exc:
        elapsed = out = None
        problems = [f"{type(exc).__name__}: {exc}"]
    return (elapsed, out) if tally.record(what, problems) else None


def analysis_step(workload, tally: Tally, i: int) -> float | None:
    """Analysis i; returns its time, or None if it failed."""
    inp = workload.analysis_input(i)
    done = attempt(tally, f"analysis {i}", lambda: workload.analyze(inp),
                   lambda out: workload.check_analysis(inp, out))
    return done[0] if done else None


def query_step(workload, tally: Tally, i: int) -> list[float]:
    """The query batches of turn i; returns the times of those that
    succeeded."""
    times = []
    for j in range(workload.queries_per_analysis * i,
                   workload.queries_per_analysis * (i + 1)):
        if workload.target is None:
            break
        q = workload.query_input(j)
        done = attempt(tally, f"query {j}", lambda: workload.query(q),
                       lambda out: workload.check_query(q, out))
        if done:
            times.append(done[0])
    return times


def turn(workload, tally: Tally, i: int) -> float | None:
    """One analysis, then the workload's query batches; returns the
    analysis time, or None if it failed."""
    elapsed = analysis_step(workload, tally, i)
    query_step(workload, tally, i)
    return elapsed


def _calibrate(workload) -> dict:
    """Wall time of each of the workload's calibration units, by unit."""
    units = (workload.analysis_unit, workload.query_unit)
    return {unit: unit.measure() for unit in dict.fromkeys(units)}


def closed_loop(workload, tally: Tally, seconds: float) -> dict:
    """Turns until `seconds` have passed. Each analysis and each turn's
    query batches sit between two calibrations, and are scaled by the
    workload's analysis unit and query unit respectively.

    Returns the analysis and query batch times in wall and in reference
    seconds, the calibration times per unit, and the summed turn times
    (without the calibrations) in wall and in reference seconds.
    """
    out = {"analysis": [], "query": [], "analysis_ref": [], "query_ref": [],
           "calibration": [_calibrate(workload)],
           "wall": 0.0, "wall_ref": 0.0}
    a_unit, q_unit = workload.analysis_unit, workload.query_unit
    started = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - started < seconds:
        step_started = time.perf_counter()
        elapsed = analysis_step(workload, tally, i)
        analysis_wall = time.perf_counter() - step_started
        out["calibration"].append(_calibrate(workload))
        step_started = time.perf_counter()
        query_s = query_step(workload, tally, i)
        query_wall = time.perf_counter() - step_started
        out["calibration"].append(_calibrate(workload))
        before, middle, after = out["calibration"][-3:]
        a_scale = a_unit.scale(before[a_unit], middle[a_unit])
        q_scale = q_unit.scale(middle[q_unit], after[q_unit])
        if elapsed is not None:
            out["analysis"].append(elapsed)
            out["analysis_ref"].append(elapsed * a_scale)
        out["query"] += query_s
        out["query_ref"] += [t * q_scale for t in query_s]
        out["wall"] += analysis_wall + query_wall
        out["wall_ref"] += analysis_wall * a_scale + query_wall * q_scale
        i += 1
    return out


def verify(workload, tally: Tally) -> None:
    """Reference MAP log-MLs and dense-oracle log-MLs."""
    import checks
    with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)[workload.name]
    attempt(tally, "reference input", workload.reference,
            lambda r: checks.map_not_below(r, recorded)
            + checks.log_ml_matches_oracle(r))
    if workload.target is not None:
        tally.record("dense oracle",
                     checks.log_ml_matches_oracle(workload.target))


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with 10 samples above."""
    if len(values) < 20:
        return None
    ordered = sorted(values)
    return 100.0 * (len(ordered) - 10) / len(ordered), ordered[-11]


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(cls, seed: int, seconds: float, smoke: bool):
    workdir = os.path.join(WORK, cls.name)
    tally = Tally()
    workload, setup_times = set_up(cls, seed, workdir, smoke, SETUP_ROUNDS)
    attempt(tally, "prepare", workload.prepare, lambda _: [])
    loop = closed_loop(workload, tally, seconds)
    verify(workload, tally)
    analysis_s = loop["analysis_ref"]
    metrics = {
        "setup_s": _median(setup_times),
        "analysis_s": _median(analysis_s),
        "analyses_per_s": len(analysis_s) / loop["wall_ref"],
        "query_s": _median(loop["query_ref"]),
        "peak_rss_mb": _peak_rss_mb(),
    }
    tail = _tail(analysis_s)
    info = [f"analyses {len(analysis_s)}, query batches "
            f"{len(loop['query'])}, turns {loop['wall']:.3f} s wall, "
            f"{loop['wall_ref']:.3f} s reference",
            "calibration medians: " + ", ".join(
                f"{unit.name} {_median([c[unit] for c in loop['calibration']]):.5f}"
                f" s (reference {unit.reference_s} s)"
                for unit in loop["calibration"][0]),
            f"wall-time medians: analysis {_median(loop['analysis']):.4f} s, "
            f"query {_median(loop['query']):.4f} s, analyses per second "
            f"{len(analysis_s) / loop['wall']:.4f}",
            f"setup rounds {[round(t, 4) for t in setup_times]}",
            f"analysis times {[round(t, 4) for t in loop['analysis']]}",
            "analysis_s tail: " + (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail
                                   else "n/a (fewer than 20 analyses)")]
    return tally, metrics, info


def run_traced(cls, seed: int, smoke: bool):
    from tracer import Tracer
    workdir = os.path.join(WORK, cls.name)
    tally = Tally()
    count = 1 if smoke else cls.trace_analyses
    workload, _ = set_up(cls, seed, workdir, smoke, 1)
    attempt(tally, "prepare", workload.prepare, lambda _: [])
    tracer = Tracer()
    untraced_s, overheads = [], []
    for i in range(count):
        # each traced turn is repeated untraced right after it, so that
        # drifts in machine speed cancel out of the paired difference
        tracer.install()
        try:
            traced = turn(workload, tally, i)
        finally:
            tracer.uninstall()
        untraced = turn(workload, tally, i)
        if traced is not None and untraced is not None:
            untraced_s.append(untraced)
            overheads.append(traced - untraced)
    verify(workload, tally)
    with open(os.path.join(workdir, "trace.json"), "w", encoding="utf-8") as fh:
        json.dump(tracer.span_table(), fh, indent=1)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = _median(overheads)
    metrics["trace.overhead_frac"] = _median(overheads) / _median(untraced_s)
    info = [f"traced turns {count}, overheads "
            f"{[round(t, 4) for t in overheads]}",
            f"span table: {os.path.relpath(workdir, ROOT)}/trace.json"]
    return tally, metrics, info


def _declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {e["name"]: e for e in json.load(fh)[kind]}


def _openblas_threads() -> dict:
    """Threads each loaded OpenBLAS reports, keyed by library file name."""
    import ctypes
    import glob
    import numpy
    import scipy
    found = {}
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(pkg.__file__), os.pardir,
                              pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[os.path.basename(path)] = fn()
                    break
    return found


def metadata() -> dict:
    import platform
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {"blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _openblas_threads(),
            "blas_env": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "src_py_lines": src_lines}


def run_one(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    from workloads import WORKLOADS
    cls = WORKLOADS[name]
    if trace:
        tally, metrics, info = run_traced(cls, seed, smoke)
    else:
        tally, metrics, info = run_untraced(cls, seed, seconds, smoke)
    units = {metric: e["unit"] for kind in ("end_to_end", "per_layer")
             for metric, e in _declared(kind).items()}
    print(f"# workload {name} seed {seed} trace {int(trace)}"
          + (" (smoke)" if smoke else ""))
    print("# meta " + json.dumps(metadata(), sort_keys=True))
    for line in info:
        print("# " + line)
    print(f"# failed_frac {tally.failed}/{tally.attempted}")
    for problem in tally.problems:
        print("# FAILED " + problem)
    for metric, value in metrics.items():
        print(f"{metric} {value!r} {units[metric]}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {m: {"value": v, "unit": units[m]}
                        for m, v in metrics.items()}}


def smoke() -> int:
    """Every workload, tiny, traced and untraced; every metric reported."""
    from workloads import WORKLOADS
    bad = []
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        want = set(_declared(kind))
        for name in WORKLOADS:
            result = run_one(name, seed=0, seconds=SMOKE_SECONDS, trace=trace,
                             smoke=True)
            print(json.dumps(result))
            got = set(result["metrics"])
            if got != want or not result["correct"]:
                bad.append(f"{name} trace={int(trace)}: correct="
                           f"{result['correct']}, missing {sorted(want - got)}"
                           f", extra {sorted(got - want)}")
    for line in bad:
        print("SMOKE FAILED " + line, file=sys.stderr)
    print("smoke: " + ("FAILED" if bad else "ok"))
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload, checking names")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gpqed", "__init__.py")):
        print(f"error: no gpqed package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.smoke:
        return smoke()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
