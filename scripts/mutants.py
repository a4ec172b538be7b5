"""Run hand-written mutants of ``src/gpqed`` against the tier-1 tests.

    python scripts/mutants.py                 # every mutant, one at a time
    python scripts/mutants.py --only bma-var-no-mean-square --only ...

A mutant is one text replacement in one file: ``(name, file, old, new)``,
where ``old`` occurs exactly once in the file. For each mutant the script
copies the checkout into a fresh temporary directory, leaving out ``.git``
and every ``__pycache__`` (a copied ``__pycache__`` holds code compiled
under the original path, which one warning test compares), applies the
replacement and runs tier-1 there with ``-x``, leaving out
``tests/test_mutants.py`` (which checks this list against the tree). A mutant
is killed when the run fails, or takes longer than ``TIMEOUT`` seconds, and
survives when it passes.

A mutant listed in ``EQUIVALENT`` changes no behaviour, for the reason given
with it; it is not run. A mutant in ``SURVIVING`` is a known gap, and its
reason says what would close it.

Standard output gets one line per mutant (name, killed / survived, seconds,
and the first failing test of a killed one) and then the counts. The exit
status is 1 when a mutant outside ``SURVIVING`` survives or a mutant no
longer applies, 0 otherwise. A full run takes about 20 minutes on a 2-core
machine; it is not part of tier-1.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# tests/test_mutants.py checks that each mutant's text is in the tree, so it
# fails on every mutated copy; it tests the list, not the program
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
# tier-1 takes about a minute; a mutant that makes a search loop runs long
TIMEOUT = 900

_I, _H, _G = ("src/gpqed/inference.py", "src/gpqed/hyperopt.py",
              "src/gpqed/gp.py")

# (name, file, old text, new text)
MUTANTS = [
    # inference: totals, samples, evidences, effects
    ("weights-m1-from-le0", _I,
     "w1 = np.exp(le1 - logsumexp(le1))",
     "w1 = np.exp(le0 - logsumexp(le0))"),
    ("bma-var-no-mean-square", _I,
     '"bma_var": total_p1 * m1_second - bma_mean ** 2,',
     '"bma_var": total_p1 * m1_second,'),
    ("samples-weights-m0", _I,
     "zip(result.kernel_weights_m1, result.kernel_results)",
     "zip(result.kernel_weights_m0, result.kernel_results)"),
    ("effect-bma-var-no-mean-square", _I,
     "return second_moment - self.bma_mean ** 2",
     "return second_moment"),
    ("bic-full-penalty", _I,
     "self.log_ml - 0.5 * self.k * np.log(self.n)",
     "self.log_ml - self.k * np.log(self.n)"),
    ("p1-sign", _I,
     "p1 = float(expit(log_bf10))",
     "p1 = float(expit(-log_bf10))"),
    ("effect-variances-subtract", _I,
     "return mi - mc, vi + vc",
     "return mi - mc, vi - vc"),
    # also moves sim.generate's jump, whose side Threshold.labels gives
    ("threshold-strict", _I,
     "(kernels._atleast_2d(X)[:, 0] >= self.value)",
     "(kernels._atleast_2d(X)[:, 0] > self.value)"),
    ("parts-own-means", _I,
     "gp.fit(part, k, noise, mean_constant=c, structure=s)",
     "gp.fit(part, k, noise, mean_constant=None, structure=s)"),
    ("one-part-log-det", _I,
     "sum(f.log_det for f in fitted)",
     "fitted[0].log_det"),
    ("jitter-not-scaled", _I,
     "jitter=f.jitter * u",
     "jitter=f.jitter"),
    # hyperopt: prior, profiled scale, starts, optimizer
    ("profiled-scale-no-prior", _H,
     "bc = GAMMA_RATE * float(unit @ powers)",
     "bc = 0.0"),
    ("prior-no-log-jacobian", _H,
     "+ a * float(np.log(theta).sum())",
     "+ (a - 1.0) * float(np.log(theta).sum())"),
    ("rejoin-unconverged-incumbent", _H,
     "best_run < run and converged[best_run]",
     "best_run < run"),
    ("linear-takes-restarts", _H,
     "later = cfg.restarts - 1 if kernel.stationary else 0",
     "later = cfg.restarts - 1"),
    ("noise-start-cap", _H,
     "min(max(noise / var_y, 1e-3), 0.9)",
     "min(max(noise / var_y, 1e-3), 0.5)"),
    ("wide-restarts", _H,
     "rng.normal(0.0, 0.5, size=(later, init.size))",
     "rng.normal(0.0, 5.0, size=(later, init.size))"),
    # gp: log-ML, gradient, prediction
    ("half-log-det", _G,
     "log_det = 2.0 * float(np.log(L.diagonal()).sum())",
     "log_det = float(np.log(L.diagonal()).sum())"),
    ("log-ml-no-log-scale", _G,
     "n * (np.log(scale) + LOG_2PI)",
     "n * LOG_2PI"),
    ("noise-trace-zero", _G,
     "float(alpha @ alpha), float(U.trace())",
     "float(alpha @ alpha), 0.0"),
    ("predict-no-mean-constant", _G,
     "mean = gpfit.mean_constant + Ks.T @ gpfit.alpha",
     "mean = Ks.T @ gpfit.alpha"),
    ("predict-no-clamp", _G,
     "return mean, np.maximum(var, 0.0)",
     "return mean, var"),
    # kernels, geo, sim
    ("matern32-constant", "src/gpqed/kernels.py",
     "SQRT3 = np.sqrt(3.0)",
     "SQRT3 = np.sqrt(2.0)"),
    ("on-path-is-control", "src/gpqed/geo.py",
     "np.where((cross > 0) & ~on_path, 0, 1)",
     "np.where(cross > 0, 0, 1)"),
    # cli: report and curves
    ("report-weights-m1-from-m0", "src/gpqed/cli.py",
     '"kernel_weights_m1": result.kernel_weights_m1,',
     '"kernel_weights_m1": result.kernel_weights_m0,'),
    ("curves-sd-is-variance", "src/gpqed/cli.py",
     "np.sqrt(var).tolist()",
     "var.tolist()"),
    ("curves-sides-swapped", "src/gpqed/cli.py",
     "np.where(side == 0, c, i)",
     "np.where(side == 1, c, i)"),
    # errors: the integer and finite-number rules
    ("int-takes-bool", "src/gpqed/errors.py",
     "isinstance(value, bool) or not isinstance(value, numbers.Integral)",
     "not isinstance(value, numbers.Integral)"),
    ("number-takes-bool", "src/gpqed/errors.py",
     "isinstance(value, bool) or not isinstance(value, numbers.Real)",
     "not isinstance(value, numbers.Real)"),
    ("number-no-float-bound", "src/gpqed/errors.py",
     "abs(value) <= sys.float_info.max",
     "True"),
    ("number-float-takes-inf", "src/gpqed/errors.py",
     "type(value) is float and math.isfinite(value)",
     "type(value) is float"),
    # the one owner of each input rule
    ("convert-drops-value-error", "src/gpqed/cli.py",
     "except (TypeError, ValueError, OSError) as exc:",
     "except (TypeError, OSError) as exc:"),
    ("exits-input-error-unnamed", "src/gpqed/cli.py",
     '((ConfigError, InputError), "configuration error", 2)',
     '(ConfigError, "configuration error", 2)'),
    ("effect-point-not-finite", _I,
     "if not np.isfinite(point).all():",
     "if False:"),
    ("kernel-variance-not-finite", "src/gpqed/kernels.py",
     'check_number("variance", self.variance) > 0',
     "self.variance > 0"),
    ("data-scales-one-row", _H,
     "if data.n < 2:",
     "if data.n < 1:"),
    ("latent-dict-membership", "src/gpqed/sim.py",
     "if name not in list(LATENT_FUNCTIONS):",
     "if name not in LATENT_FUNCTIONS:"),
    ("fit-trusts-structure", _G,
     "elif structure.X is not data.X and not np.array_equal(structure.X, "
     "data.X):",
     "elif False:"),
    # input checks that one test each reaches
    ("kernel-unknown-family", "src/gpqed/kernels.py",
     "if self.family not in FAMILIES:",
     "if False:"),
    ("from-name-non-string", "src/gpqed/kernels.py",
     "name.strip().lower() if isinstance(name, str) else None",
     "name.strip().lower()"),
    ("boundary-vertex-not-finite", "src/gpqed/geo.py",
     "if not np.all(np.isfinite(v)):",
     "if False:"),
]

EQUIVALENT = {}

SURVIVING = {}


def apply(root: str, path: str, old: str, new: str) -> None:
    """Replace the one occurrence of old in root/path by new; ValueError
    when old occurs there other than once."""
    full = os.path.join(root, path)
    with open(full, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(old) != 1:
        raise ValueError(f"{path}: {old!r} occurs {text.count(old)} times")
    with open(full, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new))


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return output.strip().splitlines()[-1] if output.strip() else ""


def run(mutant: tuple) -> tuple[str, float, str]:
    """(outcome, seconds, first failing test) of tier-1 on a mutated copy;
    outcome is "killed", "survived" or "timeout" (counted as killed)."""
    name, path, old, new = mutant
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as work:
        copy = os.path.join(work, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis",
            ".bench_work"))
        apply(copy, path, old, new)
        env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        started = time.perf_counter()
        try:
            proc = subprocess.run(TIER1, cwd=copy, env=env, timeout=TIMEOUT,
                                  capture_output=True, text=True)
        except subprocess.TimeoutExpired:
            return "timeout", time.perf_counter() - started, ""
    seconds = time.perf_counter() - started
    if proc.returncode == 0:
        return "survived", seconds, ""
    return "killed", seconds, _first_failure(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", action="append", metavar="NAME",
                    help="run this mutant (repeatable); default all")
    args = ap.parse_args(argv)
    names = [m[0] for m in MUTANTS]
    unknown = sorted(set(args.only or ()) - set(names))
    if unknown:
        ap.error(f"unknown mutants: {unknown}")
    counts = dict.fromkeys(("killed", "survived", "equivalent"), 0)
    bad = 0
    for mutant in MUTANTS:
        name = mutant[0]
        if args.only and name not in args.only:
            continue
        if name in EQUIVALENT:
            counts["equivalent"] += 1
            print(f"{name}: equivalent, not run ({EQUIVALENT[name]})",
                  flush=True)
            continue
        try:
            outcome, seconds, first = run(mutant)
        except ValueError as exc:
            print(f"{name}: does not apply: {exc}", flush=True)
            bad += 1
            continue
        counts["survived" if outcome == "survived" else "killed"] += 1
        if outcome == "survived" and name not in SURVIVING:
            bad += 1
        print(f"{name}: {outcome} in {seconds:.0f} s"
              + (f" by {first}" if first else ""), flush=True)
    print(", ".join(f"{v} {k}" for k, v in counts.items()))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
