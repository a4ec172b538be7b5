"""Per-layer tracing of gpqed from outside the package.

The tracer replaces public functions at the name their callers look up
(for example ``gpqed.gp.jittered_cholesky``, which ``gp.fit`` calls, rather
than ``gpqed.kernels.jittered_cholesky``) with wrappers that record a span
per call. Spans are aggregated as they close: per span name the call count,
total time and self time (total minus the time covered by child spans), and
per (parent, child) edge the call count and total time. Keeping aggregates
instead of individual spans bounds memory on runs with ~10^6 spans.
"""

from __future__ import annotations

import os
import time

import numpy as np

from gpqed import cli, geo, gp, hyperopt, inference, kernels, sim
from gpqed.errors import NumericalError

# (owner, attribute, span name); owners are modules or classes whose
# attribute the calling code looks up at call time
SPANS = (
    (kernels.GramStructure, "gram", "kernels.gram"),
    (kernels, "gram", "kernels.gram"),
    (gp, "jittered_cholesky", "kernels.cholesky"),
    (gp, "fit", "gp.fit"),
    (gp, "log_marginal_likelihood", "gp.log_marginal_likelihood"),
    (gp, "predict", "gp.predict"),
    (hyperopt, "optimize", "hyperopt.optimize"),
    (inference, "compare", "inference.compare"),
    (inference, "fit_continuous", "inference.fit_m0"),
    (inference, "fit_discontinuous", "inference.fit_m1"),
    (inference, "effect_size", "inference.effect_size"),
    (inference, "bma_effect_samples", "inference.bma_effect_samples"),
    (geo, "classify", "geo.classify"),
    (geo.BoundaryLabel, "labels", "geo.labels"),
    (geo, "effect_profile", "geo.effect_profile"),
    (sim, "generate", "sim.generate"),
    (sim, "run_cell", "sim.run_cell"),
    (cli, "analyze", "cli.analyze"),
    (cli, "load_csv", "cli.load_csv"),
    (cli, "write_json_atomic", "cli.write"),
    (cli, "write_csv_atomic", "cli.write"),
)


def _num_points(X) -> int:
    a = np.asarray(X)
    return int(a.shape[0]) if a.ndim >= 1 else 1


class Tracer:
    """Install with ``install()``; always pair with ``uninstall()``."""

    def __init__(self):
        self.stats: dict[str, list] = {}    # name -> [calls, total_s, self_s]
        self.edges: dict[tuple, list] = {}  # (parent, child) -> [calls, total_s]
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []        # open spans: [name, child_s]
        self._saved: list[tuple] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _close(self, name: str, frame: list, elapsed: float) -> None:
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += elapsed - frame[1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += elapsed
        edge = self.edges.setdefault((parent[0] if parent else None, name),
                                     [0, 0.0])
        edge[0] += 1
        edge[1] += elapsed

    def wrap(self, name: str, fn):
        """fn wrapped so that each call records one span called `name`."""
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                self._stack.pop()
                self._close(name, frame, elapsed)
        return traced

    def _wrap_special(self, name: str, fn):
        """Adds the counts a span alone cannot give for some layers."""
        span = self.wrap(name, fn)
        if name == "kernels.cholesky":
            def cholesky(K):
                L, jitter = span(K)
                if jitter > 0:
                    self.count("kernels.cholesky.jittered")
                return L, jitter
            return cholesky
        if name == "hyperopt.optimize":
            def optimize(objective, *args, **kwargs):
                traced_objective = self.wrap("hyperopt.objective", objective)

                def counted(hv):
                    try:
                        return traced_objective(hv)
                    except NumericalError:
                        self.count("hyperopt.objective.failed")
                        raise
                return span(counted, *args, **kwargs)
            return optimize
        if name == "gp.predict":
            def predict(gpfit, Xs):
                self.count("gp.predict.points", _num_points(Xs))
                return span(gpfit, Xs)
            return predict
        if name == "geo.labels":
            def labels(label, X):
                self.count("geo.labels.points", _num_points(X))
                return span(label, X)
            return labels
        if name == "cli.write":
            def write(path, *args, **kwargs):
                out = span(path, *args, **kwargs)
                self.count("cli.write.bytes", os.path.getsize(path))
                return out
            return write
        return span

    def install(self) -> None:
        for owner, attr, name in SPANS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap_special(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def span_table(self) -> dict:
        """Aggregated spans: per name, and per (parent, child) edge."""
        return {
            "spans": {name: {"calls": c, "total_s": t, "self_s": s}
                      for name, (c, t, s) in sorted(self.stats.items())},
            "edges": [{"parent": p, "child": ch, "calls": c, "total_s": t}
                      for (p, ch), (c, t) in sorted(
                          self.edges.items(), key=lambda e: (str(e[0][0]), e[0][1]))],
            "counts": dict(sorted(self.counts.items())),
        }

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json, except trace.*."""
        def calls(name):
            return self.stats.get(name, (0, 0.0, 0.0))[0]

        def total(name):
            return self.stats.get(name, (0, 0.0, 0.0))[1]

        def self_time(name):
            return self.stats.get(name, (0, 0.0, 0.0))[2]

        def ratio(a, b):
            return a / b if b else 0.0

        evals = calls("hyperopt.objective")
        return {
            "hyperopt.objective.evals": evals,
            "hyperopt.objective.evals_per_optimize":
                ratio(evals, calls("hyperopt.optimize")),
            "hyperopt.objective.failed_frac":
                ratio(self.counts.get("hyperopt.objective.failed", 0), evals),
            "hyperopt.optimize.calls": calls("hyperopt.optimize"),
            "hyperopt.optimize.s": total("hyperopt.optimize"),
            "hyperopt.optimize.self_s": self_time("hyperopt.optimize"),
            "gp.fit.calls": calls("gp.fit"),
            "gp.fit.self_s": self_time("gp.fit"),
            "kernels.cholesky.calls": calls("kernels.cholesky"),
            "kernels.cholesky.s": total("kernels.cholesky"),
            "kernels.cholesky.jitter_frac":
                ratio(self.counts.get("kernels.cholesky.jittered", 0),
                      calls("kernels.cholesky")),
            "kernels.gram.calls": calls("kernels.gram"),
            "kernels.gram.s": total("kernels.gram"),
            "inference.fit_m0.s": total("inference.fit_m0"),
            "inference.fit_m1.s": total("inference.fit_m1"),
            "inference.compare.s": total("inference.compare"),
            "geo.labels.points": self.counts.get("geo.labels.points", 0),
            "geo.labels.s": total("geo.labels"),
            "geo.effect_profile.s": total("geo.effect_profile"),
            "gp.predict.calls": calls("gp.predict"),
            "gp.predict.points": self.counts.get("gp.predict.points", 0),
            "gp.predict.s": total("gp.predict"),
            "cli.load_csv.s": total("cli.load_csv"),
            "cli.write.s": total("cli.write"),
            "cli.write.bytes": self.counts.get("cli.write.bytes", 0),
            "sim.generate.s": total("sim.generate"),
        }
