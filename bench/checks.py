"""Output checks. Each returns a list of problems; an empty list passes.

The oracles here are written independently of the code they check: dense
multivariate-normal densities instead of the Cholesky path, and an
above/below-the-graph side test instead of the nearest-segment rule.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
from scipy.stats import multivariate_normal

from gpqed import kernels

LOG_ML_RTOL = 1e-8
# the MAP log-ML may exceed the recorded value, but may fall below it only
# by this much (nats); a larger drop means the optimizer stopped early or
# settled in a worse optimum
MAP_LOG_ML_TOL = 1e-4


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _dense_log_ml(fit) -> float:
    K = kernels.gram(fit.kernel, fit.data.X) + fit.noise_variance * np.eye(fit.n)
    return float(multivariate_normal.logpdf(
        fit.data.y - fit.mean_constant, mean=np.zeros(fit.n), cov=K))


def log_ml_matches_oracle(result) -> list[str]:
    """Evidence log-MLs equal the dense density at the fitted hypers."""
    problems = []
    for kr in result.kernel_results:
        pairs = (("M0", kr.evidence_m0.log_ml, _dense_log_ml(kr.fit_m0)),
                 ("M1", kr.evidence_m1.log_ml,
                  _dense_log_ml(kr.fit_c) + _dense_log_ml(kr.fit_i)))
        for model, got, want in pairs:
            if not abs(got - want) <= LOG_ML_RTOL * abs(want):
                problems.append(f"{kr.kernel.label} {model} log-ML {got!r} "
                                f"!= dense oracle {want!r}")
    return problems


def map_log_ml(result) -> dict[str, list[float]]:
    """{kernel label: [M0 log-ML, M1 log-ML]} at the MAP hypers."""
    return {kr.kernel.label: [kr.evidence_m0.log_ml, kr.evidence_m1.log_ml]
            for kr in result.kernel_results}


def map_not_below(result, recorded: dict[str, list[float]]) -> list[str]:
    problems = []
    got = map_log_ml(result)
    for label, want in recorded.items():
        for model, g, w in zip(("M0", "M1"), got.get(label, []), want):
            if not g >= w - MAP_LOG_ML_TOL:
                problems.append(f"{label} {model} MAP log-ML {g!r} below "
                                f"recorded {w!r}")
    if set(got) != set(recorded):
        problems.append(f"kernels {sorted(got)} != recorded {sorted(recorded)}")
    return problems


def totals_valid(result) -> list[str]:
    problems = []
    if not _finite(result.total_log_bf, result.bma_mean, result.bma_var,
                   result.bma_m1_mean, result.bma_m1_var):
        problems.append("non-finite totals")
    ps = [result.total_p_m1] + [kr.p_m1 for kr in result.kernel_results]
    if not all(0.0 <= p <= 1.0 for p in ps):
        problems.append(f"p_m1 outside [0, 1]: {ps}")
    return problems


def cell_valid(cell) -> list[str]:
    """A one-repetition simulation cell: no failure, every summary finite."""
    problems = []
    if cell.failures:
        problems.append(f"{cell.failures} failed repetitions")
    values = [cell.mean_total_log_bf]
    for key in ("mean_log_bf", "mean_effect_m1", "mean_effect_bma",
                "mean_rmse_m1", "mean_rmse_bma"):
        values.extend(getattr(cell, key).values())
    if not _finite(*values):
        problems.append("non-finite cell summary")
    return problems


def above_graph_labels(vertices: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Side oracle for a polyline whose x coordinates increase.

    Points above the graph are left of the left-to-right path (control, 0);
    points below are right of it (intervention, 1).
    """
    x = np.clip(X[:, 0], vertices[0, 0], vertices[-1, 0])
    path_y = np.interp(x, vertices[:, 0], vertices[:, 1])
    return np.where(X[:, 1] > path_y, 0, 1)


def labels_match_oracle(vertices, X, labels) -> list[str]:
    want = above_graph_labels(vertices, X)
    bad = int(np.sum(np.asarray(labels) != want))
    return [f"{bad}/{len(want)} labels differ from the side oracle"] if bad else []


def predictions_valid(means, variances) -> list[str]:
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(variances))):
        return ["non-finite predictions"]
    if np.any(np.asarray(variances) < 0):
        return ["negative predictive variance"]
    return []


def report_valid(report_path: str, samples_path: str,
                 kernel_labels: list[str], sample_count: int) -> list[str]:
    """The analyze report parses and holds valid totals; samples parse."""
    try:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        totals = report["totals"]
        per_kernel = report["kernels"]
        problems = []
        if sorted(per_kernel) != sorted(kernel_labels):
            problems.append(f"report kernels {sorted(per_kernel)}")
        if not _finite(totals["total_log_bf"], totals["effect_bma_mean"]):
            problems.append("non-finite report totals")
        if not 0.0 <= totals["p_m1"] <= 1.0:
            problems.append(f"report p_m1 {totals['p_m1']}")
        with open(samples_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["sample"] or len(rows) != sample_count + 1:
            problems.append("density samples have the wrong shape")
        elif not _finite(*(r[0] for r in rows[1:])):
            problems.append("non-finite density samples")
        return problems
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"report does not parse: {exc!r}"]
