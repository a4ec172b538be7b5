"""Command-line front end: CSV ingestion, analysis orchestration, and
machine-readable reports.

Subcommands: `analyze` (threshold or boundary discontinuity analysis of a CSV
file), `simulate` (synthetic recovery grids), `version`. Configuration lives
in a JSON file; the most common keys can be overridden by flags of the same
name. Exit codes: 0 ok, 2 configuration error, 3 data error, 4 numerical
error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
import time
from importlib.metadata import PackageNotFoundError, version as pkg_version

import numpy as np

from . import geo, gp, inference, kernels, sim
from .errors import ConfigError, DataError, GpqedError, NumericalError
from .gp import Dataset
from .hyperopt import OptConfig


def get_version() -> str:
    try:
        return pkg_version("gpqed")
    except PackageNotFoundError:
        return "0.0.0+unknown"


# ---------------------------------------------------------------------------
# data loading

def load_csv(path: str, predictors: list[str], response: str) -> Dataset:
    """Strictly parse the named columns as decimal numbers, order preserved."""
    if not os.path.exists(path):
        raise DataError(f"data file not found: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file (no header row)")
        for col in [*predictors, response]:
            if col not in reader.fieldnames:
                raise DataError(f"{path}: missing column {col!r}")
        X_rows, y_rows = [], []
        for rownum, row in enumerate(reader, start=2):
            def cell(col):
                raw = row.get(col)
                if raw is None:
                    raise DataError(f"{path}: row {rownum}: missing value "
                                    f"in column {col!r}")
                try:
                    return float(raw)
                except ValueError:
                    raise DataError(
                        f"{path}: row {rownum}, column {col!r}: "
                        f"non-numeric value {raw!r}") from None
            X_rows.append([cell(c) for c in predictors])
            y_rows.append(cell(response))
    if not y_rows:
        raise DataError(f"{path}: no data rows")
    return Dataset(np.array(X_rows), np.array(y_rows))


# ---------------------------------------------------------------------------
# serialization helpers

def _plain(obj):
    """Recursively convert numpy values for strict JSON; NaN and ±inf become None."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj) if np.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _json_dump(obj, fh) -> None:
    json.dump(_plain(obj), fh, indent=2, allow_nan=False)
    fh.write("\n")


def _write_atomic(path: str, write, newline=None) -> None:
    """Call write(fh) on a temporary file next to path, then move it there."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline=newline) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, obj) -> None:
    _write_atomic(path, lambda fh: _json_dump(obj, fh))


def write_csv_atomic(path: str, header: list[str], rows) -> None:
    _write_atomic(path, lambda fh: csv.writer(fh).writerows([header, *rows]),
                  newline="")


# ---------------------------------------------------------------------------
# analyze

def _opt_config(cfg: dict, seed_default: int = 0) -> OptConfig:
    opt = cfg.get("optimizer", {})
    return OptConfig(restarts=int(opt.get("restarts", 5)),
                     seed=int(opt.get("seed", seed_default)),
                     max_iterations=int(opt.get("max_iterations", 500)),
                     tolerance=float(opt.get("tolerance", 1e-5)))


def _kernel_list(cfg: dict) -> list[kernels.KernelSpec]:
    names = cfg.get("kernels")
    if not names:
        raise ConfigError("config must list at least one kernel")
    return [kernels.from_name(n) for n in names]


def _analysis_report(result: inference.ComparisonResult) -> dict:
    per_kernel = {}
    for kr in result.kernel_results:
        per_kernel[kr.kernel.label] = {
            "log_ml_m0": kr.evidence_m0.log_ml,
            "log_ml_m1": kr.evidence_m1.log_ml,
            "log_evidence_m0": kr.evidence_m0.log_evidence,
            "log_evidence_m1": kr.evidence_m1.log_evidence,
            "num_hyperparameters": kr.evidence_m0.k,
            "log_bf10": kr.log_bf10,
            "p_m1": kr.p_m1,
            "effect_m1_mean": kr.effect.m1_mean,
            "effect_m1_var": kr.effect.m1_var,
            "effect_bma_mean": kr.effect.bma_mean,
            "effect_bma_var": kr.effect.bma_var,
        }
    totals = {
        "total_log_bf": result.total_log_bf,
        "p_m1": result.total_p_m1,
        "kernel_weights_m0": result.kernel_weights_m0,
        "kernel_weights_m1": result.kernel_weights_m1,
        "effect_m1_mean": result.bma_m1_mean,
        "effect_m1_var": result.bma_m1_var,
        "effect_bma_mean": result.bma_mean,
        "effect_bma_var": result.bma_var,
    }
    return {"kernels": per_kernel, "totals": totals,
            "effect_point": result.effect_point.reshape(-1)}


def _export_curves(path: str, result: inference.ComparisonResult,
                   data: Dataset, label: inference.LabelFunction,
                   grid_size: int = 200) -> None:
    if data.p != 1:
        raise ConfigError("curve export is only available for 1-D predictors")
    lo, hi = float(data.X.min()), float(data.X.max())
    grid = np.linspace(lo, hi, grid_size).reshape(-1, 1)
    side = label.labels(grid)
    rows = []
    for kr in result.kernel_results:
        m0_mean, m0_var = gp.predict(kr.fit_m0, grid)
        for x, m, v in zip(grid[:, 0], m0_mean, m0_var):
            rows.append([kr.kernel.label, "continuous", x, m, np.sqrt(v)])
        mc, vc = gp.predict(kr.fit_c, grid)
        mi, vi = gp.predict(kr.fit_i, grid)
        m1_mean = np.where(side == 0, mc, mi)
        m1_sd = np.sqrt(np.where(side == 0, vc, vi))
        for x, m, s in zip(grid[:, 0], m1_mean, m1_sd):
            rows.append([kr.kernel.label, "discontinuous", x, m, s])
    write_csv_atomic(path, ["kernel", "model", "x", "mean", "sd"], rows)


def analyze(cfg: dict) -> dict:
    """Run one full analysis from a config dict; returns the report dict."""
    for key in ("data", "response", "predictors"):
        if key not in cfg:
            raise ConfigError(f"config key {key!r} is required")
    predictors = cfg["predictors"]
    if isinstance(predictors, str):
        predictors = [predictors]
    if len(predictors) not in (1, 2):
        raise ConfigError("1 or 2 predictor columns are supported")
    has_threshold = "threshold" in cfg
    has_boundary = "boundary" in cfg
    if has_threshold == has_boundary:
        raise ConfigError(
            "config must specify exactly one of 'threshold' or 'boundary'")

    data = load_csv(cfg["data"], predictors, cfg["response"])
    kernel_list = _kernel_list(cfg)
    seed = int(cfg.get("seed", 0))
    opt = _opt_config(cfg, seed_default=seed)

    if has_threshold:
        thr = cfg["threshold"]
        if isinstance(thr, dict):
            label = inference.Threshold(value=float(thr["value"]),
                                        dimension=int(thr.get("dimension", 0)))
        else:
            label = inference.Threshold(value=float(thr))
        effect_point = None
        if data.p > 1:
            effect_point = cfg.get("effect_point")
            if effect_point is None:
                raise ConfigError(
                    "'effect_point' is required for multivariate thresholds")
    else:
        boundary = geo.load_boundary(cfg["boundary"])
        label = geo.BoundaryLabel(boundary)
        # default effect point: the arc-length midpoint of the boundary
        effect_point = cfg.get("effect_point")
        if effect_point is None:
            effect_point = geo.boundary_points(boundary, 3)[1]

    started = time.perf_counter()
    result = inference.compare(data, label, kernel_list, opt,
                               effect_point=effect_point)
    report = {
        "version": get_version(),
        "seed": seed,
        "config": cfg,
        **_analysis_report(result),
    }
    if has_boundary:
        profiles = {}
        for kr in result.kernel_results:
            p = geo.effect_profile(kr.fit_c, kr.fit_i, boundary,
                                   count=int(cfg.get("profile_points", 50)))
            profiles[kr.kernel.label] = {
                "arc_lengths": p.arc_lengths, "points": p.points,
                "means": p.means, "variances": p.variances}
        report["effect_profiles"] = profiles
    report["wall_time_seconds"] = time.perf_counter() - started

    outputs = cfg.get("output", {})
    written = []
    try:
        report_path = outputs.get("report")
        if report_path:
            write_json_atomic(report_path, report)
            written.append(report_path)
        curves_path = outputs.get("curves")
        if curves_path:
            _export_curves(curves_path, result, data, label,
                           grid_size=int(cfg.get("curve_grid", 200)))
            written.append(curves_path)
        density_path = outputs.get("density_samples")
        if density_path:
            samples = inference.bma_effect_samples(
                result, count=int(cfg.get("mc_samples", 10000)), seed=seed)
            write_csv_atomic(density_path, ["sample"],
                             [[s] for s in samples])
            written.append(density_path)
    except BaseException:
        for p in written:
            if os.path.exists(p):
                os.unlink(p)
        raise
    return report


# ---------------------------------------------------------------------------
# simulate

def simulate(cfg: dict) -> dict:
    """Run a simulation grid from a config dict; returns the summary dict."""
    latents = cfg.get("latents", ["Linear"])
    effects = [float(d) for d in cfg.get("effects", sim.DEFAULT_EFFECT_GRID)]
    kernel_list = _kernel_list(cfg)
    template = sim.SimConfig(
        latent=latents[0], n=int(cfg.get("n", 100)),
        noise_sd=float(cfg.get("noise_sd", 1.0)),
        threshold=float(cfg.get("threshold", 0.0)),
        seed=int(cfg.get("seed", 0)),
        repetitions=int(cfg.get("repetitions", 100)))
    opt = _opt_config(cfg, seed_default=template.seed)
    summary = sim.run_grid(latents, effects, template, kernel_list, opt=opt)

    cells = []
    rows = []
    metrics = [("log_bf", "mean_log_bf", "se_log_bf"),
               ("effect_m1", "mean_effect_m1", "se_effect_m1"),
               ("effect_bma", "mean_effect_bma", "se_effect_bma"),
               ("rmse_m1", "mean_rmse_m1", "se_rmse_m1"),
               ("rmse_bma", "mean_rmse_bma", "se_rmse_bma")]
    for cell in summary.cells:
        rec = {"latent": cell.latent, "effect": cell.effect,
               "repetitions": cell.repetitions, "failures": cell.failures,
               "mean_total_log_bf": cell.mean_total_log_bf,
               "se_total_log_bf": cell.se_total_log_bf}
        for metric, mkey, skey in metrics:
            rec[mkey] = getattr(cell, mkey)
            rec[skey] = getattr(cell, skey)
            for lab in summary.kernel_labels:
                rows.append([cell.latent, cell.effect, lab, metric,
                             getattr(cell, mkey)[lab], getattr(cell, skey)[lab]])
        rows.append([cell.latent, cell.effect, "all", "total_log_bf",
                     cell.mean_total_log_bf, cell.se_total_log_bf])
        cells.append(rec)
    out = {"version": get_version(), "config": cfg, "cells": cells,
           "kernel_labels": list(summary.kernel_labels)}

    outputs = cfg.get("output", {})
    if outputs.get("summary_json"):
        write_json_atomic(outputs["summary_json"], out)
    if outputs.get("summary_csv"):
        write_csv_atomic(outputs["summary_csv"],
                         ["latent", "effect", "kernel", "metric", "mean", "se"],
                         rows)
    return out


# ---------------------------------------------------------------------------
# argument parsing

def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return cfg


def _apply_overrides(cfg: dict, args: argparse.Namespace, keys: list[str]) -> dict:
    cfg = dict(cfg)
    for key in keys:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            cfg[key] = value
    if getattr(args, "kernels", None) is not None:
        cfg["kernels"] = [k.strip() for k in args.kernels.split(",")]
    if getattr(args, "predictors", None) is not None:
        cfg["predictors"] = [c.strip() for c in args.predictors.split(",")]
    if getattr(args, "latents", None) is not None:
        cfg["latents"] = [c.strip() for c in args.latents.split(",")]
    if getattr(args, "effects", None) is not None:
        cfg["effects"] = [float(v) for v in args.effects.split(",")]
    if getattr(args, "restarts", None) is not None:
        cfg.setdefault("optimizer", {})
        cfg["optimizer"] = {**cfg["optimizer"], "restarts": args.restarts}
    if getattr(args, "report", None) is not None:
        cfg.setdefault("output", {})
        cfg["output"] = {**cfg["output"], "report": args.report}
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpqed",
        description="GP model comparison for discontinuity designs")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a CSV dataset")
    pa.add_argument("--config", help="JSON config file")
    pa.add_argument("--data", help="CSV data path")
    pa.add_argument("--response", help="response column name")
    pa.add_argument("--predictors", help="comma-separated predictor columns")
    pa.add_argument("--kernels", help="comma-separated kernel names")
    pa.add_argument("--threshold", type=float, help="threshold value")
    pa.add_argument("--boundary", help="boundary polyline file")
    pa.add_argument("--seed", type=int, help="master seed")
    pa.add_argument("--restarts", type=int, help="optimizer restarts")
    pa.add_argument("--report", help="report JSON output path")

    ps = sub.add_parser("simulate", help="run a simulation grid")
    ps.add_argument("--config", help="JSON config file")
    ps.add_argument("--latents", help="comma-separated latent function names")
    ps.add_argument("--effects", help="comma-separated effect sizes")
    ps.add_argument("--kernels", help="comma-separated kernel names")
    ps.add_argument("--n", type=int, help="observations per dataset")
    ps.add_argument("--noise-sd", type=float, dest="noise_sd")
    ps.add_argument("--repetitions", type=int)
    ps.add_argument("--seed", type=int)
    ps.add_argument("--restarts", type=int)

    sub.add_parser("version", help="print the package version")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "version":
            print(get_version())
            return 0
        cfg = _load_config(args.config)
        if args.command == "analyze":
            cfg = _apply_overrides(cfg, args, ["data", "response", "threshold",
                                               "boundary", "seed"])
            report = analyze(cfg)
            if not cfg.get("output", {}).get("report"):
                _json_dump(report, sys.stdout)
            return 0
        if args.command == "simulate":
            cfg = _apply_overrides(cfg, args, ["n", "noise_sd", "repetitions",
                                               "seed"])
            out = simulate(cfg)
            if not cfg.get("output", {}).get("summary_json"):
                _json_dump(out, sys.stdout)
            return 0
        parser.error(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except GpqedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
