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
import dataclasses
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
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
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
# configuration: every key is read and converted before any data is loaded;
# a key that fills a record field is passed on only when the config has it,
# so its default is the record's

_REQUIRED = object()


def _read(cfg: dict, key: str, convert, default=_REQUIRED):
    """cfg[key] passed through convert, or default when it is absent or null.

    A value that convert rejects, or a file it cannot open, raises a
    ConfigError naming the key; the package's own errors pass unchanged.
    """
    if cfg.get(key) is None:
        if default is _REQUIRED:
            raise ConfigError(f"config key {key!r} is required")
        return default
    try:
        return convert(cfg[key])
    except GpqedError:
        raise
    except (TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None


def _given(cfg: dict, readers: dict) -> dict:
    """The keys of `readers` that cfg has and are not null, each converted."""
    return {key: _read(cfg, key, convert)
            for key, convert in readers.items() if cfg.get(key) is not None}


def _section(cfg: dict, name: str, readers: dict) -> dict:
    """`_given` on the section cfg[name]; a key readers lacks is an error."""
    section = _read(cfg, name, _json(dict), {})
    for key in section:
        if key not in readers:
            raise ConfigError(f"config key {key!r} is not one of "
                              f"{sorted(readers)} in section {name!r}")
    return _given(section, readers)


def _json(kind: type):
    """A converter that passes a value of the JSON type `kind` unchanged."""
    def check(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected a JSON {kind.__name__}, got {value!r}")
        return value
    return check


def _int(value) -> int:
    """A JSON integer: true, 2.7 and "3" are not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected a JSON integer, got {value!r}")
    return value


def _float(value) -> float:
    """A finite JSON number: true, "0.5" and NaN are not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a JSON number, got {value!r}")
    # an exact comparison, so an integer too large for a float fails too
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _count(value) -> int:
    """A JSON integer of at least 1."""
    count = _int(value)
    if count < 1:
        raise ValueError(f"expected an integer >= 1, got {value!r}")
    return count


def _list_of(convert):
    """A converter for a non-empty list; a lone value is a list of one."""
    def read(value) -> list:
        value = value if isinstance(value, list) else [value]
        if not value:
            raise ValueError("expected a non-empty list")
        return [convert(v) for v in value]
    return read


def _opt_config(cfg: dict) -> OptConfig:
    """The "optimizer" section; its seed defaults to the top-level one."""
    opt = _section(cfg, "optimizer", {"restarts": _count, "seed": _int})
    return OptConfig(**{**_given(cfg, {"seed": _int}), **opt})


def _kernel_list(cfg: dict) -> list[kernels.KernelSpec]:
    """The "kernels" list; results are keyed by label, so labels are unique."""
    specs = [kernels.from_name(n)
             for n in _read(cfg, "kernels", _list_of(_json(str)))]
    try:
        inference.kernel_labels(specs)
    except ConfigError as exc:
        raise ConfigError(f"config key 'kernels': {exc}") from None
    return specs


def _outputs(cfg: dict, *names: str) -> dict:
    return _section(cfg, "output", dict.fromkeys(names, _json(str)))


# ---------------------------------------------------------------------------
# analyze

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
                   grid_size: int) -> None:
    lo, hi = float(data.X.min()), float(data.X.max())
    grid = np.linspace(lo, hi, grid_size).reshape(-1, 1)
    side = label.labels(grid)
    rows = []
    for kr in result.kernel_results:
        m0, mc, mi = (gp.predict(f, grid)
                      for f in (kr.fit_m0, kr.fit_c, kr.fit_i))
        m1 = [np.where(side == 0, c, i) for c, i in zip(mc, mi)]
        for model, (mean, var) in (("continuous", m0), ("discontinuous", m1)):
            rows += [[kr.kernel.label, model, x, m, sd] for x, m, sd in zip(
                grid[:, 0].tolist(), mean.tolist(), np.sqrt(var).tolist())]
    write_csv_atomic(path, ["kernel", "model", "x", "mean", "sd"], rows)


def analyze(cfg: dict) -> dict:
    """Run one full analysis from a config dict; returns the report dict."""
    predictors = _read(cfg, "predictors", _list_of(_json(str)))
    if len(predictors) not in (1, 2):
        raise ConfigError("1 or 2 predictor columns are supported")
    if (cfg.get("threshold") is None) == (cfg.get("boundary") is None):
        raise ConfigError(
            "config must specify exactly one of 'threshold' or 'boundary'")
    path = _read(cfg, "data", _json(str))
    response = _read(cfg, "response", _json(str))
    kernel_list = _kernel_list(cfg)
    seed = _read(cfg, "seed", _int, 0)
    opt = _opt_config(cfg)
    boundary = _read(cfg, "boundary", geo.load_boundary, None)
    label = (geo.BoundaryLabel(boundary) if boundary is not None
             else inference.Threshold(_read(cfg, "threshold", _float)))
    # a boundary's default effect point is its arc-length midpoint
    effect_point = _read(cfg, "effect_point", _list_of(_float),
                         None if boundary is None
                         else geo.boundary_points(boundary, 3)[1])
    # compare() checks these too, but only once the data are loaded
    if effect_point is None and len(predictors) == 2:
        raise ConfigError("config key 'effect_point' is required for a "
                          "threshold on two predictors")
    if effect_point is not None and len(effect_point) != len(predictors):
        raise ConfigError("config key 'effect_point' must have one entry "
                          f"per predictor ({len(predictors)})")
    profile_points = _read(cfg, "profile_points", _count, 50)
    curve_grid = _read(cfg, "curve_grid", _count, 200)
    mc_samples = _read(cfg, "mc_samples", _count, 10000)
    outputs = _outputs(cfg, "report", "curves", "density_samples")
    if outputs.get("curves") and len(predictors) != 1:
        raise ConfigError("config key 'curves': curve export is only "
                          "available for 1-D predictors")

    data = load_csv(path, predictors, response)

    started = time.perf_counter()
    result = inference.compare(data, label, kernel_list, opt,
                               effect_point=effect_point)
    report = {
        "version": get_version(),
        "seed": seed,
        "config": cfg,
        **_analysis_report(result),
    }
    if boundary is not None:
        profiles = {}
        for kr in result.kernel_results:
            profiles[kr.kernel.label] = dataclasses.asdict(geo.effect_profile(
                kr.fit_c, kr.fit_i, boundary, count=profile_points))
        report["effect_profiles"] = profiles
    report["wall_time_seconds"] = time.perf_counter() - started

    writers = {
        "report": lambda path: write_json_atomic(path, report),
        "curves": lambda path: _export_curves(path, result, data, label,
                                              curve_grid),
        "density_samples": lambda path: write_csv_atomic(
            path, ["sample"], [[s] for s in inference.bma_effect_samples(
                result, count=mc_samples, seed=seed).tolist()])}
    written = []
    try:
        for key, write in writers.items():
            if outputs.get(key):
                write(outputs[key])
                written.append(outputs[key])
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
    latents = _read(cfg, "latents", _list_of(_json(str)), ["Linear"])
    effects = _read(cfg, "effects", _list_of(_float),
                    list(sim.DEFAULT_EFFECT_GRID))
    kernel_list = _kernel_list(cfg)
    template = sim.SimConfig(latent=latents[0], **_given(
        cfg, {"n": _count, "noise_sd": _float, "threshold": _float,
              "seed": _int, "repetitions": _count}))
    opt = _opt_config(cfg)
    outputs = _outputs(cfg, "summary_json", "summary_csv")
    summary = sim.run_grid(latents, effects, template, kernel_list, opt=opt)

    rows = []
    for cell in summary.cells:
        for m in sim.METRICS:
            means, ses = getattr(cell, f"mean_{m}"), getattr(cell, f"se_{m}")
            rows += [[cell.latent, cell.effect, lab, m, means[lab], ses[lab]]
                     for lab in summary.kernel_labels]
        rows.append([cell.latent, cell.effect, "all", "total_log_bf",
                     cell.mean_total_log_bf, cell.se_total_log_bf])
    out = {"version": get_version(), "config": cfg,
           "cells": [dataclasses.asdict(cell) for cell in summary.cells],
           "kernel_labels": list(summary.kernel_labels)}

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


# flags whose config key sits in a section; every other flag sets the
# top-level key of its own name
_FLAG_SECTIONS = {"restarts": "optimizer", "report": "output"}


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    cfg = dict(cfg)
    for key, value in vars(args).items():
        if value is None or key in ("command", "config"):
            continue
        section = _FLAG_SECTIONS.get(key)
        if section:
            value = {**_read(cfg, section, _json(dict), {}), key: value}
        cfg[section or key] = value
    return cfg


def _comma_list(convert):
    def comma_separated(text: str) -> list:
        return [convert(item.strip()) for item in text.split(",")]
    return comma_separated


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpqed",
        description="GP model comparison for discontinuity designs")
    sub = parser.add_subparsers(dest="command", required=True)
    names = _comma_list(str)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file")
    shared.add_argument("--kernels", type=names,
                        help="comma-separated kernel names")
    shared.add_argument("--seed", type=int, help="master seed")
    shared.add_argument("--restarts", type=int, help="optimizer restarts")

    pa = sub.add_parser("analyze", parents=[shared],
                        help="analyze a CSV dataset")
    pa.add_argument("--data", help="CSV data path")
    pa.add_argument("--response", help="response column name")
    pa.add_argument("--predictors", type=names,
                    help="comma-separated predictor columns")
    pa.add_argument("--threshold", type=float, help="threshold value")
    pa.add_argument("--boundary", help="boundary polyline file")
    pa.add_argument("--report", help="report JSON output path")

    ps = sub.add_parser("simulate", parents=[shared],
                        help="run a simulation grid")
    ps.add_argument("--latents", type=names,
                    help="comma-separated latent function names")
    ps.add_argument("--effects", type=_comma_list(float),
                    help="comma-separated effect sizes")
    ps.add_argument("--n", type=int, help="observations per dataset")
    ps.add_argument("--noise-sd", type=float, dest="noise_sd")
    ps.add_argument("--repetitions", type=int)

    sub.add_parser("version", help="print the package version")
    return parser


# the message prefix and exit code of each error class, first match wins
_EXITS = ((ConfigError, "configuration error", 2), (DataError, "data error", 3),
          (NumericalError, "numerical error", 4), (GpqedError, "error", 2))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "version":
            print(get_version())
            return 0
        cfg = _apply_overrides(_load_config(args.config), args)
        run, key = ((analyze, "report") if args.command == "analyze"
                    else (simulate, "summary_json"))
        out = run(cfg)
        if not (cfg.get("output") or {}).get(key):
            _json_dump(out, sys.stdout)
        return 0
    except GpqedError as exc:
        prefix, code = next((prefix, code) for kind, prefix, code in _EXITS
                            if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
