"""Command-line front end: CSV ingestion, analysis orchestration, and
machine-readable reports.

Subcommands: `analyze` (threshold or boundary discontinuity analysis of a CSV
file), `simulate` (synthetic recovery grids), `version`. Configuration lives in
a JSON file; common keys can be overridden by flags of the same name. Exit
codes: 0 ok, 2 configuration error (an unreadable config file or an unwritable
output too), 3 data error (an unreadable data file too), 4 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import tempfile
import time
from importlib.metadata import PackageNotFoundError, version as pkg_version

import numpy as np

from . import geo, gp, inference, kernels, sim
from .errors import (ConfigError, DataError, GpqedError, InputError,
                     NumericalError, check_int, check_number)
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
    """Strictly parse the named columns as finite decimal numbers
    (`gp.finite_decimal`), order preserved; any other cell is a DataError
    naming its row and column."""
    # a byte-order mark is skipped, and a byte that is not UTF-8 reads as
    # U+FFFD, an error only where parsed
    try:
        fh = open(path, encoding="utf-8-sig", errors="replace", newline="")
    except FileNotFoundError:
        raise DataError(f"data file not found: {path}") from None
    except OSError as exc:
        raise DataError(f"data file {path}: {exc.strerror}") from None
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file (no header row)")
        for col in [*predictors, response]:
            if col not in reader.fieldnames:
                raise DataError(f"{path}: missing column {col!r}")
            if reader.fieldnames.count(col) > 1:
                raise DataError(f"{path}: column {col!r} is named more than "
                                "once in the header")
        X_rows, y_rows = [], []
        for rownum, row in enumerate(reader, start=2):
            # DictReader keys the cells past the header's last column by None
            if None in row:
                raise DataError(f"{path}: row {rownum}: more values than "
                                f"the header's {len(reader.fieldnames)} "
                                "columns")
            def cell(col):
                raw = row.get(col)
                if raw is None:
                    raise DataError(f"{path}: row {rownum}: missing value "
                                    f"in column {col!r}")
                try:
                    return gp.finite_decimal(raw)
                except ValueError as exc:
                    raise DataError(f"{path}: row {rownum}, column {col!r}: "
                                    f"{exc}") from None
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
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _json_dump(obj, fh) -> None:
    # one write of the whole text, not json.dump's write per encoder chunk
    fh.write(json.dumps(_plain(obj), indent=2, allow_nan=False) + "\n")


def _write_atomic(path: str, write, newline=None) -> None:
    """Call write(fh) on a temporary file next to path, then move it there,
    with the mode open(path, "w") would give it."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline=newline) as fh:
            write(fh)
        # mkstemp makes the file 0600; the umask can only be read by setting it
        umask = os.umask(0o077)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
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


def write_column_atomic(path: str, name: str, values) -> None:
    """A one-column CSV of floats: the header name, then each value as its
    repr (the shortest decimal that reads back to it), every line ended by
    CRLF. These are the bytes csv.writer writes for the same rows, built as
    one string instead of one writer call per row."""
    text = "\r\n".join([name, *map(float.__repr__, values)]) + "\r\n"
    _write_atomic(path, lambda fh: fh.write(text), newline="")


# ---------------------------------------------------------------------------
# configuration: every key is read and converted before any data is loaded;
# a key that fills a record field is passed on only when the config has it,
# so its default is the record's

_REQUIRED = object()


def _read(cfg: dict, key: str, convert, default=_REQUIRED):
    """cfg[key] passed through convert by `_convert`, which names the key in
    an error convert raises, or default when it is absent or null."""
    if cfg.get(key) is None:
        if default is _REQUIRED:
            raise ConfigError(f"config key {key!r} is required")
        return default
    return _convert(key, convert, cfg[key])


def _convert(key: str, convert, value):
    """convert(value), the one place that names a config key in an error
    raised while reading it. A TypeError, ValueError (a library check's
    InputError too) or OSError (a file convert cannot open) becomes a
    ConfigError naming key; any other error, such as the DataError of a
    boundary file that reads but holds no valid polyline, passes on."""
    try:
        return convert(value)
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


# A converter raises the error of the check that rejects a value, the
# library's own where it has one; _read names the key.

def _float(value) -> float:
    """A finite JSON number: true, "0.5" and NaN are not one."""
    return float(check_number("value", value))


def _at_least(low: int):
    """A converter for a JSON integer of at least low: true, 2.7 and "3"
    are not one."""
    return lambda value: check_int("value", value, low)


def _list_of(convert):
    """A converter for a non-empty list; a lone value is a list of one."""
    def read(value) -> list:
        value = value if isinstance(value, list) else [value]
        if not value:
            raise ValueError("expected a non-empty list")
        return [convert(v) for v in value]
    return read


def _restarts(cfg: dict) -> dict:
    """The "optimizer" section, whose one key is restarts."""
    return _section(cfg, "optimizer",
                    {"restarts": _field(OptConfig(), "restarts")})


def _kernel_list(value) -> list[kernels.KernelSpec]:
    """A converter for the "kernels" list of known names; results are keyed
    by label, so labels are unique."""
    specs = [kernels.from_name(n) for n in _list_of(_json(str))(value)]
    inference.kernel_labels(specs)
    return specs


def _field(record, name: str):
    """A converter for a value of the field name of the dataclass record,
    checked by the record's own rules with every other field as in record;
    it takes the type of record's value, so a JSON integer effect is a
    float."""
    kind = type(getattr(record, name))
    return lambda value: kind(
        getattr(dataclasses.replace(record, **{name: value}), name))


def _output_path(value) -> str:
    """A JSON string naming a file, not a directory, in an existing one."""
    path = _json(str)(value)
    if os.path.isdir(path):
        raise ValueError(f"{path} is a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ValueError(f"the directory of {path} does not exist")
    return path


def _outputs(cfg: dict, *names: str) -> dict:
    return _section(cfg, "output", dict.fromkeys(names, _output_path))


def _write_outputs(outputs: dict, writers: dict) -> None:
    """writers[key](path) for each output the config names, in writers'
    order; on any failure the files already written are removed, and an
    OSError becomes a ConfigError naming the key."""
    written = []
    try:
        for key, write in writers.items():
            if outputs.get(key):
                write(outputs[key])
                written.append(outputs[key])
    except BaseException as exc:
        for path in filter(os.path.exists, written):
            os.unlink(path)
        if isinstance(exc, OSError):
            raise ConfigError(f"config key {key!r}: cannot write "
                              f"{outputs[key]}: {exc.strerror}") from None
        raise


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
        raise ConfigError("config key 'predictors': 1 or 2 predictor columns "
                          f"are supported, got {len(predictors)}")
    if (cfg.get("threshold") is None) == (cfg.get("boundary") is None):
        raise ConfigError(
            "config must specify exactly one of 'threshold' or 'boundary'")
    path = _read(cfg, "data", _json(str))
    response = _read(cfg, "response", _json(str))
    # load_csv would read a repeated column, or the response, as one more
    # copy of a variable
    columns = [*predictors, response]
    for col in predictors:
        if columns.count(col) > 1:
            raise ConfigError(f"config key 'predictors': column {col!r} is "
                              "listed twice or is also the response")
    kernel_list = _read(cfg, "kernels", _kernel_list)
    seed = _read(cfg, "seed", _field(OptConfig(), "seed"), 0)
    opt = OptConfig(seed=seed, **_restarts(cfg))
    boundary = _read(cfg, "boundary", geo.load_boundary, None)
    label = (geo.BoundaryLabel(boundary) if boundary is not None
             else inference.Threshold(_read(cfg, "threshold", _float)))
    # a boundary's default effect point is its arc-length midpoint; compare's
    # own rules, a 1-D threshold's default among them, check it before the
    # data file opens
    point = _read(cfg, "effect_point", _list_of(_float),
                  None if boundary is None
                  else geo.boundary_points(boundary, 3)[1])
    effect_point = _convert("effect_point", lambda value: (
        inference.check_effect_point(value, label, len(predictors))), point)
    # geo.boundary_points places at least the two ends of the boundary
    profile_points = _read(cfg, "profile_points", _at_least(2), 50)
    curve_grid = _read(cfg, "curve_grid", _at_least(1), 200)
    mc_samples = _read(cfg, "mc_samples", _at_least(1), 10000)
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

    _write_outputs(outputs, {
        "report": lambda path: write_json_atomic(path, report),
        "curves": lambda path: _export_curves(path, result, data, label,
                                              curve_grid),
        "density_samples": lambda path: write_column_atomic(
            path, "sample", inference.bma_effect_samples(
                result, count=mc_samples, seed=seed).tolist())})
    return report


# ---------------------------------------------------------------------------
# simulate

def simulate(cfg: dict) -> dict:
    """Run a simulation grid from a config dict; returns the summary dict."""
    # latents, effects and the keys of the template are SimConfig fields,
    # each checked by SimConfig's own rules
    default = sim.SimConfig(latent="Linear")
    latents = _read(cfg, "latents", _list_of(_field(default, "latent")),
                    [default.latent])
    effects = _read(cfg, "effects", _list_of(_field(default, "effect")),
                    list(sim.DEFAULT_EFFECT_GRID))
    kernel_list = _read(cfg, "kernels", _kernel_list)
    template = sim.SimConfig(latent=latents[0], **_given(cfg, {
        key: _field(default, key)
        for key in ("n", "noise_sd", "threshold", "seed", "repetitions")}))
    # run_cell seeds each repetition's optimizer from the template's seed
    opt = OptConfig(**_restarts(cfg))
    outputs = _outputs(cfg, "summary_json", "summary_csv")
    cells = sim.run_grid(latents, effects, template, kernel_list, opt=opt)
    labels = [k.label for k in kernel_list]

    rows = []
    for cell in cells:
        for m in sim.METRICS:
            means, ses = getattr(cell, f"mean_{m}"), getattr(cell, f"se_{m}")
            rows += [[cell.latent, cell.effect, lab, m, means[lab], ses[lab]]
                     for lab in labels]
        rows.append([cell.latent, cell.effect, "all", "total_log_bf",
                     cell.mean_total_log_bf, cell.se_total_log_bf])
    out = {"version": get_version(), "config": cfg,
           "cells": [dataclasses.asdict(cell) for cell in cells],
           "kernel_labels": labels}

    _write_outputs(outputs, {
        "summary_json": lambda path: write_json_atomic(path, out),
        "summary_csv": lambda path: write_csv_atomic(
            path, ["latent", "effect", "kernel", "metric", "mean", "se"],
            rows)})
    return out


# ---------------------------------------------------------------------------
# argument parsing

def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        fh = open(path, "r", encoding="utf-8-sig")    # BOM or none
    except OSError as exc:
        raise ConfigError(f"config file {path}: {exc.strerror}") from None
    with fh:
        try:
            cfg = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
_EXITS = (((ConfigError, InputError), "configuration error", 2),
          (DataError, "data error", 3), (NumericalError, "numerical error", 4),
          (GpqedError, "error", 2))


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
