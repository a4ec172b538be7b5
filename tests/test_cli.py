import csv
import json

import numpy as np
import pytest

from gpqed import cli, inference, sim
from gpqed.errors import ConfigError, DataError, NumericalError
from gpqed.hyperopt import OptConfig
from gpqed.kernels import from_name


def _write_csv(path, rows, header=("x", "y")):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _step_csv(path, n=60, d=3.0, seed=0, noise=0.5):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, n)
    y = 0.2 + 0.8 * x + d * (x >= 0) + noise * rng.standard_normal(n)
    _write_csv(path, list(zip(x, y)))


def _base_config(tmp_path, **extra):
    data = tmp_path / "data.csv"
    _step_csv(data)
    cfg = {
        "data": str(data),
        "response": "y",
        "predictors": ["x"],
        "threshold": 0.0,
        "kernels": ["exp"],
        "optimizer": {"restarts": 1},
    }
    cfg.update(extra)
    return cfg


# values a JSON integer key rejects: a JSON boolean, a fraction, a string
_NOT_INTEGERS = [True, 2.7, "3"]


class TestLoadCsv:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "d.csv"
        _write_csv(p, [(0.5, 1.0), (-0.25, 2.5)])
        d = cli.load_csv(str(p), ["x"], "y")
        np.testing.assert_allclose(d.X[:, 0], [0.5, -0.25])
        np.testing.assert_allclose(d.y, [1.0, 2.5])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            cli.load_csv(str(tmp_path / "nope.csv"), ["x"], "y")

    def test_missing_column_named(self, tmp_path):
        p = tmp_path / "d.csv"
        _write_csv(p, [(1.0, 2.0)])
        with pytest.raises(DataError, match="'z'"):
            cli.load_csv(str(p), ["z"], "y")

    def test_comma_decimal_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n\"3,14\",1.0\n")
        with pytest.raises(DataError, match="row 2"):
            cli.load_csv(str(p), ["x"], "y")

    def test_non_numeric_cell_located(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1.0,2.0\n1.5,abc\n")
        with pytest.raises(DataError, match="row 3.*'y'"):
            cli.load_csv(str(p), ["x"], "y")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(DataError, match="header"):
            cli.load_csv(str(p), ["x"], "y")

    def test_no_data_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n")
        with pytest.raises(DataError, match="no data rows"):
            cli.load_csv(str(p), ["x"], "y")

    def test_two_predictors(self, tmp_path):
        p = tmp_path / "d.csv"
        _write_csv(p, [(1, 2, 3), (4, 5, 6)], header=("a", "b", "y"))
        d = cli.load_csv(str(p), ["a", "b"], "y")
        assert d.X.shape == (2, 2)


class TestAnalyze:
    def test_report_structure(self, tmp_path):
        report = cli.analyze(_base_config(tmp_path))
        assert "exp" in report["kernels"]
        kr = report["kernels"]["exp"]
        assert kr["log_bf10"] == pytest.approx(
            kr["log_evidence_m1"] - kr["log_evidence_m0"])
        assert 0.0 <= report["totals"]["p_m1"] <= 1.0

    def test_deterministic(self, tmp_path):
        cfg = _base_config(tmp_path)
        a, b = cli.analyze(cfg), cli.analyze(cfg)
        a.pop("wall_time_seconds")
        b.pop("wall_time_seconds")
        assert json.dumps(cli._plain(a)) == json.dumps(cli._plain(b))

    def test_requires_exactly_one_assignment_rule(self, tmp_path):
        cfg = _base_config(tmp_path)
        del cfg["threshold"]
        with pytest.raises(ConfigError, match="threshold.*boundary"):
            cli.analyze(cfg)
        cfg["threshold"] = 0.0
        cfg["boundary"] = "b.txt"
        with pytest.raises(ConfigError):
            cli.analyze(cfg)

    def test_null_assignment_rule_is_absent(self, tmp_path):
        # a null threshold next to a boundary is read as no threshold, so
        # the boundary file is what fails to load here
        cfg = _base_config(tmp_path, threshold=None,
                           boundary=str(tmp_path / "b.txt"))
        with pytest.raises(ConfigError, match="config key 'boundary'"):
            cli.analyze(cfg)
        report = cli.analyze(_base_config(tmp_path, boundary=None))
        assert list(report["kernels"]) == ["exp"]

    def test_missing_required_key(self, tmp_path):
        cfg = _base_config(tmp_path)
        del cfg["response"]
        with pytest.raises(ConfigError, match="response"):
            cli.analyze(cfg)

    def test_empty_kernel_list(self, tmp_path):
        cfg = _base_config(tmp_path, kernels=[])
        with pytest.raises(ConfigError):
            cli.analyze(cfg)

    def test_report_written_to_disk(self, tmp_path):
        out = tmp_path / "report.json"
        cfg = _base_config(tmp_path, output={"report": str(out)})
        report = cli.analyze(cfg)
        on_disk = json.loads(out.read_text())
        assert on_disk["totals"]["total_log_bf"] == pytest.approx(
            report["totals"]["total_log_bf"])

    def test_curves_csv(self, tmp_path):
        out = tmp_path / "curves.csv"
        cfg = _base_config(tmp_path, curve_grid=50,
                           output={"curves": str(out)})
        cli.analyze(cfg)
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 50  # continuous + discontinuous, one kernel
        assert {r["model"] for r in rows} == {"continuous", "discontinuous"}

    def test_density_samples(self, tmp_path):
        out = tmp_path / "samples.csv"
        cfg = _base_config(tmp_path, mc_samples=500,
                           output={"density_samples": str(out)})
        cli.analyze(cfg)
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 500

    def test_density_samples_read_back_equal(self, tmp_path):
        # every written sample parses back to the very float drawn
        out = tmp_path / "samples.csv"
        cfg = _base_config(tmp_path, mc_samples=500, seed=7,
                           output={"density_samples": str(out)})
        cli.analyze(cfg)
        data = cli.load_csv(cfg["data"], ["x"], "y")
        result = inference.compare(data, inference.Threshold(0.0),
                                   [from_name("exp")], OptConfig(restarts=1))
        want = inference.bma_effect_samples(result, count=500, seed=7)
        with open(out) as fh:
            got = [float(row["sample"]) for row in csv.DictReader(fh)]
        assert got == want.tolist()

    def test_effect_point_at_a_1d_threshold(self, tmp_path):
        # the effect is reported where the config asks, not at the threshold
        cfg = _base_config(tmp_path, effect_point=0.5)
        report = cli.analyze(cfg)
        assert report["effect_point"] == [0.5]
        data = cli.load_csv(cfg["data"], ["x"], "y")
        want = inference.compare(data, inference.Threshold(0.0),
                                 [from_name("exp")], OptConfig(restarts=1),
                                 effect_point=0.5)
        assert report["totals"]["effect_m1_mean"] == want.bma_m1_mean

    def test_lone_kernel_name_is_a_list_of_one(self, tmp_path):
        report = cli.analyze(_base_config(tmp_path, kernels="exp"))
        assert list(report["kernels"]) == ["exp"]

    def test_boundary_analysis(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, size=(40, 2))
        y = X[:, 0] + 2.0 * (X[:, 1] < 0) + 0.3 * rng.standard_normal(40)
        data = tmp_path / "geo.csv"
        _write_csv(data, np.column_stack([X, y]), header=("u", "v", "y"))
        bfile = tmp_path / "border.txt"
        bfile.write_text("-2 0\n2 0\n")
        cfg = {"data": str(data), "response": "y", "predictors": ["u", "v"],
               "boundary": str(bfile), "kernels": ["se"],
               "optimizer": {"restarts": 1}, "profile_points": 7}
        report = cli.analyze(cfg)
        prof = report["effect_profiles"]["se"]
        assert len(prof["means"]) == 7
        # default effect point is the arc midpoint of the boundary
        np.testing.assert_allclose(report["effect_point"], [0.0, 0.0])


class TestSimulateCommand:
    def test_summary_shape(self, tmp_path):
        cfg = {"latents": ["Linear"], "effects": [0.0, 2.0],
               "kernels": ["exp"], "n": 30, "repetitions": 2, "seed": 0,
               "optimizer": {"restarts": 1}}
        out = cli.simulate(cfg)
        assert len(out["cells"]) == 2
        assert out["kernel_labels"] == ["exp"]

    def test_csv_rows(self, tmp_path):
        out_csv = tmp_path / "grid.csv"
        cfg = {"latents": ["Linear"], "effects": [1.0], "kernels": ["exp"],
               "n": 30, "repetitions": 2, "seed": 0,
               "optimizer": {"restarts": 1},
               "output": {"summary_csv": str(out_csv)}}
        cli.simulate(cfg)
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        # 5 per-kernel metrics plus the kernel-averaged total
        assert len(rows) == 6
        assert rows[-1]["kernel"] == "all"

    def test_failed_cell_gives_strict_json(self, tmp_path, monkeypatch):
        # a cell whose repetitions all fail has NaN means, which must reach
        # the file as null, not as a bare NaN token
        def compare(*args, **kwargs):
            raise NumericalError("diverged")
        monkeypatch.setattr(sim.inference, "compare", compare)
        out_json = tmp_path / "grid.json"
        cfg = {"latents": ["Linear"], "effects": [1.0], "kernels": ["exp"],
               "n": 20, "repetitions": 2, "seed": 0,
               "optimizer": {"restarts": 1},
               "output": {"summary_json": str(out_json)}}
        cli.simulate(cfg)

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")
        summary = json.loads(out_json.read_text(), parse_constant=reject)
        cell = summary["cells"][0]
        assert cell["failures"] == 2
        assert cell["mean_total_log_bf"] is None
        for m in sim.METRICS:
            assert cell[f"mean_{m}"] == {"exp": None}
            assert cell[f"se_{m}"] == {"exp": None}

    def test_threshold_outside_the_x_range(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"latents": ["Linear"], "effects": [1.0],
                                   "kernels": ["exp"], "n": 20,
                                   "repetitions": 2, "threshold": 5}))
        assert cli.main(["simulate", "--config", str(cfg)]) == 2
        assert "threshold" in capsys.readouterr().err

    def test_invalid_latent_lists_valid_names(self):
        cfg = {"latents": ["Cosine"], "effects": [1.0], "kernels": ["exp"],
               "n": 30, "repetitions": 1}
        with pytest.raises(ConfigError, match="Linear"):
            cli.simulate(cfg)


class TestMain:
    def test_version(self, capsys):
        assert cli.main(["version"]) == 0
        assert capsys.readouterr().out.strip()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"response": "y", "predictors": ["x"],
                                   "data": "missing.csv",
                                   "kernels": ["exp"]}))
        assert cli.main(["analyze", "--config", str(cfg)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_data_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"response": "y", "predictors": ["x"],
                                   "data": str(tmp_path / "missing.csv"),
                                   "threshold": 0.0, "kernels": ["exp"]}))
        assert cli.main(["analyze", "--config", str(cfg)]) == 3
        assert "data error" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert cli.main(["analyze", "--config", "no-such.json"]) == 2

    def test_invalid_json_config(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert cli.main(["analyze", "--config", str(p)]) == 2

    def test_flag_overrides_config(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        _step_csv(data)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"response": "y", "predictors": ["x"],
                                   "data": str(data), "threshold": 5.0,
                                   "kernels": ["exp"],
                                   "optimizer": {"restarts": 1}}))
        # threshold 5.0 leaves the intervention side empty -> config error;
        # the flag override fixes it
        assert cli.main(["analyze", "--config", str(cfg)]) == 2
        capsys.readouterr()
        assert cli.main(["analyze", "--config", str(cfg),
                         "--threshold", "0.0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["threshold"] == 0.0

    def test_report_flag_writes_file(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        _step_csv(data)
        out = tmp_path / "r.json"
        rc = cli.main(["analyze", "--data", str(data), "--response", "y",
                       "--predictors", "x", "--threshold", "0",
                       "--kernels", "exp", "--restarts", "1",
                       "--report", str(out)])
        assert rc == 0
        assert out.exists()
        # report went to the file, not stdout
        assert capsys.readouterr().out == ""

    def test_simulate_stdout_json(self, capsys):
        rc = cli.main(["simulate", "--latents", "Linear", "--effects", "1",
                       "--kernels", "exp", "--n", "30",
                       "--repetitions", "1", "--restarts", "1", "--seed", "0"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cells"][0]["latent"] == "Linear"

    def test_malformed_list_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--effects", "1,abc"])
        assert exc.value.code == 2
        assert "--effects" in capsys.readouterr().err

    @pytest.mark.parametrize("command, bad, flags, key", [
        ("analyze", {"optimizer": {"restarts": "x"}}, [], "restarts"),
        ("analyze", {"optimizer": "fast"}, [], "optimizer"),
        ("analyze", {"optimizer": "fast"}, ["--restarts", "2"], "optimizer"),
        ("analyze", {"seed": "s"}, [], "seed"),
        ("analyze", {"threshold": "abc"}, [], "threshold"),
        ("analyze", {"threshold": {"value": 0.0, "dimension": 0}}, [],
         "threshold"),
        ("analyze", {"curve_grid": "many"}, [], "curve_grid"),
        ("analyze", {"output": {"report": 5}}, [], "report"),
        ("simulate", {"effects": ["a"]}, [], "effects"),
        ("simulate", {"kernels": []}, [], "kernels"),
    ])
    def test_bad_config_value_is_a_config_error(self, tmp_path, capsys,
                                                 command, bad, flags, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_base_config(tmp_path, **bad)))
        assert cli.main([command, "--config", str(cfg), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: config key {key!r}")

    def test_null_value_is_an_absent_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_base_config(
            tmp_path, seed=None, effect_point=None, output=None)))
        assert cli.main(["analyze", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 0

    def test_missing_boundary_file_is_a_config_error(self, tmp_path, capsys):
        cfg = _base_config(tmp_path, boundary=str(tmp_path / "no-such.txt"))
        del cfg["threshold"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["analyze", "--config", str(path)]) == 2
        assert "config key 'boundary'" in capsys.readouterr().err

    def test_bad_value_fails_before_the_analysis(self, tmp_path, capsys,
                                                 monkeypatch):
        def compare(*args, **kwargs):
            raise AssertionError("compare ran before the config was read")
        monkeypatch.setattr(cli.inference, "compare", compare)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_base_config(tmp_path, mc_samples="x")))
        assert cli.main(["analyze", "--config", str(cfg)]) == 2
        assert "'mc_samples'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["mc_samples", "curve_grid",
                                     "profile_points"])
    def test_count_below_one_fails_before_the_data_are_read(
            self, tmp_path, capsys, monkeypatch, key):
        def compare(*args, **kwargs):
            raise AssertionError("compare ran before the config was read")
        monkeypatch.setattr(cli.inference, "compare", compare)
        cfg = tmp_path / "cfg.json"
        # a data file that does not exist would be a data error (exit 3)
        cfg.write_text(json.dumps(_base_config(
            tmp_path, data=str(tmp_path / "no-such.csv"), **{key: 0})))
        assert cli.main(["analyze", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: config key {key!r}")

    @pytest.mark.parametrize("command, section, key, value", [
        (command, section, key, value)
        for command, section, key, values in [
            ("analyze", None, "seed", _NOT_INTEGERS),
            ("analyze", "optimizer", "seed", _NOT_INTEGERS),
            ("analyze", "optimizer", "restarts", [*_NOT_INTEGERS, 0]),
            ("analyze", None, "mc_samples", _NOT_INTEGERS),
            ("analyze", None, "curve_grid", _NOT_INTEGERS),
            ("analyze", None, "profile_points", _NOT_INTEGERS),
            ("simulate", None, "n", [*_NOT_INTEGERS, 0]),
            ("simulate", None, "repetitions", [*_NOT_INTEGERS, 0]),
        ] for value in values])
    def test_integer_key_takes_a_json_integer(
            self, tmp_path, capsys, monkeypatch, command, section, key, value):
        def run(*args, **kwargs):
            raise AssertionError("the analysis ran before the config was read")
        monkeypatch.setattr(cli.inference, "compare", run)
        monkeypatch.setattr(cli.sim, "run_grid", run)
        # a data file that does not exist would be a data error (exit 3)
        cfg = _base_config(tmp_path, data=str(tmp_path / "no-such.csv"))
        if section is None:
            cfg[key] = value
        else:
            cfg[section] = {**cfg[section], key: value}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: config key {key!r}")

    @pytest.mark.parametrize("command, key, value", [
        ("analyze", "threshold", float("nan")),
        ("analyze", "threshold", True),
        ("analyze", "threshold", float("inf")),
        ("analyze", "effect_point", ["nan", 0.0]),
        ("analyze", "effect_point", [float("nan"), 0.0]),
        ("simulate", "effects", [1.0, float("-inf")]),
        ("simulate", "noise_sd", False),
        ("simulate", "threshold", float("nan")),
    ], ids=["threshold-nan", "threshold-true", "value-inf",
            "effect_point-string", "effect_point-nan", "effects-inf",
            "noise_sd-false", "simulate-threshold-nan"])
    def test_float_key_takes_a_finite_json_number(
            self, tmp_path, capsys, monkeypatch, command, key, value):
        def run(*args, **kwargs):
            raise AssertionError("the analysis ran before the config was read")
        monkeypatch.setattr(cli.inference, "compare", run)
        monkeypatch.setattr(cli.sim, "run_grid", run)
        # a data file that does not exist would be a data error (exit 3)
        cfg = _base_config(tmp_path, data=str(tmp_path / "no-such.csv"),
                           predictors=["u", "v"])
        cfg[key] = value
        path = tmp_path / "cfg.json"
        # json writes NaN and Infinity, which json.load reads back
        path.write_text(json.dumps(cfg))
        assert cli.main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: config key {key!r}")

    @pytest.mark.parametrize("extra", [
        {"effect_point": [0.5, 0.2]},
        {"predictors": ["u", "v"]},
    ], ids=["two-entries-one-predictor", "missing-for-a-2d-threshold"])
    def test_effect_point_checked_before_the_data_are_read(
            self, tmp_path, capsys, extra):
        # a data file that does not exist would be a data error (exit 3)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_base_config(
            tmp_path, data=str(tmp_path / "no-such.csv"), **extra)))
        assert cli.main(["analyze", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: config key 'effect_point'")

    @pytest.mark.parametrize("command, section, key", [
        ("analyze", "optimizer", "tolernce"),
        ("analyze", "optimizer", "tolerance"),
        ("analyze", "optimizer", "max_iterations"),
        ("analyze", "output", "summary_json"),
        ("simulate", "output", "report"),
    ])
    def test_unknown_section_key_is_a_config_error(
            self, tmp_path, capsys, monkeypatch, command, section, key):
        def run(*args, **kwargs):
            raise AssertionError("the analysis ran before the config was read")
        monkeypatch.setattr(cli.inference, "compare", run)
        monkeypatch.setattr(cli.sim, "run_grid", run)
        # a data file that does not exist would be a data error (exit 3)
        cfg = _base_config(tmp_path, data=str(tmp_path / "no-such.csv"))
        cfg[section] = {**cfg.get(section, {}), key: 1}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: config key {key!r}")
        assert repr(section) in err

    def test_curves_need_one_predictor_before_the_data_are_read(
            self, tmp_path, capsys, monkeypatch):
        def compare(*args, **kwargs):
            raise AssertionError("compare ran before the config was read")
        monkeypatch.setattr(cli.inference, "compare", compare)
        bfile = tmp_path / "border.txt"
        bfile.write_text("-2 0\n2 0\n")
        cfg = _base_config(tmp_path, predictors=["u", "v"],
                           boundary=str(bfile),
                           output={"curves": str(tmp_path / "curves.csv")})
        del cfg["threshold"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["analyze", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: config key 'curves'")

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_two_kernels_with_one_label_are_a_config_error(
            self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_base_config(tmp_path)))
        argv = [command, "--config", str(cfg), "--kernels", "exp,exponential"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: config key 'kernels'")
        assert "'exp'" in err


class TestPlain:
    @pytest.mark.parametrize("value", [True, False, np.bool_(True),
                                       np.bool_(False)])
    def test_booleans_stay_booleans(self, value):
        out = cli._plain({"flag": value, "flags": np.array([value]),
                          "count": np.int64(3)})
        assert out == {"flag": bool(value), "flags": [bool(value)], "count": 3}
        assert [type(v) for v in (out["flag"], out["flags"][0], out["count"])
                ] == [bool, bool, int]
        assert json.loads(json.dumps(out)) == out


class TestAtomicWrites:
    def test_json_replaces_existing(self, tmp_path):
        p = tmp_path / "o.json"
        p.write_text("old")
        cli.write_json_atomic(str(p), {"a": 1})
        assert json.loads(p.read_text()) == {"a": 1}
        assert list(tmp_path.iterdir()) == [p]  # no stray temp files

    def test_failure_leaves_no_temp(self, tmp_path):
        p = tmp_path / "o.json"
        with pytest.raises(TypeError):
            cli.write_json_atomic(str(p), {"a": object()})
        assert list(tmp_path.iterdir()) == []
