import csv
import json
import os
import stat

import numpy as np
import pytest

from gpqed import cli, gp, inference, sim
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


def _csv_writer_bytes(path, name, values):
    """The bytes csv.writer writes for a header and one value per row."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([[name], *[[v] for v in values]])
    return path.read_bytes()


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

    @pytest.mark.parametrize("raw", ["1_000", "inf", "-Infinity", "nan"])
    def test_not_a_finite_decimal_located(self, tmp_path, raw):
        # float() reads each of these; before, the digit separator loaded as
        # 1000 and the others failed later, naming no row or column
        p = tmp_path / "d.csv"
        p.write_text(f"x,y\n1.0,2.0\n{raw},1.5\n")
        with pytest.raises(DataError, match="row 3, column 'x': not a finite "
                           f"decimal number: '{raw}'"):
            cli.load_csv(str(p), ["x"], "y")

    def test_missing_cell_located(self, tmp_path):
        # a row shorter than the header
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1.0,2.0\n1.5\n")
        with pytest.raises(DataError, match="row 3: missing value in "
                           "column 'y'"):
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

    def test_repeated_column_rejected(self, tmp_path):
        # csv.DictReader would read x from the last of the two columns
        p = tmp_path / "d.csv"
        p.write_text("x,y,x\n1.0,2.0,3.0\n")
        with pytest.raises(DataError, match="column 'x' is named more than once"):
            cli.load_csv(str(p), ["x"], "y")

    def test_extra_cells_rejected(self, tmp_path):
        # an unquoted decimal comma: csv.DictReader would read x = 3, y = 14
        p = tmp_path / "d.csv"
        p.write_text("x,y\n0.5,1.0\n3,14,1.0\n")
        with pytest.raises(DataError, match="row 3: more values"):
            cli.load_csv(str(p), ["x"], "y")

    def test_byte_order_mark_skipped(self, tmp_path):
        # spreadsheet tools often start a CSV file with a UTF-8 BOM
        p = tmp_path / "d.csv"
        p.write_bytes(b"\xef\xbb\xbfx,y\n0.5,1.0\n-0.25,2.5\n")
        d = cli.load_csv(str(p), ["x"], "y")
        np.testing.assert_array_equal(d.X[:, 0], [0.5, -0.25])
        np.testing.assert_array_equal(d.y, [1.0, 2.5])

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

    def test_curves_sd_is_the_predictive_sd(self, tmp_path):
        out = tmp_path / "curves.csv"
        cfg = _base_config(tmp_path, curve_grid=30,
                           output={"curves": str(out)})
        cli.analyze(cfg)
        data = cli.load_csv(cfg["data"], ["x"], "y")
        kr, = inference.compare(data, inference.Threshold(0.0),
                                [from_name("exp")],
                                OptConfig(restarts=1)).kernel_results
        grid = np.linspace(data.X.min(), data.X.max(), 30).reshape(-1, 1)
        (m0, v0), (mc, vc), (mi, vi) = (
            gp.predict(f, grid) for f in (kr.fit_m0, kr.fit_c, kr.fit_i))
        right = grid[:, 0] >= 0.0
        want = {"continuous": (m0, v0),
                "discontinuous": (np.where(right, mi, mc),
                                  np.where(right, vi, vc))}
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        for model, (mean, var) in want.items():
            got = [r for r in rows if r["model"] == model]
            np.testing.assert_allclose([float(r["x"]) for r in got],
                                       grid[:, 0], rtol=1e-15)
            np.testing.assert_allclose([float(r["mean"]) for r in got],
                                       mean, rtol=1e-12)
            np.testing.assert_allclose([float(r["sd"]) for r in got],
                                       np.sqrt(var), rtol=1e-12)

    def test_two_kernels_whose_m0_and_m1_weights_differ(self, tmp_path):
        # with one kernel both weight vectors are [1]; here they differ
        out = tmp_path / "samples.csv"
        cfg = _base_config(tmp_path, kernels=["exp", "se"], seed=5,
                           output={"density_samples": str(out)})
        totals = cli.analyze(cfg)["totals"]
        data = cli.load_csv(cfg["data"], ["x"], "y")
        want = inference.compare(data, inference.Threshold(0.0),
                                 [from_name("exp"), from_name("se")],
                                 OptConfig(restarts=1, seed=5))
        assert np.abs(want.kernel_weights_m1
                      - want.kernel_weights_m0).max() > 0.3
        np.testing.assert_array_equal(totals["kernel_weights_m0"],
                                      want.kernel_weights_m0)
        np.testing.assert_array_equal(totals["kernel_weights_m1"],
                                      want.kernel_weights_m1)
        # criterion 3's rule: the draws' mean within 3 SE of the BMA mean
        with open(out) as fh:
            draws = np.array([float(r["sample"]) for r in csv.DictReader(fh)])
        assert len(draws) == 10000
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - totals["effect_bma_mean"]) <= 3 * se

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
        assert out.read_bytes() == _csv_writer_bytes(
            tmp_path / "want.csv", "sample", want.tolist())

    def test_density_samples_deterministic(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in paths:
            cli.analyze(_base_config(tmp_path, mc_samples=500, seed=3,
                                     output={"density_samples": str(out)}))
        assert paths[0].read_bytes() == paths[1].read_bytes()

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

    def test_failed_later_output_leaves_no_file(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("disk went away")
        monkeypatch.setattr(cli, "write_csv_atomic", fail)
        cfg = {"latents": ["Linear"], "effects": [1.0], "kernels": ["exp"],
               "n": 20, "repetitions": 1, "optimizer": {"restarts": 1},
               "output": {"summary_json": str(tmp_path / "grid.json"),
                          "summary_csv": str(tmp_path / "grid.csv")}}
        with pytest.raises(RuntimeError, match="disk went away"):
            cli.simulate(cfg)
        assert list(tmp_path.iterdir()) == []

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

    def test_one_row_data_file_is_a_data_error(self, tmp_path, capsys):
        # as a file with no data rows is: a fit needs a second row
        cfg = _base_config(tmp_path)
        _write_csv(cfg["data"], [(0.5, 1.0)])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["analyze", "--config", str(path)]) == 3
        assert ("data error: need at least 2 observations"
                in capsys.readouterr().err)

    def test_empty_side_after_the_data_load_is_a_config_error(
            self, tmp_path, capsys):
        # the library's InputError reaches main unnamed, with the prefix of
        # a configuration error
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_base_config(tmp_path, threshold=5.0)))
        assert cli.main(["analyze", "--config", str(path)]) == 2
        assert capsys.readouterr().err == ("configuration error: intervention "
                                           "side of the split is empty\n")

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
        ("analyze", {"kernels": ["foo"]}, [], "kernels"),
        ("simulate", {}, ["--kernels", "foo"], "kernels"),
        ("analyze", {"predictors": ["a", "b", "c"]}, [], "predictors"),
        ("simulate", {"latents": ["Linear", "Nope"]}, [], "latents"),
    ])
    def test_bad_config_value_is_a_config_error(self, tmp_path, capsys,
                                                 monkeypatch, command, bad,
                                                 flags, key):
        def run(*args, **kwargs):
            raise AssertionError("the analysis ran before the config was read")
        monkeypatch.setattr(cli.inference, "compare", run)
        monkeypatch.setattr(cli.sim, "run_grid", run)
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

    def test_invalid_boundary_is_a_data_error(self, tmp_path, capsys):
        # a file that reads but crosses itself: exit 3, naming the file
        bfile = tmp_path / "border.txt"
        bfile.write_text("0 0\n2 2\n2 0\n0 2\n")
        cfg = _base_config(tmp_path, boundary=str(bfile))
        del cfg["threshold"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["analyze", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and str(bfile) in err
        assert "self-intersecting" in err

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

    def test_one_profile_point_fails_before_the_data_are_read(
            self, tmp_path, capsys, monkeypatch):
        # a profile runs from one end of the boundary to the other
        def compare(*args, **kwargs):
            raise AssertionError("compare ran before the config was read")
        monkeypatch.setattr(cli.inference, "compare", compare)
        cfg = tmp_path / "cfg.json"
        # a data file that does not exist would be a data error (exit 3)
        cfg.write_text(json.dumps(_base_config(
            tmp_path, data=str(tmp_path / "no-such.csv"), profile_points=1)))
        assert cli.main(["analyze", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: config key "
                              "'profile_points': value must be an integer "
                              ">= 2")

    @pytest.mark.parametrize("command, section, key, value", [
        (command, section, key, value)
        for command, section, key, values in [
            # numpy seeds only from a non-negative integer
            ("analyze", None, "seed", [*_NOT_INTEGERS, -1]),
            ("simulate", None, "seed", [*_NOT_INTEGERS, -1]),
            # an unknown key now, so no value passes; a non-integer still fails
            ("analyze", "optimizer", "seed", _NOT_INTEGERS),
            ("analyze", "optimizer", "restarts", [*_NOT_INTEGERS, 0]),
            ("analyze", None, "mc_samples", _NOT_INTEGERS),
            ("analyze", None, "curve_grid", _NOT_INTEGERS),
            ("analyze", None, "profile_points", _NOT_INTEGERS),
            # SimConfig's own bound
            ("simulate", None, "n", [*_NOT_INTEGERS, 0, 5]),
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
        # finite, but outside the range SimConfig takes
        ("simulate", "noise_sd", 0),
        ("simulate", "threshold", 1.5),
    ], ids=["threshold-nan", "threshold-true", "value-inf",
            "effect_point-string", "effect_point-nan", "effects-inf",
            "noise_sd-false", "simulate-threshold-nan", "noise_sd-zero",
            "simulate-threshold-outside"])
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

    @pytest.mark.parametrize("predictors, response, effect_point", [
        (["x", "x"], "y", [0.0, 0.0]),
        (["x", "y"], "y", [0.0, 0.0]),
        (["y"], "y", None),
    ], ids=["repeated", "response-among-two", "response-alone"])
    def test_predictor_columns_are_distinct(
            self, tmp_path, capsys, monkeypatch, predictors, response,
            effect_point):
        def compare(*args, **kwargs):
            raise AssertionError("compare ran before the config was read")
        monkeypatch.setattr(cli.inference, "compare", compare)
        # a data file that does not exist would be a data error (exit 3)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_base_config(
            tmp_path, data=str(tmp_path / "no-such.csv"),
            predictors=predictors, response=response,
            effect_point=effect_point)))
        assert cli.main(["analyze", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: config key 'predictors'")
        assert repr(predictors[-1]) in err

    @pytest.mark.parametrize("command, section, key", [
        ("analyze", "optimizer", "tolernce"),
        ("analyze", "optimizer", "tolerance"),
        ("analyze", "optimizer", "max_iterations"),
        # the top-level seed seeds the optimizer; there is no second one
        ("analyze", "optimizer", "seed"),
        ("simulate", "optimizer", "seed"),
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

    @pytest.mark.parametrize("command, key", [
        ("analyze", "report"), ("analyze", "curves"),
        ("analyze", "density_samples"), ("simulate", "summary_json"),
        ("simulate", "summary_csv")])
    @pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
    def test_unwritable_output_fails_before_the_data_are_read(
            self, tmp_path, capsys, monkeypatch, command, key, where):
        def run(*args, **kwargs):
            raise AssertionError("the analysis ran before the config was read")
        monkeypatch.setattr(cli.inference, "compare", run)
        monkeypatch.setattr(cli.sim, "run_grid", run)
        target = {"missing-directory": tmp_path / "no-such-dir" / "out",
                  "a-directory": tmp_path}[where]
        # a data file that does not exist would be a data error (exit 3)
        cfg = _base_config(tmp_path, data=str(tmp_path / "no-such.csv"),
                           output={key: str(target)})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: config key {key!r}")

    @pytest.mark.parametrize("command, first, failing, writer", [
        ("analyze", "report", "density_samples", "write_column_atomic"),
        ("simulate", "summary_json", "summary_csv", "write_csv_atomic")])
    def test_failed_write_is_a_config_error_and_leaves_no_file(
            self, tmp_path, capsys, monkeypatch, command, first, failing,
            writer):
        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")
        monkeypatch.setattr(cli, writer, refuse)
        out = tmp_path / "out"
        out.mkdir()
        cfg = _base_config(tmp_path, latents=["Linear"], effects=[1.0], n=20,
                           repetitions=1, output={
                               first: str(out / "first"),
                               failing: str(out / "failing")})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: config key {failing!r}")
        assert "Permission denied" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_data_file_is_a_data_error(self, tmp_path, capsys,
                                                  monkeypatch, kind):
        def compare(*args, **kwargs):
            raise AssertionError("compare ran without data")
        monkeypatch.setattr(cli.inference, "compare", compare)
        data = tmp_path / "data"
        if kind == "directory":
            data.mkdir()
        else:
            data.write_bytes(b"x,y\n0.5,\xff1.0\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_base_config(tmp_path, data=str(data))))
        assert cli.main(["analyze", "--config", str(cfg)]) == 3
        assert str(data) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    @pytest.mark.parametrize("kind", ["directory", "not-utf8",
                                      "not-an-object"])
    def test_unreadable_config_file_is_a_config_error(
            self, tmp_path, capsys, monkeypatch, command, kind):
        def run(*args, **kwargs):
            raise AssertionError("the analysis ran without a config")
        monkeypatch.setattr(cli.inference, "compare", run)
        monkeypatch.setattr(cli.sim, "run_grid", run)
        cfg = tmp_path / "cfg.json"
        if kind == "directory":
            cfg.mkdir()
        elif kind == "not-utf8":
            cfg.write_bytes(b'{"seed": "\xff"}')
        else:
            cfg.write_text('["seed", 0]')
        assert cli.main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and str(cfg) in err

    def test_config_with_byte_order_mark(self, tmp_path, monkeypatch):
        class Reached(Exception):
            pass

        def compare(data, label, kernel_list, cfg, effect_point=None):
            raise Reached(data.n, label.value, cfg.restarts)
        monkeypatch.setattr(cli.inference, "compare", compare)
        cfg = tmp_path / "cfg.json"
        text = json.dumps(_base_config(tmp_path, threshold=0.25))
        cfg.write_bytes(b"\xef\xbb\xbf" + text.encode())
        with pytest.raises(Reached) as reached:
            cli.main(["analyze", "--config", str(cfg)])
        assert reached.value.args == (60, 0.25, 1)

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

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)],
                             ids=["022", "027"])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        # as open(path, "w") would make them, not mkstemp's 0600
        paths = [tmp_path / "o.json", tmp_path / "o.csv"]
        old = os.umask(umask)
        try:
            cli.write_json_atomic(str(paths[0]), {"a": 1})
            cli.write_csv_atomic(str(paths[1]), ["a"], [[1]])
        finally:
            os.umask(old)
        assert [stat.S_IMODE(p.stat().st_mode) for p in paths] == [mode] * 2

    def test_column_bytes_match_csv_writer(self, tmp_path):
        values = [0.0, -0.0, 0.1, -2.5, 1e-300, 1.5e16]
        p = tmp_path / "o.csv"
        cli.write_column_atomic(str(p), "sample", values)
        assert p.read_bytes() == _csv_writer_bytes(
            tmp_path / "want.csv", "sample", values)

    def test_json_bytes_match_json_dump(self, tmp_path):
        obj = {"a": np.float64(0.1), "b": np.int64(3), "c": np.bool_(True),
               "d": np.array([[1.5, np.nan], [-0.0, 1e-300]]),
               "e": {"f": [np.float32(2.5), float("nan"), None],
                     "g": {"h": np.inf, "i": "text"}}}
        p = tmp_path / "o.json"
        cli.write_json_atomic(str(p), obj)
        want = tmp_path / "want.json"
        with open(want, "w") as fh:
            json.dump(cli._plain(obj), fh, indent=2, allow_nan=False)
            fh.write("\n")
        assert p.read_bytes() == want.read_bytes()
        assert json.loads(p.read_text())["d"] == [[1.5, None], [-0.0, 1e-300]]

    def test_failure_leaves_no_temp(self, tmp_path):
        p = tmp_path / "o.json"
        with pytest.raises(TypeError):
            cli.write_json_atomic(str(p), {"a": object()})
        assert list(tmp_path.iterdir()) == []
