import csv
import json

import pytest

from cutslab.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    ConfigError,
    main,
    parse_config,
)
from cutslab.norms import lls_slope


def _base_config(**overrides):
    cfg = {
        "problem": {"manufactured": True, "T": 1.0},
        "overlap": {
            "length": 0.25,
            "initial_left": 0.125,
            "velocity": {"mode": "constant", "value": 0.6},
        },
        "discretization": {"n0": 8, "nG": 2, "N": 3, "q": 0},
    }
    cfg.update(overrides)
    return cfg


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestParseConfig:
    def test_round_trip(self):
        problem, overlap, disc = parse_config(_base_config())
        assert problem.final_time == 1.0
        assert overlap.length == 0.25
        assert disc.n_background == 8

    def test_missing_field(self):
        cfg = _base_config()
        del cfg["overlap"]["length"]
        with pytest.raises(ConfigError):
            parse_config(cfg)

    def test_bad_velocity_mode(self):
        cfg = _base_config()
        cfg["overlap"]["velocity"]["mode"] = "wavy"
        with pytest.raises(ConfigError):
            parse_config(cfg)

    def test_invalid_discretization_becomes_config_error(self):
        cfg = _base_config()
        cfg["discretization"]["q"] = 7
        with pytest.raises(ConfigError):
            parse_config(cfg)

    @pytest.mark.parametrize("key", ["n0", "nG", "N", "q"])
    @pytest.mark.parametrize("value", [8.5, 1.0, "16", True])
    def test_non_integer_count_is_config_error(self, key, value):
        # int() used to truncate 8.5 to 8 and convert "16" and true
        cfg = _base_config()
        cfg["discretization"][key] = value
        with pytest.raises(ConfigError, match=f"discretization.{key} must be an integer"):
            parse_config(cfg)

    @pytest.mark.parametrize(
        "path",
        [
            "problem.T",
            "overlap.length",
            "overlap.initial_left",
            "overlap.velocity.value",
            "discretization.gamma",
            "discretization.omega1",
        ],
    )
    @pytest.mark.parametrize("value", [True, "0.25", None])
    def test_non_numeric_real_is_config_error(self, path, value):
        # float() used to take true as 1 and "0.25" as 0.25
        cfg = _base_config()
        *outer, key = path.split(".")
        section = cfg
        for name in outer:
            section = section[name]
        section[key] = value
        with pytest.raises(ConfigError, match=f"{path} must be a number, got {value!r}"):
            parse_config(cfg)

    @pytest.mark.parametrize("path", ["problem.T", "overlap.length", "discretization.gamma"])
    def test_integer_beyond_float_range_is_config_error(self, path):
        # float(10**400) raises OverflowError, which escaped as a traceback
        cfg = _base_config()
        section, key = path.split(".")
        cfg[section][key] = 10**400
        with pytest.raises(ConfigError, match=f"{path} must be finite"):
            parse_config(cfg)

    @pytest.mark.parametrize("path", ["problem.T", "discretization.gamma"])
    def test_integer_real_is_a_float(self, path):
        # a JSON integer is a number: "T": 1 solves at T = 1.0
        cfg = _base_config()
        section, key = path.split(".")
        cfg[section][key] = 1
        problem, _, disc = parse_config(cfg)
        value = problem.final_time if section == "problem" else disc.gamma
        assert value == 1.0 and isinstance(value, float)

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_non_boolean_manufactured_is_config_error(self, value):
        # bool("false") is True: the string selected the manufactured problem
        cfg = _base_config(problem={"manufactured": value, "T": 1.0})
        with pytest.raises(ConfigError, match="problem.manufactured must be true or false"):
            parse_config(cfg)

    def test_sin_demo_velocity(self):
        cfg = _base_config()
        cfg["overlap"]["velocity"] = {"mode": "sin_demo", "value": 0.5}
        _, overlap, _ = parse_config(cfg)
        assert callable(overlap.velocity)
        assert overlap.velocity(0.75) == pytest.approx(0.5)


class TestMainSolve:
    def test_writes_artifacts(self, tmp_path):
        cfg_path = _write(tmp_path, _base_config())
        out = tmp_path / "out"
        rc = main(["solve", str(cfg_path), "--output-dir", str(out), "--quiet"])
        assert rc == 0
        assert (out / "solution.csv").exists()
        assert (out / "geometry.csv").exists()
        with open(out / "geometry.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        # piecewise-linear interface path is continuous across slabs
        for a, b in zip(rows[:-1], rows[1:]):
            assert float(a["a_end"]) == pytest.approx(float(b["a_start"]))

    def test_stationary_interface_columns_constant(self, tmp_path):
        cfg = _base_config()
        cfg["overlap"]["velocity"] = {"mode": "constant", "value": 0.0}
        cfg_path = _write(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["solve", str(cfg_path), "--output-dir", str(out), "--quiet"]) == 0
        with open(out / "geometry.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["a_start"]) == 0.125 for r in rows)
        assert all(float(r["a_end"]) == 0.125 for r in rows)

    def test_zero_problem_zero_samples(self, tmp_path):
        cfg = _base_config()
        cfg["problem"]["manufactured"] = False
        cfg_path = _write(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["solve", str(cfg_path), "--output-dir", str(out), "--quiet"]) == 0
        with open(out / "solution.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(abs(float(r["u"])) < 1e-13 for r in rows)

    def test_deterministic_output(self, tmp_path):
        cfg_path = _write(tmp_path, _base_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["solve", str(cfg_path), "--output-dir", str(out1), "--quiet"])
        main(["solve", str(cfg_path), "--output-dir", str(out2), "--quiet"])
        assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()


class TestMainConverge:
    def test_k_sweep_writes_csv_and_summary(self, tmp_path):
        cfg = _base_config()
        cfg["study"] = {"sweep": "k", "resolutions": [4, 8, 16], "reference_slope": 0.5}
        cfg_path = _write(tmp_path, cfg)
        out = tmp_path / "conv"
        rc = main(
            ["converge", str(cfg_path), "--output-dir", str(out), "--quiet", "--workers", "1"]
        )
        assert rc == 0
        with open(out / "convergence.csv") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
            assert reader.fieldnames[:6] == [
                "resolution",
                "k",
                "h0",
                "hG",
                "error_x",
                "error_b",
            ]
        assert [int(r["resolution"]) for r in rows] == [4, 8, 16]
        errs = [float(r["error_x"]) for r in rows]
        assert errs[2] < errs[0]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["sweep"] == "k"
        assert summary["n_ok"] == 3
        assert (out / "convergence.svg").read_text().startswith("<svg")

    def test_h_sweep_scales_overlap_mesh(self, tmp_path):
        cfg = _base_config()
        cfg["discretization"]["N"] = 64
        cfg["study"] = {"sweep": "h", "resolutions": [8, 16]}
        cfg_path = _write(tmp_path, cfg)
        out = tmp_path / "conv"
        rc = main(
            ["converge", str(cfg_path), "--output-dir", str(out), "--quiet", "--workers", "1"]
        )
        assert rc == 0
        with open(out / "convergence.csv") as fh:
            rows = list(csv.DictReader(fh))
        # nG tracks n0 * overlap length: 8 -> 2 cells, 16 -> 4 cells
        assert float(rows[0]["hG"]) == pytest.approx(0.125)
        assert float(rows[1]["hG"]) == pytest.approx(0.0625)

    def test_h_sweep_without_overlap_length_is_config_error(self, tmp_path, capsys):
        cfg = _base_config()
        del cfg["overlap"]["length"]
        cfg["study"] = {"sweep": "h", "resolutions": [8, 16]}
        cfg_path = _write(tmp_path, cfg)
        out = tmp_path / "conv"
        rc = main(
            ["converge", str(cfg_path), "--output-dir", str(out), "--quiet", "--workers", "1"]
        )
        assert rc == EXIT_CONFIG
        assert "config error: missing field overlap.length" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "study, message",
        [
            ({"sweep": "k", "resolutions": ["x", 4]}, "study.resolutions must be integers"),
            ({"sweep": "k", "resolutions": [4, 8.5]}, "study.resolutions must be integers"),
            (
                {"sweep": "k", "resolutions": [4, 8], "fit_window": [1, 1.5]},
                "study.fit_window must be two integers",
            ),
            (
                {"sweep": "k", "resolutions": [4, 8], "fit_window": [1, 5]},
                "study.fit_window [1, 5] needs 1 <= i < j <= 2",
            ),
            (
                {"sweep": "k", "resolutions": [4, 8, 4]},
                "study.resolutions must not repeat, got [4, 8, 4]",
            ),
            (
                {"sweep": "k", "resolutions": [4, 8], "reference_slope": "1"},
                "study.reference_slope must be a number, got '1'",
            ),
        ],
        ids=[
            "non_integer_resolution",
            "fractional_resolution",
            "fractional_fit_window",
            "fit_window_beyond_resolutions",
            "repeated_resolution",
            "string_reference_slope",
        ],
    )
    def test_bad_study_is_config_error_before_any_solve(
        self, tmp_path, capsys, monkeypatch, study, message
    ):
        solves = []
        monkeypatch.setattr("cutslab.cli._run_entry", lambda job: solves.append(job))
        cfg = _base_config(study=study)
        cfg_path = _write(tmp_path, cfg)
        out = tmp_path / "conv"
        rc = main(
            ["converge", str(cfg_path), "--output-dir", str(out), "--quiet", "--workers", "1"]
        )
        assert rc == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert solves == []
        assert not out.exists()

    def test_fit_window_runs_over_sorted_resolutions(self, tmp_path):
        cfg = _base_config()
        cfg["study"] = {"sweep": "k", "resolutions": [16, 4, 8], "fit_window": [1, 2]}
        out = tmp_path / "conv"
        cfg_path = _write(tmp_path, cfg)
        rc = main(
            ["converge", str(cfg_path), "--output-dir", str(out), "--quiet", "--workers", "1"]
        )
        assert rc == 0
        with open(out / "convergence.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["resolution"]) for r in rows] == [4, 8, 16]
        summary = json.loads((out / "summary.json").read_text())
        points = [(float(r["k"]), float(r["error_x"])) for r in rows[:2]]
        assert summary["slope"] == pytest.approx(lls_slope(points), rel=1e-12)

    @staticmethod
    def _sin_demo_sweep(tmp_path, window, capsys):
        # an interface starting at 0.35 and swinging right at amplitude 0.5
        # reaches the boundary with 2 and 4 slabs, and stays inside with 8 and 16
        cfg = _base_config()
        cfg["overlap"]["initial_left"] = 0.35
        cfg["overlap"]["velocity"] = {"mode": "sin_demo", "value": 0.5}
        cfg["study"] = {"sweep": "k", "resolutions": [2, 4, 8, 16], "fit_window": window}
        out = tmp_path / "conv"
        cfg_path = _write(tmp_path, cfg)
        rc = main(
            ["converge", str(cfg_path), "--output-dir", str(out), "--quiet", "--workers", "1"]
        )
        with open(out / "convergence.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["resolution"]) for r in rows] == [8, 16]
        return rc, out, rows, capsys.readouterr().err

    def test_failed_entry_inside_fit_window_fails_the_fit(self, tmp_path, capsys):
        rc, out, _, err = self._sin_demo_sweep(tmp_path, [1, 3], capsys)
        assert rc == EXIT_NUMERICAL
        assert "fit failed: resolutions [2, 4] in the fit window [1, 3] failed" in err
        assert "Traceback" not in err
        assert not (out / "summary.json").exists()

    def test_fit_window_clear_of_failures_gets_its_slope(self, tmp_path, capsys):
        rc, out, rows, err = self._sin_demo_sweep(tmp_path, [3, 4], capsys)
        assert rc == EXIT_NUMERICAL  # the failed entries still fail the study
        assert err == ""
        summary = json.loads((out / "summary.json").read_text())
        points = [(float(r["k"]), float(r["error_x"])) for r in rows]
        assert summary["slope"] == pytest.approx(lls_slope(points), rel=1e-12)
        assert (summary["n_ok"], summary["n_failed"]) == (2, 2)

    def test_zero_errors_fail_the_fit_without_traceback(self, tmp_path, capsys):
        cfg = _base_config(problem={"manufactured": False, "T": 1.0})
        cfg["study"] = {"sweep": "k", "resolutions": [2, 4]}
        cfg_path = _write(tmp_path, cfg)
        out = tmp_path / "conv"
        rc = main(
            ["converge", str(cfg_path), "--output-dir", str(out), "--quiet", "--workers", "1"]
        )
        assert rc == EXIT_NUMERICAL
        assert "fit failed: resolutions and errors must be positive" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_geometry_violation_exit_code(self, tmp_path):
        cfg = _base_config()
        cfg["overlap"]["velocity"] = {"mode": "constant", "value": -0.4}
        cfg["study"] = {"sweep": "k", "resolutions": [2, 4]}
        cfg_path = _write(tmp_path, cfg)
        out = tmp_path / "conv"
        rc = main(
            ["converge", str(cfg_path), "--output-dir", str(out), "--quiet", "--workers", "1"]
        )
        assert rc == EXIT_NUMERICAL


class TestMainErrors:
    def test_missing_file(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json"), "--quiet"]) == EXIT_CONFIG

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["solve", str(path), "--quiet"]) == EXIT_CONFIG

    def test_config_error_exit(self, tmp_path):
        cfg = _base_config()
        del cfg["discretization"]
        cfg_path = _write(tmp_path, cfg)
        assert main(["solve", str(cfg_path), "--quiet"]) == EXIT_CONFIG

    def test_fractional_count_exits_with_config_error(self, tmp_path, capsys):
        # used to solve at n0 = 8 and exit 0
        cfg = _base_config()
        cfg["discretization"]["n0"] = 8.5
        assert main(["solve", str(_write(tmp_path, cfg)), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: discretization.n0 must be an integer, got 8.5" in err

    def test_boolean_final_time_exits_with_config_error(self, tmp_path, capsys):
        # used to solve at T = 1 and exit 0
        cfg = _base_config(problem={"T": True})
        out = tmp_path / "out"
        rc = main(["solve", str(_write(tmp_path, cfg)), "--output-dir", str(out), "--quiet"])
        assert rc == EXIT_CONFIG
        assert "config error: problem.T must be a number, got True" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_initial_left_is_config_error(self, tmp_path):
        cfg = _base_config()
        cfg["overlap"]["initial_left"] = float("nan")
        cfg_path = _write(tmp_path, cfg)
        assert "NaN" in cfg_path.read_text(encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["solve", str(cfg_path), "--output-dir", str(out), "--quiet"])
        assert rc == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "section,key,value",
        [("problem", "T", 1e400), ("problem", "T", float("nan")), ("velocity", "value", 1e400)],
    )
    def test_non_finite_problem_or_velocity_is_config_error(
        self, tmp_path, capsys, section, key, value
    ):
        # T = 1e400 parses as inf; it used to fail inside assembly with an
        # IndexError traceback and exit 1
        cfg = _base_config()
        if section == "velocity":
            cfg["overlap"]["velocity"] = {"mode": "sin_demo", "value": value}
        else:
            cfg[section][key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg).replace("Infinity", "1e400"), encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["solve", str(path), "--output-dir", str(out), "--quiet"])
        assert rc == EXIT_CONFIG
        assert not out.exists()
        field = {"T": "final_time", "value": "overlap.velocity.value"}[key]
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "converge"])
    def test_top_level_list_is_config_error(self, tmp_path, capsys, monkeypatch, command):
        # without --output-dir the output directory is read from the config
        monkeypatch.chdir(tmp_path)
        cfg_path = _write(tmp_path, [_base_config()])
        assert main([command, str(cfg_path), "--quiet"]) == EXIT_CONFIG
        assert "config error: the config must be a JSON object" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize("output", ["x", {"dir": 5}, {"dir": None}, ["out"]])
    def test_malformed_output_section_is_config_error(self, tmp_path, capsys, monkeypatch, output):
        # "x" used to raise AttributeError, and a non-string dir TypeError
        monkeypatch.chdir(tmp_path)
        cfg_path = _write(tmp_path, _base_config(output=output))
        assert main(["solve", str(cfg_path), "--quiet"]) == EXIT_CONFIG
        assert "config error: output" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_a_usage_error(self, tmp_path, capsys, workers):
        # -2 used to run the study serially
        cfg_path = _write(tmp_path, _base_config())
        with pytest.raises(SystemExit) as exc:
            main(["converge", str(cfg_path), "--quiet", "--workers", workers])
        assert exc.value.code == 2
        assert "--workers must be at least 1" in capsys.readouterr().err

    def test_solve_geometry_violation_exit(self, tmp_path):
        cfg = _base_config()
        cfg["overlap"]["velocity"] = {"mode": "constant", "value": -0.4}
        cfg_path = _write(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main(["solve", str(cfg_path), "--output-dir", str(out), "--quiet"])
        assert rc == EXIT_NUMERICAL
