import json
import math

import numpy as np
import pytest

from torque_stirap import analysis, cli, dynamics, systems
from torque_stirap.cli import ConfigError, RunConfig, main, parse_config


def read_csv(path):
    meta, header, rows, footer = [], None, [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                (footer if header else meta).append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return meta, header, np.array(rows), footer


# Reference implementations: the per-row tuple building and the per-value
# writer that the columnar output path replaced.

def reference_write_csv(path, config, header, rows, footer=None):
    lines = cli._metadata_lines(config)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(f"{v:.12g}" for v in row))
    if footer:
        lines.extend(footer)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_simulate(config, path):
    sched = config.schedule()
    field_ = systems.to_angular_velocity(config.mapping(), sched)
    traj = dynamics.integrate(
        field_, config.initial, config.grid(sched), method=config.method, rtol=config.tol
    )
    d = traj.diagnostics
    norms = np.linalg.norm(traj.states, axis=1)
    rows = [
        (
            traj.times[i],
            traj.states[i, 0],
            traj.states[i, 1],
            traj.states[i, 2],
            d.dark_variable[i],
            d.mixing_angle[i],
            norms[i],
        )
        for i in range(traj.times.size)
    ]
    header = ("t", "x", "y", "z", "dark_variable", "mixing_angle", "norm")
    reference_write_csv(path, config, header, rows)


def reference_scan(config, path):
    if config.experiment == "scan-delay":
        lo, hi, step = config.delay_min, config.delay_max, config.delay_step
        scan_fn, column = analysis.delay_scan, "tau_over_T"
    else:
        lo, hi, step = config.amp_min, config.amp_max, config.amp_step
        scan_fn, column = analysis.area_scan, "amplitude_T"
    values = lo + step * np.arange(int(round((hi - lo) / step)) + 1)
    window = None if config.window is None else (-config.window, config.window)
    scan = scan_fn(
        config.schedule(), values, config.mapping(), x0=config.initial,
        method=config.method, steps=config.steps, rtol=config.tol, window=window,
    )
    rows, failed = [], []
    for i in range(scan.row_count()):
        rows.append(
            (
                scan.values[i],
                scan.final_states[i, 0],
                scan.final_states[i, 1],
                scan.final_states[i, 2],
                scan.rms_areas[i],
                scan.norm_drift[i],
            )
        )
        if scan.errors[i] is not None:
            failed.append(
                f"# failed: {scan.parameter}={scan.values[i]:.12g}: {scan.errors[i]}"
            )
    header = (column, "vx", "vy", "vz", "rms_area", "norm_drift")
    reference_write_csv(path, config, header, rows, failed)


class TestParseConfig:
    def test_file_only(self):
        cfg = parse_config(
            '{"system": "lorentz", "b0": 20, "tau": -1.2}', {}, "simulate"
        )
        assert cfg.system == "lorentz"
        assert cfg.b0 == 20.0
        assert cfg.tau == -1.2
        assert cfg.experiment == "simulate"

    def test_flags_match_file(self):
        from_file = parse_config(
            '{"system": "lorentz", "b0": 20, "tau": -1.2}', {}, "simulate"
        )
        from_flags = parse_config(
            None, {"system": "lorentz", "b0": 20.0, "tau": -1.2}, "simulate"
        )
        assert from_file == from_flags

    def test_flags_override_file(self):
        cfg = parse_config('{"b0": 20}', {"b0": 35.0}, "simulate")
        assert cfg.b0 == 35.0

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config('{"b0": 20, "b0": 30}', {}, "simulate")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config('{"bananas": 1}', {}, "simulate")

    def test_missing_value_reports_key(self):
        with pytest.raises(ConfigError, match="'b0'"):
            parse_config('{"b0": "twenty"}', {}, "simulate")

    def test_malformed_json_reports_location(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config('{"b0": 20,,}', {}, "simulate")

    def test_experiment_defaults(self):
        assert parse_config(None, {}, "scan-delay").b0 == 40.0
        assert parse_config(None, {}, "scan-area").tau == 1.2
        assert parse_config(None, {}, "simulate").b0 == 20.0

    def test_zero_initial_rejected(self):
        with pytest.raises(ConfigError, match="nonzero"):
            parse_config('{"initial": [0, 0, 0]}', {}, "simulate")

    def test_out_path_defaults(self):
        assert parse_config(None, {}, "verify").out_path == "verify_summary.json"
        assert RunConfig(experiment="simulate").out_path == "simulate.csv"


class TestSimulateCommand:
    def test_reference_csv(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main(
            ["simulate", "--system", "lorentz", "--b0", "20", "--tau", "-1.2",
             "--out", str(out)]
        )
        assert code == 0
        meta, header, rows, footer = read_csv(out)
        assert header == ["t", "x", "y", "z", "dark_variable", "mixing_angle", "norm"]
        assert any("units: time in T" in m for m in meta)
        assert abs(rows[-1, 1]) > 0.99  # final |x|
        assert rows[0, 3] == pytest.approx(1.0)  # starts on z
        assert np.all(np.abs(rows[:, 6] - 1.0) < 1e-6)  # norm column
        assert not footer

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["simulate", "--b0", "12.5", "--tau", "-0.7",
                         "--steps", "512", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_run(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(
            json.dumps({"system": "lorentz", "b0": 20, "tau": -1.2, "steps": 1024})
        )
        out = tmp_path / "run.csv"
        code = main(["simulate", "--config", str(cfgfile), "--out", str(out)])
        assert code == 0
        _, _, rows, _ = read_csv(out)
        assert rows.shape == (1025, 7)

    def test_window_flag(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["simulate", "--b0", "5", "--tau", "-1.2", "--steps", "128",
                     "--window", "4.0", "--out", str(out)]) == 0
        _, _, rows, _ = read_csv(out)
        assert rows[0, 0] == pytest.approx(-4.0)
        assert rows[-1, 0] == pytest.approx(4.0)

    def test_adaptive_method_simulate(self, tmp_path):
        out = tmp_path / "adaptive.csv"
        code = main(["simulate", "--b0", "20", "--tau", "-1.2",
                     "--method", "adaptive", "--steps", "256", "--out", str(out)])
        assert code == 0
        _, _, rows, _ = read_csv(out)
        assert rows.shape == (257, 7)
        assert abs(rows[-1, 1]) > 0.99
        assert np.all(np.abs(rows[:, 6] - 1.0) < 1e-6)

    def test_asymmetric_amplitudes_from_config(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(
            {"b0": 10.0, "s_b0": 20.0, "tau": -1.2, "steps": 256}
        ))
        out = tmp_path / "asym.csv"
        assert main(["simulate", "--config", str(cfgfile), "--out", str(out)]) == 0
        meta, _, rows, _ = read_csv(out)
        assert any('"s_b0": 20.0' in m for m in meta)
        # transfer still completes with unequal peaks
        assert abs(rows[-1, 1]) > 0.99

    def test_empty_config_file_plus_flags(self, tmp_path):
        cfgfile = tmp_path / "empty.json"
        cfgfile.write_text("")
        out = tmp_path / "e.csv"
        assert main(["simulate", "--config", str(cfgfile), "--b0", "5",
                     "--tau", "-1.2", "--steps", "128", "--out", str(out)]) == 0

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text('{"nope": 1}')
        assert main(["simulate", "--config", str(cfgfile)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_infinite_b0_rejected(self, tmp_path, capsys):
        out = tmp_path / "inf.csv"
        assert main(["simulate", "--b0", "inf", "--steps", "64", "--out", str(out)]) == 2
        assert "error: b0 must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_b0_rejected(self, tmp_path, capsys):
        out = tmp_path / "neg.csv"
        assert main(["simulate", "--b0", "-1", "--steps", "64", "--out", str(out)]) == 2
        assert "error: b0 must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_tau_rejected(self, tmp_path, capsys):
        out = tmp_path / "nan.csv"
        assert main(["simulate", "--tau", "nan", "--steps", "64", "--out", str(out)]) == 2
        assert "error: tau must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_in_config_file_rejected(self, tmp_path, capsys):
        # JSON parsers accept the NaN and Infinity literals
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text('{"delay_step": NaN, "s_b0": Infinity}')
        assert main(["scan-delay", "--config", str(cfgfile)]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["rk4", "rotation", "adaptive"])
    def test_overflowing_field_fails_cleanly(self, tmp_path, capsys, method):
        # finite but so strong that the integration overflows
        out = tmp_path / "big.csv"
        assert main(["simulate", "--b0", "1e200", "--method", method,
                     "--steps", "64", "--out", str(out)]) == 1
        assert "error: non-finite state at t=" in capsys.readouterr().err
        assert not out.exists()


class TestScanCommands:
    def test_default_delay_grid_has_241_rows(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(
            ["scan-delay", "--method", "rotation", "--steps", "512", "--out", str(out)]
        )
        assert code == 0
        _, header, rows, _ = read_csv(out)
        assert header == ["tau_over_T", "vx", "vy", "vz", "rms_area", "norm_drift"]
        assert rows.shape[0] == 241
        assert rows[0, 0] == pytest.approx(-3.0)
        assert rows[-1, 0] == pytest.approx(3.0)

    def test_scan_delay_rerun_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"delay_min": -1.0, "delay_max": 1.0, "delay_step": 0.25,
             "steps": 512, "method": "rotation"}
        ))
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["scan-delay", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_failed_rows_flagged_in_footer(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"delay_min": -1.2, "delay_max": 1.2, "delay_step": 2.4,
             "steps": 64, "method": "adaptive", "tol": 1e-18}
        ))
        out = tmp_path / "bad.csv"
        code = main(["scan-delay", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        _, header, rows, footer = read_csv(out)
        assert rows.shape[0] == 2
        assert np.all(np.isnan(rows[:, 1:4]))
        assert len(footer) == 2
        assert all("stiffness/accuracy failure" in line for line in footer)

    @pytest.mark.parametrize("experiment, settings", [
        ("scan-delay", {"delay_step": 1e-12}),
        ("scan-area", {"amp_min": -1e308, "amp_max": 1e308, "amp_step": 1.0}),
        ("scan-delay", {"delay_min": 1.0, "delay_max": -1.0}),
    ])
    def test_oversized_scan_rejected(self, tmp_path, capsys, experiment, settings):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        out = tmp_path / "huge.csv"
        assert main([experiment, "--config", str(cfg), "--out", str(out)]) == 2
        assert "error: scan " in capsys.readouterr().err
        assert not out.exists()

    def test_scan_point_cap_boundary(self):
        assert cli._value_grid(0.0, 99_999.0, 1.0).size == cli.MAX_SCAN_POINTS
        with pytest.raises(ConfigError, match="more than 100000 points"):
            cli._value_grid(0.0, 100_000.0, 1.0)

    def test_scan_area_columns(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"amp_min": 35.0, "amp_max": 36.0, "amp_step": 0.5,
             "steps": 1024, "method": "rotation"}
        ))
        out = tmp_path / "area.csv"
        assert main(["scan-area", "--config", str(cfg), "--out", str(out)]) == 0
        _, header, rows, _ = read_csv(out)
        assert header == ["amplitude_T", "vx", "vy", "vz", "rms_area", "norm_drift"]
        assert rows.shape[0] == 3
        # rms area scales linearly with amplitude at fixed shape
        assert rows[1, 4] / rows[0, 4] == pytest.approx(35.5 / 35.0, rel=1e-9)

    def test_window_flag_applies_to_scans(self, tmp_path):
        # adaptive keeps the error tolerance-limited, so widening the window
        # must not change the settled final state
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"delay_min": -0.5, "delay_max": 0.5, "delay_step": 0.5,
             "steps": 128, "method": "adaptive"}
        ))
        out = tmp_path / "w.csv"
        assert main(["scan-delay", "--config", str(cfg), "--window", "9.0",
                     "--out", str(out)]) == 0
        _, _, rows, _ = read_csv(out)
        base = tmp_path / "base.csv"
        assert main(["scan-delay", "--config", str(cfg), "--out", str(base)]) == 0
        _, _, rows0, _ = read_csv(base)
        assert np.allclose(rows[:, 1:4], rows0[:, 1:4], atol=1e-6)


def _log_uniform_table():
    rng = np.random.default_rng(2024)
    mags = 10.0 ** rng.uniform(-320.0, 308.0, 10**5)
    return (rng.choice([-1.0, 1.0], mags.size) * mags).reshape(-1, 5)


_SPECIAL_VALUES = np.array([[
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
    1e300, -1e300, 1e-300, -1e-300, 1.0 / 3.0,
]])


class TestColumnarCsv:
    @pytest.mark.parametrize("table", [_SPECIAL_VALUES, _log_uniform_table()],
                             ids=["special", "log-uniform"])
    def test_formatting_matches_per_value_writer(self, tmp_path, capsys, table):
        config = RunConfig(experiment="simulate")
        header = [f"c{k}" for k in range(table.shape[1])]
        footer = ["# failed: delay=0: reason"]
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        cli._write_csv(new, config, header, table, footer)
        reference_write_csv(ref, config, header, table, footer)
        assert new.read_bytes() == ref.read_bytes()
        assert f"({table.shape[0]} rows)" in capsys.readouterr().out

    @pytest.mark.parametrize("experiment, settings", [
        ("simulate", {"steps": 1500}),
        ("simulate", {"method": "rotation", "system": "coriolis", "b0": 13.3,
                      "steps": 1000}),
        ("simulate", {"method": "adaptive", "steps": 700}),
        ("scan-delay", {"delay_min": -2.0, "delay_max": 2.0, "delay_step": 0.5,
                        "steps": 512}),
        ("scan-area", {"amp_min": 33.4, "amp_max": 35.4, "amp_step": 0.25,
                       "method": "rotation", "steps": 512}),
        # rows whose numeric cells are NaN, and a footer of failures
        ("scan-delay", {"delay_min": -1.2, "delay_max": 1.2, "delay_step": 1.2,
                        "method": "adaptive", "tol": 1e-18, "steps": 64}),
    ], ids=["rk4", "rotation", "adaptive", "scan-delay", "scan-area", "failed-rows"])
    def test_cli_csv_matches_reference(self, tmp_path, experiment, settings):
        out, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
        config = parse_config(json.dumps(dict(settings, out=str(out))), {}, experiment)
        code = cli.run(config)
        if experiment == "simulate":
            reference_simulate(config, ref)
        else:
            reference_scan(config, ref)
        assert out.read_bytes() == ref.read_bytes()
        text = out.read_text()
        failed = text.count("# failed:")
        assert code == (1 if failed else 0)
        if "tol" in settings:
            assert failed == 3 and "\n0,nan,nan,nan,nan,nan\n" in text


class TestVerifyCommand:
    def test_verify_passes_and_writes_summary(self, tmp_path, capsys):
        out = tmp_path / "summary.json"
        code = main(["verify", "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "PASS" in captured and "FAIL" not in captured
        summary = json.loads(out.read_text())
        assert summary["all_passed"] is True
        names = {c["name"] for c in summary["checks"]}
        assert {
            "cross_solver_max_diff",
            "adapter_equivalence_max_diff",
            "rk4_convergence_order",
            "adaptive_error_over_tolerance",
            "rotation_norm_drift",
            "rk4_norm_drift",
            "time_reversal_roundtrip",
            "scaling_invariance",
            "eigen_residuals",
            "dark_variable_constancy",
            "delay_sign_symmetry",
        } <= names
        for check in summary["checks"]:
            assert check["passed"] is True
            assert math.isfinite(check["value"])
