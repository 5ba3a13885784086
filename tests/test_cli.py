import json
import math

import numpy as np
import pytest

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
