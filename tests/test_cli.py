import csv
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from selfmix import cli, diode
from selfmix.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_module(args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120,
                          **kwargs)


def run(args):
    return main(args)


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


class TestArrayFactorCommand:
    def test_headers_carry_units(self, tmp_path):
        out = tmp_path / "af.csv"
        assert run(["array-factor", "--out", str(out), "--quiet"]) == 0
        header, rows = read_csv(out)
        assert header == ["theta_deg", "phi_deg", "af_if", "af_rf",
                          "af_if_db", "af_rf_db"]
        assert len(rows) == 721  # 0.25 deg steps over +/-90

    def test_single_element_gives_unity_if_factor(self, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text("nx = 1\nny = 1\n")
        out = tmp_path / "af.csv"
        assert run(["array-factor", "--config", str(cfg),
                    "--out", str(out), "--quiet"]) == 0
        _, rows = read_csv(out)
        assert all(float(r[2]) == 1.0 for r in rows)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# reference layout\nf1_hz = 37.5e9\nf2_hz = 38.5e9\n")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run(["array-factor", "--config", str(cfg), "--out", str(out1),
                    "--quiet"]) == 0
        assert run(["array-factor", "--config", str(cfg), "--out", str(out2),
                    "--quiet"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_if_beamwidth_dominates_rf_in_output(self, tmp_path):
        out = tmp_path / "af.csv"
        assert run(["array-factor", "--out", str(out), "--quiet"]) == 0
        _, rows = read_csv(out)
        theta = np.array([float(r[0]) for r in rows])
        af_if = np.array([float(r[2]) for r in rows])
        af_rf = np.array([float(r[3]) for r in rows])
        floor = 1.0 / np.sqrt(2.0)
        centre = int(np.argmin(np.abs(theta)))

        def main_lobe_width(af):
            # walk outward from broadside while staying above -3 dB
            right = centre
            while right + 1 < theta.size and af[right + 1] >= floor:
                right += 1
            left = centre
            while left - 1 >= 0 and af[left - 1] >= floor:
                left -= 1
            return theta[right] - theta[left]

        assert main_lobe_width(af_if) / main_lobe_width(af_rf) > 10.0

    def test_geometry_file_input(self, tmp_path):
        geo = tmp_path / "layout.txt"
        geo.write_text("0 0\n0.032 0 180\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"geometry_file = {geo}\n")
        out = tmp_path / "af.csv"
        assert run(["array-factor", "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 0
        _, rows = read_csv(out)
        broadside = [r for r in rows if float(r[0]) == 0.0][0]
        # the 180 degree feed offset nulls the RF combination at broadside
        # but the IF factor is untouched
        assert float(broadside[2]) == 1.0
        assert float(broadside[3]) < 1e-9


class TestConfigHandling:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp_factor = 9\n")
        assert run(["array-factor", "--config", str(cfg),
                    "--out", str(tmp_path / "x.csv")]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_bias_sweep_has_no_chain_bias_key(self, tmp_path, capsys):
        # the sweep biases every row at its grid voltage
        cfg = tmp_path / "bias.cfg"
        cfg.write_text("bias_v = 0.65\n")
        out = tmp_path / "x.csv"
        assert run(["bias-sweep", "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 2
        assert ("config error: unknown config key(s): bias_v; allowed: "
                in capsys.readouterr().err)
        assert not out.exists()

    def test_missing_config_file_exits_2(self, tmp_path):
        assert run(["array-factor", "--config", str(tmp_path / "nope.cfg"),
                    "--out", str(tmp_path / "x.csv")]) == 2

    def test_malformed_line_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        assert run(["array-factor", "--config", str(cfg),
                    "--out", str(tmp_path / "x.csv")]) == 2

    def test_missing_out_exits_2(self):
        assert run(["array-factor", "--quiet"]) == 2

    @pytest.mark.parametrize("command, line", [
        ("diode-iv", "saturation_current_a = nan"),
        ("diode-iv", "series_resistance_ohm = inf"),
        ("array-factor", "f1_hz = nan"),
    ])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "x.csv"
        assert run([command, "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "must be finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, text, grid", [
        ("array-factor", "theta_step_deg = 1e-9", "theta"),
        ("pattern", "theta_step_deg = 1e-320", "theta"),
        ("diode-iv", "v_step_v = 1e-12", "voltage"),
        ("bias-sweep", "bias_step_v = 1e-9", "bias"),
        ("bias-sweep", "power_step_dbm = 1e-9", "power"),
        # each axis under the cap, their product over it
        ("bias-sweep", "bias_stop_v = 100\nbias_step_v = 1e-3\n"
                       "power_stop_dbm = 40\npower_step_dbm = 1",
         "bias x power"),
        # the same with the long axis on power
        ("bias-sweep", "power_start_dbm = -100\npower_stop_dbm = 100\n"
                       "power_step_dbm = 1e-3\nbias_step_v = 0.01",
         "bias x power"),
        ("spectrum", "band_tone_count = 1000001", "band tone"),
        ("array-factor", "nx = 100000\nny = 100000", "element"),
        ("pattern", "nx = 100000\nny = 100000", "element"),
        # elements and directions each under the cap; a layout that is not
        # a product is summed, and directions x elements is over the cap
        ("array-factor", "DIAGONAL\ntheta_step_deg = 1e-3",
         "array-factor phase"),
        ("pattern", "DIAGONAL\ntheta_step_deg = 1e-3", "array-factor phase"),
    ])
    def test_grid_over_cap_exits_2(self, tmp_path, capsys, command, text,
                                   grid):
        geo = tmp_path / "diagonal.txt"
        geo.write_text("".join(f"{k * 0.01} {k * 0.01}\n"
                               for k in range(600)))
        cfg = tmp_path / "big.cfg"
        cfg.write_text(text.replace("DIAGONAL", f"geometry_file = {geo}")
                       + "\n")
        out = tmp_path / "x.csv"
        assert run([command, "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"config error: {grid} grid would have" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, text, message", [
        ("diode-iv", "ideality = 5", "ideality must lie in [1, 3]"),
        # named by the config key, not the library field
        ("bias-sweep", "if_load_ohm = 0", "if_load_ohm must be positive"),
        ("bias-sweep", "source_impedance_ohm = 0",
         "source_impedance_ohm must be positive"),
        ("array-factor", "nx = 0", "shape (N, 2)"),
        ("array-factor", "GEOMETRY\n", "elements 0 and 1 coincide"),
        # the element pattern and its cut
        ("pattern", "cos_exponent = -1", "cos_q pattern needs q >= 0"),
        ("pattern", "element_kind = two_beam\nbeam_tilt_deg = 95",
         "needs 0 < tilt < pi/2"),
        ("pattern", "element_kind = two_beam\nbeam_width_deg = 0",
         "needs width > 0"),
        ("pattern", "element_kind = two_beam\nbeam_width_deg = 1e-200",
         "needs width > 0"),  # its square underflows to 0
        ("pattern", "element_kind = two_beam\nbeam_width_deg = 0.001\n"
                    "beam_tilt_deg = 30.1",
         "cannot normalize an all-zero pattern"),
        ("pattern", "element_kind = pencil",
         "unknown element_kind 'pencil' (isotropic, cos_q, two_beam)"),
        ("pattern", "theta_start_deg = -100", "within [-pi/2, pi/2]"),
        ("pattern", "theta_start_deg = 0\ntheta_stop_deg = 1\n"
                    "theta_step_deg = 1", "at least 3 samples"),
        # malformed pattern files, named by file and line
        ("pattern", "pattern_file_1 = TMP/one_cell.csv\n"
                    "pattern_file_2 = TMP/one_cell.csv",
         "one_cell.csv:2: expected theta_deg,gain_db, got ['-10']"),
        ("pattern", "pattern_file_1 = TMP/huge_gain.csv\n"
                    "pattern_file_2 = TMP/huge_gain.csv",
         "huge_gain.csv:2: gain_db 1e6 is past the float range"),
        # link parameters, and the default efficiency table's frequencies
        ("link-budget", "distance_m = 0", "distance_m must be positive"),
        ("link-budget", "eta1_db = 1", "eta1_db must be <= 0"),
        ("link-budget", "eta2_db = 0.5", "eta2_db must be <= 0"),
        ("link-budget", "f1_hz = 35e9", "no default total efficiency"),
        # named by the config key that would supply it
        ("link-budget", "f1_hz = 34.5e9",
         "no default total efficiency for 34500000000.0 Hz; set eta1_db"),
        ("link-budget", "f2_hz = 40e9",
         "no default total efficiency for 40000000000.0 Hz; set eta2_db"),
    ])
    def test_bad_model_parameter_exits_2(self, tmp_path, capsys, command,
                                         text, message):
        geo = tmp_path / "layout.txt"
        geo.write_text("0.01 0.02\n0.01 0.02 180\n")
        (tmp_path / "one_cell.csv").write_text("theta_deg,gain_db\n-10\n")
        (tmp_path / "huge_gain.csv").write_text("theta_deg,gain_db\n-10,1e6\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text.replace("GEOMETRY", f"geometry_file = {geo}")
                       .replace("TMP", str(tmp_path)) + "\n")
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run([command, "--config", str(cfg), "--out", str(out),
                        "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, text, count", [
        # one over the limit reads as one over it
        ("spectrum", "band_tone_count = 1000001", "1000001"),
        # 180 / 1.8e-4 = 999999.9999999999 steps: 1000001 points
        ("array-factor", "theta_step_deg = 1.8e-4", "1000001"),
        ("array-factor", "theta_step_deg = 1e-320", "inf"),
    ])
    def test_grid_count_over_cap_is_exact(self, tmp_path, capsys, command,
                                          text, count):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(text + "\n")
        assert run([command, "--config", str(cfg), "--out",
                    str(tmp_path / "x.csv"), "--quiet"]) == 2
        assert capsys.readouterr().err.endswith(
            f"grid would have {count} points; the limit is 1000000\n")

    def test_grid_at_the_cap_is_accepted(self, tmp_path, monkeypatch):
        # 9.4 steps round to a grid of exactly 10 points: the count that is
        # built is the count that is capped
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 10)
        cfg = tmp_path / "cap.cfg"
        cfg.write_text("v_start_v = 0\nv_stop_v = 9.4e-6\nv_step_v = 1e-6\n")
        out = tmp_path / "iv.csv"
        assert run(["diode-iv", "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 0
        assert len(read_csv(out)[1]) == 10

    def test_geometry_file_over_cap_exits_2(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 3)
        geo = tmp_path / "layout.txt"
        geo.write_text("# four elements\n0 0\n0.03 0\n\n0 0.03\n0.03 0.03\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"geometry_file = {geo}\n")
        out = tmp_path / "x.csv"
        assert run(["array-factor", "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "element grid would have 4 points; the limit is 3" in err
        assert not out.exists()

    def test_geometry_file_capped_before_later_lines_parse(
            self, tmp_path, capsys, monkeypatch):
        # the element count is checked before any line is parsed, so the
        # malformed sixth line is never reached
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 3)
        geo = tmp_path / "layout.txt"
        geo.write_text("".join(f"{k * 0.03} 0\n" for k in range(5))
                       + "0.3 0.3 0.3 0.3\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"geometry_file = {geo}\n")
        out = tmp_path / "x.csv"
        assert run(["array-factor", "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "element grid would have 6 points; the limit is 3" in err
        assert "geometry line" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, text", [
        ("bias-sweep", "f1_hz = 38.5e9"),
        ("bias-sweep", "f1_hz = 0"),
        ("bias-sweep", "f2_hz = -1e9"),
        ("bias-sweep", "f2_hz = 0"),
        # equal tones: a zero spacing, so no IF
        ("bias-sweep", "f2_hz = 37.5e9"),
        # snaps to 0 Hz on the default 1e8 Hz grid
        ("spectrum", "carrier_freq_hz = 1e7"),
        ("spectrum", "band_amp_v = -1"),
        # 37.5e9 / 1e-320 Hz steps is past the float range
        ("spectrum", "frequency_grid_hz = 1e-320"),
    ])
    def test_bad_tone_config_exits_2(self, tmp_path, capsys, command, text):
        cfg = tmp_path / "tones.cfg"
        cfg.write_text(text + "\n")
        out = tmp_path / "x.csv"
        assert run([command, "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err
        assert not out.exists()

    def test_product_cut_capped_by_its_factorised_work(self, tmp_path):
        # 10^6 elements x 181 directions, but a grid cut costs
        # directions x (nx + ny) phases: well under the cap
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("nx = 1000\nny = 1000\ntheta_step_deg = 1\n")
        out = tmp_path / "x.csv"
        assert run(["array-factor", "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 0
        assert len(out.read_text().splitlines()) == 1 + 181

    def test_overflowing_phases_exit_3(self, tmp_path, capsys):
        # finite positions whose phases overflow to inf: no NaN columns
        cfg = tmp_path / "far.cfg"
        cfg.write_text("nx = 2\nny = 1\ndx_m = 1e308\nphi_cut_deg = 0\n")
        out = tmp_path / "x.csv"
        assert run(["array-factor", "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "array factor is not finite" in err
        assert not out.exists()

    def test_pattern_overflowing_phases_exit_3(self, tmp_path, capsys):
        # the pattern is built from valid config; its factor cut overflows
        cfg = tmp_path / "far.cfg"
        cfg.write_text("nx = 2\nny = 1\ndx_m = 1e308\nphi_cut_deg = 0\n")
        out = tmp_path / "x.csv"
        assert run(["pattern", "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "computation error: array factor is not finite" in err
        assert not out.exists()

    def test_negligible_series_drop_solves_as_junction(self, tmp_path):
        # I_s R_s / nV_T underflows to 0: the series drop is below float
        # resolution, and the diode is its junction
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("saturation_current_a = 1e-300\n"
                       "series_resistance_ohm = 1e-300\n")
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["diode-iv", "--config", str(cfg), "--out", str(out),
                        "--quiet"]) == 0
        header, rows = read_csv(out)
        assert header[:2] == ["voltage_v", "current_a"]
        model = diode.DiodeModel(1e-300, 1.2, 0.0)
        for row in rows:
            assert float(row[1]) == pytest.approx(
                diode.junction_current(model, float(row[0])), rel=1e-8)

    def test_infinitely_wide_beam_is_flat(self, tmp_path):
        # the square of the width overflows: the pattern is flat
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("element_kind = two_beam\nbeam_width_deg = 1e300\n")
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["pattern", "--config", str(cfg), "--out", str(out),
                        "--quiet"]) == 0
        header, rows = read_csv(out)
        gains = [float(row[header.index("gain_db")]) for row in rows]
        assert rows and all(gain == 0.0 for gain in gains)

    def test_solver_overflow_stays_exit_3(self, tmp_path, capsys):
        # valid parameters whose terminal current overflows at 30 V
        cfg = tmp_path / "hot.cfg"
        cfg.write_text("saturation_current_a = 1e-300\n"
                       "series_resistance_ohm = 1e-10\nv_stop_v = 30\n")
        assert run(["diode-iv", "--config", str(cfg),
                    "--out", str(tmp_path / "x.csv"), "--quiet"]) == 3
        assert "computation error" in capsys.readouterr().err

    # each case is named by its config text
    @pytest.mark.parametrize("text, message", [
        pytest.param(text, message, id=text) for text, message in [
            ("lna_gain_db = 7000\npower_start_dbm = -40\npower_stop_dbm = -40",
             "a gain of 7000.0 dB"),
            ("power_start_dbm = 4000\npower_stop_dbm = 4000", "4000.0 dBm"),
            ("weaker_tone_offset_db = 5000\npower_start_dbm = -40\n"
             "power_stop_dbm = -40", "4960.0 dBm"),
        ]])
    def test_db_overflow_exits_3(self, tmp_path, capsys, text, message):
        # finite dB values whose linear amplitude overflows a float; the
        # message names the value
        cfg = tmp_path / "loud.cfg"
        cfg.write_text("bias_start_v = 0.6\nbias_stop_v = 0.6\n" + text
                       + "\n")
        out = tmp_path / "x.csv"
        assert run(["bias-sweep", "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"computation error: {message} overflows "
                              "the float range")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("power", ["-40", "-5000"])
    def test_bias_grid_overflow_exits_3(self, tmp_path, capsys, power):
        # driven cells solve bias plus waveform, silent (-5000 dBm) cells
        # the bias alone: both overflow the loop current at 1e300 V
        cfg = tmp_path / "hot.cfg"
        cfg.write_text("bias_start_v = 1e300\nbias_stop_v = 1e300\n"
                       f"power_start_dbm = {power}\npower_stop_dbm = {power}\n")
        out = tmp_path / "x.csv"
        assert run(["bias-sweep", "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err == ("computation error: terminal current overflows for "
                       "these diode parameters\n")
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("tx_gain_db = 1e308\nrx_directivity_db = 1e308",
         "received power overflows"),
        ("tx_power1_dbm = -1e308\ntx_gain_db = -1e308",
         "received power overflows"),
        ("lna_gain_db = 1e308\nconversion_gain_db = 0",
         "IF output power overflows"),
        # the calibration chain's gain as an amplitude ratio
        ("lna_gain_db = 7000",
         "a gain of 7000.0 dB overflows the float range as an amplitude "
         "ratio"),
    ])
    def test_link_budget_overflow_exits_3(self, tmp_path, capsys, text,
                                          message):
        # finite dB terms, or their sum, that leave the float range: no inf
        # columns
        cfg = tmp_path / "loud.cfg"
        cfg.write_text(text + "\n")
        out = tmp_path / "x.csv"
        assert run(["link-budget", "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 3
        err = capsys.readouterr().err
        assert f"computation error: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_spectrum_amplitude_overflow_exits_3(self, tmp_path, capsys):
        # amplitudes whose sum and square leave the float range: one
        # message, no file of nan/inf rows and no numpy warning on the way
        cfg = tmp_path / "loud.cfg"
        cfg.write_text("carrier_amp_v = 1e308\nband_amp_v = 1e308\n")
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["spectrum", "--config", str(cfg), "--out", str(out),
                        "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("computation error: the squared record")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_unsampleable_tone_pair_exits_3(self, tmp_path, capsys):
        # a 1 Hz common grid needs far more than 2^20 samples: the sweep's
        # one tone pair fails the whole command
        cfg = tmp_path / "odd.cfg"
        cfg.write_text("f1_hz = 37500000001\n")
        out = tmp_path / "x.csv"
        assert run(["bias-sweep", "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err == ("computation error: frequencies share no common grid "
                       "coarse enough to sample with <= 1048576 points\n")
        assert not out.exists()

    def test_solver_overflow_in_sweep_exits_3(self, tmp_path, capsys):
        # the loop solves at the 0.65 V bias; the 120 dBm cell swings it
        # past the overflow guard inside the mixing kernel
        cfg = tmp_path / "hot.cfg"
        cfg.write_text("saturation_current_a = 1e-300\n"
                       "series_resistance_ohm = 1e-10\n"
                       "source_impedance_ohm = 1e-10\nlna_gain_db = 40\n"
                       "bias_start_v = 0.65\nbias_stop_v = 0.65\n"
                       "power_start_dbm = 120\npower_stop_dbm = 120\n")
        out = tmp_path / "x.csv"
        assert run(["bias-sweep", "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "computation error: terminal current overflows" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestOtherCommands:
    def test_spectrum_contains_difference_tone(self, tmp_path):
        out = tmp_path / "spec.csv"
        cfg = tmp_path / "c.cfg"
        cfg.write_text("band_tone_count = 1\nband_low_hz = 38.5e9\n"
                       "band_amp_v = 1.0\n")
        assert run(["spectrum", "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 0
        header, rows = read_csv(out)
        assert header == ["frequency_hz", "original_amplitude_v",
                          "mixed_amplitude_v"]
        by_freq = {float(r[0]): float(r[2]) for r in rows}
        assert by_freq[1e9] == pytest.approx(1.0, abs=1e-9)

    def test_spectrum_spans_four_periods_of_the_slowest_tone(self, tmp_path):
        # one common period (10 ns) holds two periods of the 200 MHz
        # carrier; the printed spectrum repeats it once more
        out = tmp_path / "spec.csv"
        cfg = tmp_path / "c.cfg"
        cfg.write_text("carrier_freq_hz = 2e8\n")
        assert run(["spectrum", "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 2049
        assert 2e8 / float(rows[1][0]) == 4.0

    def test_spectrum_million_band_tones_is_bounded_work(self, tmp_path):
        # a million tones snap to six grid frequencies: six sines, not a
        # million, and the band's summed amplitude is kept
        out = tmp_path / "spec.csv"
        cfg = tmp_path / "c.cfg"
        cfg.write_text("band_tone_count = 1000000\n")
        start = time.perf_counter()
        assert run(["spectrum", "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 0
        assert time.perf_counter() - start < 1.0
        _, rows = read_csv(out)
        band = [float(r[1]) for r in rows if 38e9 <= float(r[0]) <= 38.5e9]
        assert sum(band) == pytest.approx(1e6 * 0.25, rel=1e-9)

    def test_diode_iv_columns(self, tmp_path):
        out = tmp_path / "iv.csv"
        assert run(["diode-iv", "--out", str(out), "--quiet"]) == 0
        header, rows = read_csv(out)
        assert header == ["voltage_v", "current_a", "di_dv_s",
                          "d2i_dv2_s_per_v"]
        currents = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(currents) > 0.0)

    def test_bias_sweep_shape(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("bias_start_v = 0.6\nbias_stop_v = 0.7\n"
                       "bias_step_v = 0.05\npower_start_dbm = -45\n"
                       "power_stop_dbm = -40\npower_step_dbm = 5\n")
        out = tmp_path / "bs.csv"
        assert run(["bias-sweep", "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 0
        header, rows = read_csv(out)
        assert header == ["bias_v", "input_power_dbm", "if_power_dbm",
                          "dc_current_a"]
        assert len(rows) == 3 * 2

    def test_bias_sweep_at_one_power_is_a_frequency_column(self, tmp_path):
        # the chain is frequency-flat: at fixed tone powers, the tone pairs
        # 34 / 35 GHz and 36 / 37 GHz give byte-identical tables
        outs = []
        for f1 in (34e9, 36e9):
            cfg = tmp_path / f"{f1:.0f}.cfg"
            cfg.write_text("bias_start_v = 0.6\nbias_stop_v = 0.7\n"
                           "power_start_dbm = -40\npower_stop_dbm = -40\n"
                           f"f1_hz = {f1}\nf2_hz = {f1 + 1e9}\n")
            outs.append(tmp_path / f"{f1:.0f}.csv")
            assert run(["bias-sweep", "--config", str(cfg),
                        "--out", str(outs[-1]), "--quiet"]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert len(read_csv(outs[0])[1]) == 3

    def test_pattern_columns(self, tmp_path):
        out = tmp_path / "pat.csv"
        assert run(["pattern", "--out", str(out), "--quiet"]) == 0
        header, _ = read_csv(out)
        assert header == ["theta_deg", "gain_db", "af_if", "af_rf",
                          "total_if_db", "total_rf_db"]

    def test_link_budget_json(self, tmp_path):
        out = tmp_path / "lb.json"
        assert run(["link-budget", "--out", str(out), "--format", "json",
                    "--quiet"]) == 0
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["frequency_hz", "tx_power_dbm",
                                      "eta_tot_db", "rx_power_dbm",
                                      "if_output_dbm"]
        rx_34 = payload["rows"][0][3]
        assert rx_34 == pytest.approx(-43.4, abs=0.1)

    def test_validate_passes(self, capsys):
        assert run(["validate"]) == 0
        stdout = capsys.readouterr().out
        assert "FAIL" not in stdout
        assert "PASS" in stdout
        assert "known deviation" in stdout.lower()


class TestScripts:
    def test_module_run_prints_usage(self):
        result = run_module(["-m", "selfmix.cli"])
        assert result.returncode == 2
        assert "usage: selfmix" in result.stderr
        assert "Traceback" not in result.stderr

    def test_package_run_prints_usage(self):
        result = run_module(["-m", "selfmix"])
        assert result.returncode == 2
        assert "usage: selfmix" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("demo", ["receive_patterns.py",
                                      "if_array_factor.py", "link_budget.py",
                                      "selfmixed_spectrum.py"])
    def test_array_demo_runs(self, tmp_path, demo):
        result = run_module([str(ROOT / "demos" / demo)], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.rstrip().endswith("done.")

    def test_diode_bias_optimum_demo_runs(self, tmp_path):
        result = run_module([str(ROOT / "demos" / "diode_bias_optimum.py")],
                            cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert "static optimum (bare diode)" in result.stdout
