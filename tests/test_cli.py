import csv
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from selfmix import cli, diode, tables, validation
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


# the config key of each input file kind and a command that reads it
INPUT_KEYS = {"config": ("array-factor", []),
              "geometry": ("array-factor", ["geometry_file"]),
              "pattern": ("pattern", ["pattern_file_1", "pattern_file_2"])}


def input_file_run(tmp_path, kind, data):
    """Run a command on an input file of ``kind`` holding ``data`` (bytes),
    the config itself or a file it names; returns the exit status, the
    file's path and the output path."""
    command, keys = INPUT_KEYS[kind]
    path = tmp_path / f"{kind}.txt"
    path.write_bytes(data)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("".join(f"{key} = {path}\n" for key in keys))
    out = tmp_path / "x.csv"
    status = run([command, "--config", str(path if kind == "config" else cfg),
                  "--out", str(out), "--quiet"])
    return status, path, out


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

    def test_config_refused_at_its_first_bad_line(self, tmp_path, capsys):
        # a million unknown keys: the first is refused at its line, so the
        # error names one key and the file is never held (read whole, the
        # keys took seconds, hundreds of MB and an 11 MB error line)
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("".join(f"key_{k} = 1.0\n" for k in range(1_000_000)))
        out = tmp_path / "x.csv"
        tracemalloc.start()
        try:
            start = time.perf_counter()
            status = run(["bias-sweep", "--config", str(cfg), "--out",
                          str(out), "--quiet"])
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 2
        assert elapsed < 1.0
        assert peak < 1_000_000
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown config key(s): key_0; "
                              "allowed: bias_start_v, ")
        assert err.count("\n") == 1
        assert len(err) < 1000
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        # file order, not the sorted order of the keys
        ("zeta = 1\nalpha = 2", "unknown config key(s): zeta; allowed: "),
        # a bad value before an unknown key, and after it
        ("nx = two\nwarp_factor = 9",
         "config key nx: invalid literal for int() with base 10: 'two'"),
        ("warp_factor = 9\nnx = two", "unknown config key(s): warp_factor; "),
        ("nx = 1\nnx = 2\njust some words", "c.cfg:2: duplicate key 'nx'"),
        ("dx_m = inf\nnx = 1\nnx = 2", "config key dx_m: must be finite"),
    ])
    def test_first_offending_line_wins(self, tmp_path, capsys, text,
                                       message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text + "\n")
        assert run(["array-factor", "--config", str(cfg), "--out",
                    str(tmp_path / "x.csv"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("kind, body", [
        ("config", "nx = 2"), ("geometry", "0 0"),
        ("pattern", "theta_deg,gain_db")], ids=list(INPUT_KEYS))
    def test_config_not_utf8_exits_2_naming_its_file(self, tmp_path, capsys,
                                                     kind, body):
        status, path, out = input_file_run(
            tmp_path, kind, f"# r\u00e9glage\n{body}\n".encode("latin-1"))
        assert status == 2
        assert capsys.readouterr().err == (
            f"config error: {path}: not UTF-8 text\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind", list(INPUT_KEYS))
    def test_long_line_refused_without_holding_it(self, tmp_path, capsys,
                                                  kind):
        # a 5 MB comment line: read MAX_LINE + 1 characters at a time, it
        # is refused at its line holding no more than that (held whole, it
        # traces about 10 MB)
        data = b"#" + b"x" * 5_000_000 + b"\nnx = 2\n"
        tracemalloc.start()
        try:
            status, path, out = input_file_run(tmp_path, kind, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 2
        assert capsys.readouterr().err == (
            f"config error: {path}:1: line longer than {tables.MAX_LINE} "
            "characters\n")
        assert peak < 1_000_000
        assert not out.exists()

    @pytest.mark.parametrize("ending", ["\n", "\r", "\r\n"])
    def test_config_lines_end_at_newlines_only(self, tmp_path, ending):
        # every newline convention ends a line; a vertical tab does not, so
        # the value of nx runs on past it
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(f"nx = 1{ending}ny = 1{ending}".encode())
        out = tmp_path / "af.csv"
        assert run(["array-factor", "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 0
        _, rows = read_csv(out)
        assert all(float(r[2]) == 1.0 for r in rows)
        cfg.write_text("nx = 1\vny = 1\n")
        assert run(["array-factor", "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 2

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
        # two negative axes multiply to no grid, not to 2000000 elements
        ("array-factor", "nx = -2000\nny = -1000", "shape (N, 2)"),
        ("array-factor", "GEOMETRY\n", "elements 0 and 1 coincide"),
        ("array-factor", "geometry_file = TMP/missing-layout.txt",
         "No such file or directory"),
        # malformed geometry files, named by file and line
        ("array-factor", "geometry_file = TMP/no_y.txt",
         "no_y.txt:1: empty field in '0.03,,180'"),
        ("array-factor", "geometry_file = TMP/bad_number.txt",
         "bad_number.txt:2: could not convert string to float: 'abc'"),
        ("array-factor", "geometry_file = TMP/four_columns.txt",
         "four_columns.txt:1: expected 'x_m y_m [rf_phase_offset_deg]', "
         "got '0 0 0 0'"),
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
        ("pattern", "pattern_file_1 = TMP/no_theta.csv\n"
                    "pattern_file_2 = TMP/no_theta.csv",
         "no_theta.csv:3: empty field in ',5'"),
        ("pattern", "pattern_file_1 = TMP/huge_gain.csv\n"
                    "pattern_file_2 = TMP/huge_gain.csv",
         "huge_gain.csv:2: gain_db 1e6 is past the float range"),
        # each cut fits the float range, their product does not
        ("pattern", "pattern_file_1 = TMP/loud.csv\n"
                    "pattern_file_2 = TMP/loud.csv",
         "gains must be finite and >= 0"),
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
        (tmp_path / "no_y.txt").write_text("0.03,,180\n")
        (tmp_path / "bad_number.txt").write_text("0 0\n0.03 abc\n")
        (tmp_path / "four_columns.txt").write_text("0 0 0 0\n")
        (tmp_path / "one_cell.csv").write_text("theta_deg,gain_db\n-10\n")
        (tmp_path / "no_theta.csv").write_text(
            "theta_deg,gain_db\n-10,0\n,5\n0,0\n10,0\n")
        (tmp_path / "huge_gain.csv").write_text("theta_deg,gain_db\n-10,1e6\n")
        (tmp_path / "loud.csv").write_text(
            "theta_deg,gain_db\n-10,4000\n0,4000\n10,4000\n")
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

    def test_pattern_file_over_cap_exits_2(self, tmp_path, capsys,
                                           monkeypatch):
        # the config's own theta grid (3 points) and layout (4 elements)
        # are within the cap, so only a pattern file's rows can pass it
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 4)

        def pattern(rows):
            cut = tmp_path / f"cut{rows}.csv"
            cut.write_text("theta_deg,gain_db\n" + "".join(
                f"{t},0\n" for t in np.linspace(-90.0, 90.0, rows)))
            cfg = tmp_path / f"c{rows}.cfg"
            cfg.write_text(f"nx = 2\nny = 2\ntheta_step_deg = 90\n"
                           f"pattern_file_1 = {cut}\npattern_file_2 = {cut}\n")
            out = tmp_path / f"x{rows}.csv"
            return run(["pattern", "--config", str(cfg), "--out", str(out),
                        "--quiet"]), out

        status, out = pattern(5)
        assert status == 2
        err = capsys.readouterr().err
        assert "pattern grid would have 5 points; the limit is 4" in err
        assert not out.exists()
        status, out = pattern(4)
        assert status == 0
        assert len(read_csv(out)[1]) == 4

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

    def test_geometry_file_refused_without_holding_its_lines(
            self, tmp_path, capsys, monkeypatch):
        # the count keeps no line and the file is streamed, so refusing a
        # 2.2 MB table traces well under its size (a table whose lines are
        # all kept traces about 36 MB)
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 200_000)
        geo = tmp_path / "layout.txt"
        geo.write_text("".join(f"{k * 1e-3} 0\n" for k in range(200_001)))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"geometry_file = {geo}\n")
        out = tmp_path / "x.csv"
        tracemalloc.start()
        try:
            status = run(["array-factor", "--config", str(cfg), "--out",
                          str(out), "--quiet"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 2
        assert capsys.readouterr().err == (
            "config error: element grid would have 200001 points; the limit "
            "is 200000\n")
        assert peak < 1_000_000
        assert not out.exists()

    def test_pattern_files_refused_without_holding_their_rows(
            self, tmp_path, capsys, monkeypatch):
        # the rows are counted in a pass over the open file that keeps none
        # of them, so refusing a 2.5 MB cut traces well under its size (one
        # held as its text and a StringIO copy traces about 22 MB)
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 200_000)
        cut = tmp_path / "cut.csv"
        cut.write_text("theta_deg,gain_db\n" + "".join(
            f"{t:.6f},0\n" for t in np.linspace(-90.0, 90.0, 200_001)))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"pattern_file_1 = {cut}\npattern_file_2 = {cut}\n")
        out = tmp_path / "x.csv"
        tracemalloc.start()
        try:
            status = run(["pattern", "--config", str(cfg), "--out", str(out),
                          "--quiet"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 2
        assert capsys.readouterr().err == (
            "config error: pattern grid would have 200001 points; the limit "
            "is 200000\n")
        assert peak < 1_000_000
        assert not out.exists()

    @pytest.mark.parametrize("command, text, grid", [
        # 3 x 2 cells of 1025 solved samples each at the default tone pair
        pytest.param("bias-sweep", "bias_stop_v = 0.1\npower_stop_dbm = -55",
                     "bias-sweep solved sample grid would have 6150 points",
                     id="bias-sweep-half-records"),
        # 34/35 GHz solves the whole 1024-sample record
        pytest.param("bias-sweep", "bias_stop_v = 0.1\npower_stop_dbm = -55\n"
                                   "f1_hz = 34e9\nf2_hz = 35e9",
                     "bias-sweep solved sample grid would have 6144 points",
                     id="bias-sweep-whole-records"),
    ])
    def test_work_over_cap_exits_2_before_computing(
            self, tmp_path, capsys, monkeypatch, command, text, grid):
        def compute(*args, **kwargs):
            raise AssertionError("work over the cap was computed")
        monkeypatch.setattr(cli, "MAX_WORK", 5000)
        monkeypatch.setattr(diode, "terminal_current", compute)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text + "\n")
        out = tmp_path / "x.csv"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: {grid}; the limit is 5000\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, text, work", [
        # 1000 x 1000 cells, each solving a 2^19-sample record: about 24 h
        pytest.param(
            "bias-sweep", "f1_hz = 1e9\nf2_hz = 1.00005e9\nbias_start_v = 0\n"
                          "bias_stop_v = 0.999\nbias_step_v = 0.001\n"
                          "power_start_dbm = -60\npower_stop_dbm = 39.9\n"
                          "power_step_dbm = 0.1",
            "bias-sweep solved sample grid would have 524288000000 points",
            id="bias-sweep-1000x1000-at-50-khz"),
    ])
    def test_hours_of_work_refused_at_once(self, tmp_path, capsys, command,
                                           text, work):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text + "\n")
        out = tmp_path / "x.csv"
        start = time.perf_counter()
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: {work}; the limit is "
                                f"{cli.MAX_WORK}\n")
        assert not out.exists()

    @pytest.mark.parametrize("text, tones, samples, bound_s", [
        # 2 002 distinct tones on a 10 kHz grid over 2^19 samples (about
        # 20 s as one sine pass per tone)
        pytest.param("carrier_freq_hz = 0.99e9\nband_low_hz = 1e9\n"
                     "band_high_hz = 1.02e9\nband_tone_count = 2001\n"
                     "frequency_grid_hz = 1e4", 2002, 1 << 19, 5.0,
                     id="2001-band-tones"),
        # every bin 4 .. 2^18 - 1 of a 2^20-sample record on a 1 Hz grid,
        # the most distinct tones such a record holds below a quarter of
        # its rate (about 4 h as one sine pass per tone)
        pytest.param("carrier_freq_hz = 4\nband_low_hz = 5\n"
                     "band_high_hz = 262143\nband_tone_count = 262139\n"
                     "frequency_grid_hz = 1", 262140, 1 << 20, 15.0,
                     id="262140-tones"),
    ])
    def test_many_tone_spectrum_runs_on_its_bins(self, tmp_path, text, tones,
                                                 samples, bound_s):
        # one inverse FFT builds the record whatever the tone count, so no
        # work cap refuses it, and every tone reads its amplitude at its bin
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text + "\n")
        out = tmp_path / "x.csv"
        start = time.perf_counter()
        assert run(["spectrum", "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 0
        assert time.perf_counter() - start < bound_s
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        assert table.shape == (samples // 2 + 1, 3)
        tone_bins = np.flatnonzero(table[:, 1] > 1e-6)
        assert tone_bins.size == tones
        expected = np.full(tones, 0.25)
        expected[np.argmin(table[tone_bins, 0])] = 1.0  # the carrier
        assert np.allclose(table[tone_bins, 1], expected, rtol=1e-9, atol=0)

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
        nvt = diode.DiodeModel(1e-300, 1.2, 0.0).emission_voltage
        for row in rows:
            assert float(row[1]) == pytest.approx(
                1e-300 * math.expm1(float(row[0]) / nvt), rel=1e-8)

    def test_zero_series_resistance_is_the_bare_junction(self, tmp_path,
                                                         capsys):
        # past 60 nV_T (about 1.86 V) the current keeps growing as
        # I_s expm1(v / nV_T): no clamp flattens the curve
        cfg = tmp_path / "bare.cfg"
        cfg.write_text("series_resistance_ohm = 0\nv_start_v = 1.7\n"
                       "v_stop_v = 2.2\nv_step_v = 0.1\n")
        out = tmp_path / "x.csv"
        assert run(["diode-iv", "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 0
        _, rows = read_csv(out)
        model = diode.DiodeModel(2.5e-13, 1.2, 0.0)
        assert len(rows) == 6
        for row in rows:
            v = float(row[0])
            expected = model.saturation_current * math.expm1(
                v / model.emission_voltage)
            assert float(row[1]) == pytest.approx(expected, rel=1e-8)
            assert float(row[2]) == pytest.approx(
                (expected + model.saturation_current)
                / model.emission_voltage, rel=1e-8)
        # 100 V is 3200 nV_T: I_s e^3200 is past the float range, a
        # computation error
        cfg.write_text("series_resistance_ohm = 0\nv_start_v = 99.9\n"
                       "v_stop_v = 100\nv_step_v = 0.1\n")
        capsys.readouterr()
        assert run(["diode-iv", "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 3
        assert capsys.readouterr().err.startswith(
            "computation error: terminal current overflows")

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

    def test_link_budget_checks_both_tones_before_either_power(
            self, tmp_path, capsys):
        # tone 1's received power would overflow (exit 3), but tone 2's
        # frequency is bad config, which is refused first
        cfg = tmp_path / "order.cfg"
        cfg.write_text("f2_hz = -1e9\neta2_db = -1\ntx_power1_dbm = 1e308\n"
                       "tx_gain_db = 1e308\n")
        out = tmp_path / "x.csv"
        assert run(["link-budget", "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "config error: frequency_hz must be positive\n")
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

    @pytest.mark.parametrize("text, message", [
        # one common period of 2^19 samples holds one period of the 1 Hz
        # carrier; four of them need 2^21 samples, past the record cap
        pytest.param("carrier_freq_hz = 1\nband_low_hz = 131071\n"
                     "band_high_hz = 131071\nband_tone_count = 1\n"
                     "frequency_grid_hz = 1",
                     "waveform needs <= 1048576 samples, got 2097152",
                     id="four-periods-past-the-record-cap"),
        # 16 samples per 2.5e307 Hz period: a rate past the float range
        pytest.param("carrier_freq_hz = 2.5e307\nband_low_hz = 2.5e307\n"
                     "band_high_hz = 2.5e307\nband_tone_count = 1",
                     "a sample rate of 16 x the 2.5e+307 Hz common grid "
                     "passes the float range", id="rate-past-the-float-range"),
    ])
    def test_unsampleable_spectrum_exits_3(self, tmp_path, capsys, text,
                                           message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text + "\n")
        out = tmp_path / "x.csv"
        assert run(["spectrum", "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 3
        assert capsys.readouterr().err == f"computation error: {message}\n"
        assert not out.exists()

    def test_sub_hertz_tone_exits_3_at_the_planner(self, tmp_path, capsys):
        # 1e-10 Hz is no whole number of hertz: the planner refuses it by
        # name before any record is built
        cfg = tmp_path / "low.cfg"
        cfg.write_text("f1_hz = 1e-10\n")
        out = tmp_path / "x.csv"
        assert run(["bias-sweep", "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err == ("computation error: frequency 1e-10 Hz is not an "
                       "integer number of hertz >= 1; no exact common "
                       "sampling grid exists\n")
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

    @pytest.mark.parametrize("command, text, first_column", [
        # 0.8 V / 0.3 V is 2.67 steps: no 0.9 V row past the stop
        ("bias-sweep", "bias_step_v = 0.3\npower_start_dbm = -40\n"
                       "power_stop_dbm = -40", [0.0, 0.3, 0.6]),
        ("array-factor", "theta_step_deg = 100", [-90.0, 10.0]),
        # 175 / 50 is 3.5 steps; a fifth point, 110 deg, would be refused
        ("pattern", "theta_stop_deg = 85\ntheta_step_deg = 50",
         [-90.0, -40.0, 10.0, 60.0]),
    ])
    def test_grid_stops_at_its_stop(self, tmp_path, command, text,
                                    first_column):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(text + "\n")
        out = tmp_path / "x.csv"
        assert run([command, "--config", str(cfg), "--out", str(out),
                    "--quiet"]) == 0
        _, rows = read_csv(out)
        assert [float(r[0]) for r in rows] == pytest.approx(first_column)

    @pytest.mark.parametrize("command, text, code", [
        ("array-factor", "dx_m = -0.032", 0),  # a mirrored grid
        ("array-factor", "dy_m = -0.036\nny = 3", 0),
        ("array-factor", "rf_freq_hz = -1e9", 2),
        ("array-factor", "f1_hz = 0", 2),
        ("array-factor", "f2_hz = -38.5e9", 2),
        ("pattern", "rf_freq_hz = -1e9", 2),
        ("pattern", "f1_hz = -37.5e9", 2),
        ("pattern", "f2_hz = 0", 2),
        ("diode-iv", "v_step_v = 5", 0),  # a one-point grid
        # a span of zero width: the printed optimum needs start < stop
        ("diode-iv", "v_stop_v = 0", 2),
        ("array-factor", "theta_stop_deg = -90", 2),
    ])
    def test_exit_status_independent_of_quiet(self, tmp_path, capsys,
                                              command, text, code):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text + "\n")
        for quiet in ([], ["--quiet"]):
            out = tmp_path / f"x{len(quiet)}.csv"
            assert run([command, "--config", str(cfg), "--out", str(out),
                        *quiet]) == code
            err = capsys.readouterr().err
            assert (err == "") if code == 0 else err.startswith(
                "config error:")
            assert out.exists() == (code == 0)

    def test_mirrored_grid_prints_its_pitch(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("dx_m = -0.032\n")
        assert run(["array-factor", "--config", str(cfg), "--out",
                    str(tmp_path / "x.csv")]) == 0
        assert ("x-pitch 32.0 mm: effective IF spacing 0.1067 wavelengths "
                "vs 4.110 at RF") in capsys.readouterr().out


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
        # bias-major: the power axis runs fastest
        assert [row[:2] for row in rows] == [
            [v, p] for v in ("0.6", "0.65", "0.7") for p in ("-45", "-40")]

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


class TestCommandTable:
    def test_missing_out_refused_before_computing(self, monkeypatch, capsys):
        def solve(*args, **kwargs):
            raise AssertionError("mix_cells called without --out")
        monkeypatch.setattr(diode, "mix_cells", solve)
        assert run(["bias-sweep"]) == 2
        assert capsys.readouterr().err == (
            "config error: --out is required for this subcommand\n")

    @pytest.mark.parametrize("command, module, name", [
        (["bias-sweep"], diode, "mix_cells"),
        (["validate", "--quiet"], validation, "run_all"),
    ])
    @pytest.mark.parametrize("target", ["missing/x.csv", "."])
    def test_unwritable_out_refused_before_computing(
            self, tmp_path, monkeypatch, capsys, command, module, name,
            target):
        # a parent that is not a directory, or an --out that is one
        def compute(*args, **kwargs):
            raise AssertionError(f"{name} called for an unwritable --out")
        monkeypatch.setattr(module, name, compute)
        out = tmp_path / target
        assert run([*command, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: --out {out} is not a file in an existing "
            "directory\n")
        assert list(tmp_path.iterdir()) == []  # no file, no directory

    def test_command_looked_up_at_call_time(self, tmp_path, monkeypatch):
        # a wrapper set on the module attribute (a tracer's) is the one
        # main calls
        calls = []
        original = cli.cmd_spectrum

        def wrapped(cfg, quiet):
            calls.append(quiet)
            return original(cfg, quiet)
        monkeypatch.setattr(cli, "cmd_spectrum", wrapped)
        assert run(["spectrum", "--out", str(tmp_path / "s.csv"),
                    "--quiet"]) == 0
        assert calls == [True]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_validate_report_bytes(self, tmp_path, monkeypatch, capsys, fmt):
        results = [
            validation.CheckResult("IF vs RF beamwidth, 4x2 layout", True,
                                   'RF lobes: 2, "IF" 0'),
            validation.CheckResult("known deviation", False, "a,b\nc",
                                   note=True),
        ]
        monkeypatch.setattr(validation, "run_all", lambda: results)
        out = tmp_path / f"v.{fmt}"
        assert run(["validate", "--quiet", "--format", fmt,
                    "--out", str(out)]) == 0
        rows = [[r.status, r.name, r.detail] for r in results]
        if fmt == "csv":
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(
                [["status", "name", "detail"], *rows])
            expected = buf.getvalue()
        else:
            expected = json.dumps({"columns": ["status", "name", "detail"],
                                   "rows": rows}, indent=2) + "\n"
        assert out.read_bytes() == expected.encode("utf-8")
        assert capsys.readouterr().out == ""

    def test_validate_takes_no_config(self, tmp_path, capsys):
        assert run(["validate", "--config", str(tmp_path / "x.cfg")]) == 2
        assert capsys.readouterr().err == (
            "config error: validate takes no config file\n")

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["frequency-sweep", "--out", "x.csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'frequency-sweep'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["array-factor", "pattern"])
    def test_cuts_do_not_import_numpy_ma(self, tmp_path, command):
        code = ("import sys\n"
                "from selfmix.cli import main\n"
                f"assert main([{command!r}, '--quiet', '--out', "
                f"{str(tmp_path / 'x.csv')!r}]) == 0\n"
                "print('numpy.ma' in sys.modules)\n")
        result = run_module(["-c", code])
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"


class TestScripts:
    def test_help_lists_commands_and_options(self):
        result = run_module(["-m", "selfmix", "--help"])
        assert result.returncode == 0
        for name, (help_text, _) in cli.COMMANDS.items():
            assert f"  {name:14s}{help_text}\n" in result.stdout
        assert len(cli.COMMANDS) == 7
        for option in ("--config CONFIG", "--out OUT",
                       "--format {csv,json}", "--quiet"):
            assert option in result.stdout

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
