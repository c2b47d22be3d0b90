import csv
import io
import math

import numpy as np
import pytest

from selfmix import cli, patterns
from selfmix.tables import Table, format_value
from selfmix.units import DB_FLOOR, amplitude_ratio_to_db


def per_cell_csv(table):
    """The reference route: every cell through format_value and csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([format_value(v) for v in row])
    return buf.getvalue()


def scalar_db(ratio, floor=DB_FLOOR):
    """The reference dB of one amplitude ratio, through math.log10."""
    return floor if ratio <= 0.0 else max(floor, 20.0 * math.log10(ratio))


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324,
                  -2.2250738585072014e-308, 1.7976931348623157e308, 0.1,
                  123456789.0, 1234567891.0, -97.16966834, 1e16, 2.5e-13]
OTHER_CELLS = [np.float64(0.1), np.float64(-0.0), np.float64(math.nan),
               np.float32(0.1), 1_000_000_007, 2 ** 70, -5, np.int64(3),
               True, False, "error", "a,b", 'say "hi"', "two\nlines",
               "carriage\rreturn", "", None]


class TestCsvBytes:
    def test_float_rows(self):
        rng = np.random.default_rng(3)
        # random bit patterns: every exponent, subnormals, nan payloads
        bits = rng.integers(0, 2 ** 63, size=3000, dtype=np.uint64)
        signs = rng.integers(0, 2, size=3000, dtype=np.uint64) << np.uint64(63)
        values = (bits | signs).view(np.float64).tolist() + SPECIAL_FLOATS
        values += [0.0] * (-len(values) % 3)
        table = Table(["a", "b", "c"], [tuple(values[i:i + 3])
                                        for i in range(0, len(values), 3)])
        assert table.to_csv() == per_cell_csv(table)

    def test_mixed_rows(self):
        rows = [(1.5, cell, -0.0) for cell in OTHER_CELLS]
        rows += [(float(v), "x", v) for v in SPECIAL_FLOATS]
        rows += [[0.25, 0.5, 0.75]]  # a list row, as Table(rows=...) allows
        # a bias-sweep row with failed cells and a validate detail row
        rows += [(0.65, -10.0, "error"),
                 ("PASS", "IF vs RF beamwidth, 4x2 layout (32 mm x 36 mm)",
                  "RF lobes above -3 dB in |theta|<=60 deg: 2, \"IF\" 0")]
        table = Table(["first", "second, quoted", "third"], rows)
        assert table.to_csv() == per_cell_csv(table)

    def test_json_unchanged(self):
        table = Table(["x", "status"], [(0.1234567891234, "PASS"),
                                         (-0.0, "error"), (3, True)])
        assert table.to_json() == (
            '{\n  "columns": [\n    "x",\n    "status"\n  ],\n'
            '  "rows": [\n    [\n      0.123456789,\n      "PASS"\n    ],\n'
            '    [\n      -0.0,\n      "error"\n    ],\n'
            '    [\n      3,\n      true\n    ]\n  ]\n}\n')

    @pytest.mark.parametrize("odd_row", [
        (0.5, np.float64(0.25), 0.125),
        (0.5, 1_000_000_007, 0.125),  # "%.9g" would round the int
        (0.5, 0.25),
        None,  # no rows at all
    ])
    def test_one_odd_row_falls_back(self, odd_row):
        # a float table with one row the float route cannot take writes
        # every row through format_value, with the same bytes
        rows = [] if odd_row is None else [
            (0.1, -0.0, 1e-300), odd_row, (math.inf, 2.5e-13, 123456789.0)]
        table = Table(["a", "b", "c"], rows)
        assert table.to_csv() == per_cell_csv(table)


class TestDbKernel:
    # the default floor, and one below 20*log10(1e-300) = -6000 dB that
    # sends every ratio through the logarithm
    @pytest.mark.parametrize("floor", [DB_FLOOR, -7000.0])
    def test_same_digits_as_scalar_log10(self, floor):
        rng = np.random.default_rng(11)
        ratios = 10.0 ** rng.uniform(-300.0, 3.0, size=1_000_000)
        ratios = np.append(ratios, [0.0, -0.0, -1e-3, math.inf, 1e-300, 1e3])
        db = amplitude_ratio_to_db(ratios, floor).tolist()
        ref = [scalar_db(r, floor) for r in ratios.tolist()]
        # np.log10 and math.log10 may differ in the last bit; never in the
        # 9 digits that are written
        differ = [k for k, (a, b) in enumerate(zip(db, ref)) if a != b]
        assert [f"{db[k]:.9g}" for k in differ] == [f"{ref[k]:.9g}"
                                                    for k in differ]
        assert db[-6:] == [floor, floor, floor, math.inf, max(floor, -6000.0),
                           60.0]

    def test_scalar_in_array_out(self):
        assert amplitude_ratio_to_db(2.0).shape == ()
        assert float(amplitude_ratio_to_db(10.0, floor=-50.0)) == 20.0
        assert amplitude_ratio_to_db([1e-3, 0.0], floor=-50.0).tolist() == [
            -50.0, -50.0]


class TestCommandTables:
    """Default array-factor and pattern CSVs against a per-cell rebuild
    from the same cut arrays."""

    def rebuild(self, columns, rows):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([format_value(v) for v in row])
        return buf.getvalue()

    def cuts(self, schema):
        cfg = schema.resolve({})
        theta_deg = cli._theta_grid_deg(cfg["theta_start_deg"],
                                        cfg["theta_stop_deg"],
                                        cfg["theta_step_deg"])
        return cfg, theta_deg, math.radians(cfg["phi_cut_deg"])

    def test_array_factor(self, tmp_path):
        cfg, theta_deg, phi = self.cuts(cli.ARRAY_FACTOR_SCHEMA)
        af_if, af_rf = cli._factor_cuts(cli._geometry_from_config(cfg), cfg,
                                        np.radians(theta_deg), phi)
        rows = [(float(t), cfg["phi_cut_deg"], float(i), float(r),
                 scalar_db(float(i)), scalar_db(float(r)))
                for t, i, r in zip(theta_deg, af_if, af_rf)]
        out = tmp_path / "af.csv"
        assert cli.main(["array-factor", "--out", str(out), "--quiet"]) == 0
        assert out.read_text() == self.rebuild(
            ["theta_deg", "phi_deg", "af_if", "af_rf", "af_if_db",
             "af_rf_db"], rows)

    def test_pattern(self, tmp_path):
        cfg, theta_deg, phi = self.cuts(cli.PATTERN_SCHEMA)
        element = cli._element_pattern(cfg, np.radians(theta_deg))
        sm = patterns.self_mix_pattern(element, element).normalized()
        af_if, af_rf = cli._factor_cuts(cli._geometry_from_config(cfg), cfg,
                                        sm.theta_samples, phi)
        rows = [(math.degrees(t), scalar_db(float(g)), float(i), float(r),
                 scalar_db(float(g * i)), scalar_db(float(g * r)))
                for t, g, i, r in zip(sm.theta_samples, sm.gains, af_if,
                                      af_rf)]
        out = tmp_path / "pattern.csv"
        assert cli.main(["pattern", "--out", str(out), "--quiet"]) == 0
        assert out.read_text() == self.rebuild(
            ["theta_deg", "gain_db", "af_if", "af_rf", "total_if_db",
             "total_rf_db"], rows)
