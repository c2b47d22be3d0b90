import csv
import io
import math

import numpy as np

from selfmix.patterns import PatternGrid, write_pattern_csv
from selfmix.tables import Table, format_value


def per_cell_csv(table):
    """The reference route: every cell through format_value and csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([format_value(v) for v in row])
    return buf.getvalue()


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

    def test_pattern_csv_bytes(self, tmp_path):
        theta = np.linspace(-math.pi / 2, math.pi / 2, 721)
        gains = np.clip(np.cos(theta), 0.0, None) ** 1.3
        p = PatternGrid(theta, 0.0, gains, 36e9)
        path = tmp_path / "cut.csv"
        write_pattern_csv(p, path)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["theta_deg", "gain_db"])
        for t, db in zip(p.theta_samples, p.gains_db()):
            writer.writerow([f"{math.degrees(t):.9g}", f"{db:.9g}"])
        assert path.read_bytes() == buf.getvalue().encode("utf-8")
