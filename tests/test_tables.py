import csv
import io
import math

import numpy as np
import pytest

from selfmix import cli, patterns
from selfmix.tables import FORMAT_BLOCK, Table, format_floats, format_value
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


def random_bits(seed, size=3000):
    """Random bit patterns: every exponent, subnormals, nan payloads."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2 ** 63, size=size, dtype=np.uint64)
    signs = rng.integers(0, 2, size=size, dtype=np.uint64) << np.uint64(63)
    return (bits | signs).view(np.float64)


def steps(values, ulps):
    """Each value moved by ``ulps`` units in the last place."""
    target = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        values = np.nextafter(values, target)
    return values


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324,
                  -2.2250738585072014e-308, 1.7976931348623157e308, 0.1,
                  123456789.0, 1234567891.0, -97.16966834, 1e16, 2.5e-13]
OTHER_CELLS = [np.float64(0.1), np.float64(-0.0), np.float64(math.nan),
               np.float32(0.1), 1_000_000_007, 2 ** 70, -5, np.int64(3),
               True, False, "error", "a,b", 'say "hi"', "two\nlines",
               "carriage\rreturn", "", None]


class TestCsvBytes:
    def test_float_rows(self):
        values = np.append(random_bits(3), SPECIAL_FLOATS)
        values = np.append(values, np.zeros(-values.size % 3)).reshape(-1, 3)
        table = Table(["a", "b", "c"], values)
        assert table.to_csv() == per_cell_csv(Table(table.columns,
                                                    values.tolist()))

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
        # a table of Python rows, floats or not, is written cell by cell
        # through format_value
        rows = [] if odd_row is None else [
            (0.1, -0.0, 1e-300), odd_row, (math.inf, 2.5e-13, 123456789.0)]
        table = Table(["a", "b", "c"], rows)
        assert table.to_csv() == per_cell_csv(table)


def near_ties():
    """(m + 1/2) 10^k for 9-digit m: exact ties (k = 0), doubles within a
    few ulp of a tie (k from -28 to 27), and 1-2 ulp either side of each."""
    rng = np.random.default_rng(5)
    m = rng.integers(10 ** 8, 10 ** 9, size=4000) + 0.5
    scales = 10.0 ** rng.integers(-28, 28, m.size).astype(float)
    ties = np.concatenate([m, m * scales])
    return np.concatenate([steps(ties, k) for k in (-2, -1, 0, 1, 2)])


def decades():
    """10^k and 9.999999995 10^k for k = -20..35 and their neighbours:
    where log10 may miss the exponent, and where rounding carries into
    the next decade."""
    powers = np.array([float(f"1e{k}") for k in range(-20, 36)])
    edges = np.concatenate([powers, powers * 9.999999995])
    return np.concatenate([edges, steps(edges, -1), steps(edges, 1),
                           -edges])


KERNEL_VALUES = {
    "random bits": lambda: np.append(random_bits(13, 20_000),
                                     SPECIAL_FLOATS),
    "log-uniform, exponents -20..35": lambda: (
        np.random.default_rng(7).choice([-1.0, 1.0], 50_000)
        * 10.0 ** np.random.default_rng(8).uniform(-20.0, 35.0, 50_000)),
    "edges of the exponent range [-14, 30]": lambda: 10.0 ** np.concatenate([
        np.random.default_rng(10).uniform(-16.0, -13.0, 20_000),
        np.random.default_rng(11).uniform(29.0, 32.0, 20_000)]),
    "near ties": near_ties,
    "decades": decades,
    "subnormals, zeros and the dB floor": lambda: np.concatenate([
        np.random.default_rng(9).integers(1, 2 ** 52, 1000).view(np.float64),
        [5e-324, -5e-324, 2.2250738585072014e-308, -0.0, 0.0, DB_FLOOR,
         -DB_FLOOR, math.nan, -math.nan, math.inf, -math.inf]]),
    "theta grids": lambda: np.concatenate([
        -90.0 + 0.01 * np.arange(18_001), -90.0 + 0.05 * np.arange(3601)]),
}


class TestFloatKernel:
    """format_floats against CPython's "%.9g" % v, cell by cell, and float
    tables against the per-cell csv.writer route."""

    @pytest.mark.parametrize("name", KERNEL_VALUES)
    def test_cells_match_percent_format(self, name):
        values = KERNEL_VALUES[name]()
        cells = format_floats(values[:, None]).split("\n")
        assert cells[:-1] == ["%.9g" % v for v in values.tolist()]
        assert cells[-1] == ""

    @pytest.mark.parametrize("rows, columns", [
        (0, 3), (1, 6), (500, 1),
        # one row short of a block, a block, and a block and a row
        (FORMAT_BLOCK // 6 - 1, 6), (FORMAT_BLOCK // 6, 6),
        (FORMAT_BLOCK // 6 + 1, 6), (2 * FORMAT_BLOCK + 1, 1),
    ])
    def test_table_shapes(self, rows, columns):
        rng = np.random.default_rng(rows)
        values = rng.choice(np.concatenate([
            10.0 ** rng.uniform(-16.0, 33.0, 400), near_ties()[:400],
            -90.0 + 0.01 * np.arange(400), SPECIAL_FLOATS]),
            size=(rows, columns))
        table = Table([f"c{k}" for k in range(columns)], values)
        listed = Table(table.columns, values.tolist())
        assert table.to_csv() == per_cell_csv(listed)
        assert table.to_json() == listed.to_json()

    def test_rows_must_match_columns(self):
        with pytest.raises(ValueError, match="expected"):
            Table(["a", "b"], np.zeros((3, 3)))


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
