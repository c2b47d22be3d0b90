"""Benchmark workloads: seeded inputs, CLI invocations and output checks.

Each workload is a fixed list of ``selfmix`` invocations over input files
that :func:`prepare` writes from the workload seed. :meth:`Workload.check`
verifies the files one pass wrote and counts the operations attempted and
failed. An operation is one CLI invocation plus, on ``sweep``, one grid cell.

Tolerances (each no looser than the matching ``selfmix.validation`` check,
and each wide enough for the <= 3e-5 dB moves a change of numerical method
in the diode or mixing layers is expected to bring):

* dB columns: 1e-4 dB (the validation anchors allow 0.05 to 0.1 dB).
* array factors and pattern gains (linear): 1e-8 absolute (the
  limiting-case check allows 1e-6). A dB column of a linear quantity
  passes if either its dB value or its linear value is within tolerance,
  because deep nulls magnify rounding in dB.
* currents: 1e-5 of max(|reference|, I_s). The bias-point consistency check
  of ``MixingChain`` uses 1e-6 of the same scale; 1e-5 admits the
  3.5e-6 relative amplitude change that 3e-5 dB means.
* I-V derivatives: 3e-4 of the column's largest magnitude. The seed takes
  1e-5 V central differences of a solve with a 1e-12 relative residual;
  against the exact closed form its second derivative is off by up to
  7.5e-5 of that scale, which an exact method must be allowed to remove.
* spectra: 1e-9 of the column's largest amplitude, as in the signal
  oracle check.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

DB_TOL = 1e-4
AF_TOL = 1e-8
CURRENT_REL_TOL = 1e-5
SATURATION_CURRENT = 2.5e-13
DERIVATIVE_REL_TOL = 3e-4
SPECTRUM_REL_TOL = 1e-9
DB_FLOOR = -200.0

# 16 x 16 grid at the reference 32 mm x 36 mm pitch
GRID_NX, GRID_NY, GRID_DX, GRID_DY = 16, 16, 0.032, 0.036
IRREGULAR_ELEMENTS, IRREGULAR_ROTATED = 128, 32
F1, F2, F_RF = 37.5e9, 38.5e9, 38.5e9


@dataclass(frozen=True)
class Invocation:
    label: str
    argv: tuple[str, ...]
    output: Path


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


@dataclass
class Workload:
    name: str
    invocations: list[Invocation]
    checkers: dict[str, object]  # label -> callable(path) -> CheckResult
    _verified: dict = field(default_factory=dict)

    def check(self, exit_codes: dict[str, int]) -> CheckResult:
        """Check every output of one pass. Outputs are deterministic, so a
        file whose bytes and exit code match an already checked one reuses
        that verdict."""
        total = CheckResult()
        for inv in self.invocations:
            code = exit_codes.get(inv.label)
            data = inv.output.read_bytes() if inv.output.is_file() else None
            key = (inv.label, code,
                   hashlib.sha256(data).hexdigest() if data is not None else None)
            if key not in self._verified:
                self._verified[key] = self._check_one(inv, code, data)
            total.add(self._verified[key])
        return total

    def _check_one(self, inv: Invocation, code: int | None,
                   data: bytes | None) -> CheckResult:
        checker = self.checkers[inv.label]
        if code != 0 or data is None:
            result = checker(None)  # counts the operations that were lost
            result.failed = result.attempted
            result.problems.append(f"{inv.label}: exit code {code}, "
                                   f"output {'present' if data else 'missing'}")
            return result
        return checker(data.decode("utf-8"))


# --------------------------------------------------------------------------
# input generation


def prepare(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's input files into ``workdir`` and return it."""
    workdir.mkdir(parents=True, exist_ok=True)
    return {"sweep": _sweep, "array": _array, "validate": _validate}[name](
        np.random.default_rng(seed), workdir)


def _write_config(path: Path, values: dict) -> str:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()),
                    encoding="utf-8")
    return str(path)


def _sweep(rng: np.random.Generator, workdir: Path) -> Workload:
    # The grid is the one the reference was recorded on, so the seed does not
    # change it: the 0 and +5 dBm columns stay the marker of the known
    # solver failures.
    cfg = _write_config(workdir / "sweep.cfg", dict(
        bias_start_v=0.0, bias_stop_v=0.8, bias_step_v=0.05,
        power_start_dbm=-60.0, power_stop_dbm=5.0, power_step_dbm=5.0))
    out = workdir / "out" / "sweep.csv"
    reference = _read_csv_text((REFERENCE_DIR / "sweep.csv").read_text())
    return Workload("sweep", [Invocation(
        "bias-sweep", ("bias-sweep", "--config", cfg, "--out", str(out)), out)],
        {"bias-sweep": lambda text: _check_sweep(text, reference)})


def _array(rng: np.random.Generator, workdir: Path) -> Workload:
    phi_cut = float(np.round(rng.uniform(0.0, 180.0), 3))
    grid = dict(nx=GRID_NX, ny=GRID_NY, dx_m=GRID_DX, dy_m=GRID_DY)
    grid_pos = np.array([(ix * GRID_DX, iy * GRID_DY)
                         for iy in range(GRID_NY) for ix in range(GRID_NX)])
    no_offsets = np.zeros(len(grid_pos))
    positions, rotated = _irregular_geometry(rng)
    geometry_file = workdir / "irregular.geom"
    geometry_file.write_text("".join(
        f"{float(x)!r} {float(y)!r} {180 if off else 0}\n"
        for (x, y), off in zip(positions, rotated)), encoding="utf-8")
    specs = [  # label, subcommand, config, positions, RF feed offsets
        ("array-factor-grid", "array-factor",
         dict(grid, theta_step_deg=0.01), grid_pos, no_offsets),
        ("pattern-grid", "pattern",
         dict(grid, theta_step_deg=0.05, element_kind="two_beam"),
         grid_pos, no_offsets),
        ("array-factor-irregular", "array-factor",
         dict(geometry_file=str(geometry_file), theta_step_deg=0.01),
         positions, np.where(rotated, math.pi, 0.0)),
    ]
    invocations, checkers = [], {}
    for label, command, values, pos, off in specs:
        cfg = _write_config(workdir / f"{label}.cfg",
                            dict(values, phi_cut_deg=phi_cut))
        out = workdir / "out" / f"{label}.csv"
        invocations.append(Invocation(
            label, (command, "--config", cfg, "--out", str(out)), out))
        checkers[label] = (lambda text, c=command, p=pos, o=off,
                           step=values["theta_step_deg"]:
                           _check_cut(text, c, p, o, step, math.radians(phi_cut)))
    return Workload("array", invocations, checkers)


def _irregular_geometry(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """128 elements jittered around a 16 x 8 grid (jitter below half the
    pitch, so no two coincide), a quarter of them fed rotated by 180 deg."""
    ix, iy = np.meshgrid(np.arange(16), np.arange(8))
    x = ix.ravel() * GRID_DX + rng.uniform(-0.25, 0.25, ix.size) * GRID_DX
    y = iy.ravel() * GRID_DY + rng.uniform(-0.25, 0.25, iy.size) * GRID_DY
    rotated = np.zeros(IRREGULAR_ELEMENTS, dtype=bool)
    rotated[rng.choice(IRREGULAR_ELEMENTS, IRREGULAR_ROTATED, replace=False)] = True
    return np.column_stack([x, y]), rotated


def _validate(rng: np.random.Generator, workdir: Path) -> Workload:
    # default configs: the oracles and small subcommands as shipped
    specs = [("validate", None, None),
             ("diode-iv", "diode_iv.csv", _diode_iv_masks),
             ("spectrum", "spectrum.csv", _spectrum_masks),
             ("link-budget", "link_budget.csv", _link_budget_masks)]
    invocations, checkers = [], {}
    for label, filename, masks in specs:
        out = workdir / "out" / f"{label}.csv"
        invocations.append(Invocation(label, (label, "--out", str(out)), out))
        if filename is None:
            checkers[label] = _check_validate
            continue
        columns, ref_rows = _read_csv_text((REFERENCE_DIR / filename).read_text())
        ref = np.array(ref_rows, dtype=float)
        checkers[label] = (lambda text, label=label, columns=columns, ref=ref,
                           masks=masks: _check_table(
                               label, text, columns, len(ref),
                               lambda out: masks(out, ref)))
    return Workload("validate", invocations, checkers)


# --------------------------------------------------------------------------
# checks; each takes the output text (None when the invocation failed)


def _read_csv_text(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(text.splitlines()))
    return (rows[0], rows[1:]) if rows else ([], [])


def _structure(label: str, text: str, columns: list[str],
               row_count: int) -> tuple[list[list[str]], list[str]]:
    header, rows = _read_csv_text(text)
    problems = []
    if header != columns:
        problems.append(f"{label}: columns {header}, expected {columns}")
    if len(rows) != row_count:
        problems.append(f"{label}: {len(rows)} rows, expected {row_count}")
    return rows, problems


def _db20(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.maximum(20.0 * np.log10(x), DB_FLOOR)


def _bad_db(db_out: np.ndarray, linear_ref: np.ndarray) -> np.ndarray:
    """Mask of dB cells that match the linear reference neither in dB nor
    in linear terms."""
    return ((np.abs(db_out - _db20(linear_ref)) > DB_TOL)
            & (np.abs(10.0 ** (db_out / 20.0) - linear_ref) > AF_TOL))


def _column_problems(label: str, names: list[str], masks: list[np.ndarray]
                     ) -> list[str]:
    return [f"{label}: {int(m.sum())} cells of {n} out of tolerance"
            for n, m in zip(names, masks) if m.any()]


def theta_grid_deg(step: float) -> np.ndarray:
    count = int(round(180.0 / step)) + 1
    return -90.0 + step * np.arange(count)


def factor_cut(positions: np.ndarray, frequency: float, theta: np.ndarray,
               phi: float, offsets: np.ndarray | None) -> np.ndarray:
    """Normalized array factor along a signed-theta cut, computed directly
    from the element positions, in chunks of directions."""
    rel = positions - positions[0]
    out = np.empty(theta.size)
    for start in range(0, theta.size, 2048):
        s = np.sin(theta[start:start + 2048])
        path = np.outer(s * math.cos(phi), rel[:, 0]) + np.outer(
            s * math.sin(phi), rel[:, 1])
        phases = 2.0 * math.pi * path * frequency / SPEED_OF_LIGHT
        if offsets is not None:
            phases = phases + offsets
        out[start:start + 2048] = np.abs(np.exp(1j * phases).mean(axis=1))
    return out


CUT_COLUMNS = {
    "array-factor": ["theta_deg", "phi_deg", "af_if", "af_rf", "af_if_db",
                     "af_rf_db"],
    "pattern": ["theta_deg", "gain_db", "af_if", "af_rf", "total_if_db",
                "total_rf_db"],
}


def _check_cut(text, command, positions, offsets, step, phi) -> CheckResult:
    """``array-factor`` or ``pattern`` output against factors recomputed
    from the positions (and, for ``pattern``, the self-mixed two-beam
    element gain; ``array-factor`` has unit gain)."""
    theta_deg = theta_grid_deg(step)
    theta = np.radians(theta_deg)
    af_if = factor_cut(positions, F1 - F2, theta, phi, None)
    af_rf = factor_cut(positions, F_RF, theta, phi, offsets)
    gain = np.ones(theta.size)
    if command == "pattern":
        tilt, width = math.radians(30.0), math.radians(20.0)
        beam = (np.exp(-((theta - tilt) ** 2) / (2.0 * width ** 2))
                + np.exp(-((theta + tilt) ** 2) / (2.0 * width ** 2)))
        gain = (beam / beam.max()) ** 2  # self-mixed, peak-normalized

    def masks(out):
        second = (_bad_db(out[:, 1], gain) if command == "pattern"
                  else np.abs(out[:, 1] - math.degrees(phi)) > 1e-9)
        return [np.abs(out[:, 0] - theta_deg) > 1e-9, second,
                np.abs(out[:, 2] - af_if) > AF_TOL,
                np.abs(out[:, 3] - af_rf) > AF_TOL,
                _bad_db(out[:, 4], gain * af_if), _bad_db(out[:, 5], gain * af_rf)]
    return _check_table(command, text, CUT_COLUMNS[command], theta.size, masks)


def _check_table(label, text, columns, row_count, masks) -> CheckResult:
    """One operation: structure, then ``masks(values)`` gives one
    out-of-tolerance mask per column."""
    result = CheckResult(attempted=1)
    if text is None:
        return result
    rows, result.problems = _structure(label, text, columns, row_count)
    if not result.problems:
        result.problems = _column_problems(
            label, columns, masks(np.array(rows, dtype=float)))
    result.failed = int(bool(result.problems))
    return result


def _current_bad(out: np.ndarray, ref: np.ndarray) -> np.ndarray:
    return np.abs(out - ref) > CURRENT_REL_TOL * np.maximum(np.abs(ref),
                                                            SATURATION_CURRENT)


def _check_sweep(text, reference) -> CheckResult:
    """One operation for the invocation plus one per grid cell. A cell
    written as ``error`` is a failed operation; it is also a wrong output
    unless the reference cell is ``error`` too. A reference ``error`` cell
    may become finite."""
    label = "bias-sweep"
    columns, ref_rows = reference
    result = CheckResult(attempted=1 + len(ref_rows))
    if text is None:
        return result
    rows, result.problems = _structure(label, text, columns, len(ref_rows))
    if result.problems:
        result.failed = result.attempted
        return result
    for row, ref in zip(rows, ref_rows):
        where = f"{label}: cell bias {ref[0]} V, power {ref[1]} dBm"
        if abs(float(row[0]) - float(ref[0])) > 1e-9 or abs(
                float(row[1]) - float(ref[1])) > 1e-9:
            result.problems.append(f"{where}: grid coordinates {row[:2]}")
        if row[2] == "error" or row[3] == "error":
            result.failed += 1
            if ref[2] != "error":
                result.problems.append(f"{where}: error, reference {ref[2:]}")
            continue
        power, current = float(row[2]), float(row[3])
        if not (math.isfinite(power) and math.isfinite(current)):
            result.failed += 1
            result.problems.append(f"{where}: non-finite {row[2:]}")
        elif ref[2] != "error" and (
                abs(power - float(ref[2])) > DB_TOL
                or _current_bad(np.array(current), np.array(float(ref[3])))):
            result.failed += 1
            result.problems.append(f"{where}: {row[2:]}, reference {ref[2:]}")
    return result


def _diode_iv_masks(out: np.ndarray, ref: np.ndarray) -> list[np.ndarray]:
    scale = np.abs(ref).max(axis=0)
    return [np.abs(out[:, 0] - ref[:, 0]) > 1e-9,
            _current_bad(out[:, 1], ref[:, 1]),
            np.abs(out[:, 2] - ref[:, 2]) > DERIVATIVE_REL_TOL * scale[2],
            np.abs(out[:, 3] - ref[:, 3]) > DERIVATIVE_REL_TOL * scale[3]]


def _spectrum_masks(out: np.ndarray, ref: np.ndarray) -> list[np.ndarray]:
    scale = np.abs(ref).max(axis=0)
    return [np.abs(out[:, 0] - ref[:, 0]) > 1e-9 * scale[0],
            *(np.abs(out[:, k] - ref[:, k]) > SPECTRUM_REL_TOL * scale[k]
              for k in (1, 2))]


def _link_budget_masks(out: np.ndarray, ref: np.ndarray) -> list[np.ndarray]:
    bad = np.abs(out - ref) > DB_TOL  # every column but the first is dB
    bad[:, 0] = np.abs(out[:, 0] - ref[:, 0]) > 1.0  # hertz
    return list(bad.T)


SEED_CHECK_COUNT = 12


def _check_validate(text) -> CheckResult:
    """Every check passes or is a noted deviation. Later changes may add
    checks, so the row count is a lower bound."""
    result = CheckResult(attempted=1)
    if text is None:
        return result
    header, rows = _read_csv_text(text)
    if header != ["status", "name", "detail"]:
        result.problems.append(f"validate: columns {header}")
    if len(rows) < SEED_CHECK_COUNT:
        result.problems.append(f"validate: {len(rows)} checks, expected "
                               f">= {SEED_CHECK_COUNT}")
    result.problems += [f"validate: {r[0]} {r[1]}" for r in rows
                        if r and r[0] not in ("PASS", "NOTE")]
    result.failed = int(bool(result.problems))
    return result
