"""Bounded fuzz of the array-factor, pattern, diode-iv, bias-sweep and
link-budget configs: every config exits 0, 2 or 3 without a traceback, no
grid over the caps is computed, and an output holds only finite numbers."""

import contextlib
import csv
import io
import math
import tempfile
from datetime import timedelta
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from selfmix import cli, diode  # noqa: E402

COUNTS = st.one_of(st.integers(-2, 40),
                   st.sampled_from([1000, 100_000, 1_000_001, 2 ** 40]))
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-320, 1e-9, 1e-4, 0.05, 0.25, 90.0, 1e308]))
# each key mostly in its working range, sometimes anywhere
ANGLES = st.one_of(st.floats(-90.0, 90.0), NUMBERS)
STEPS = st.one_of(st.floats(0.05, 20.0), NUMBERS)
PITCHES = st.one_of(st.floats(1e-3, 0.1), NUMBERS)
FREQUENCIES = st.one_of(st.floats(1e9, 1e11), NUMBERS)
KEYS = dict(nx=COUNTS, ny=COUNTS, dx_m=PITCHES, dy_m=PITCHES,
            phi_cut_deg=ANGLES, theta_start_deg=ANGLES, theta_stop_deg=ANGLES,
            theta_step_deg=STEPS, f1_hz=FREQUENCIES, f2_hz=FREQUENCIES,
            rf_freq_hz=FREQUENCIES)
PATTERN_KEYS = dict(
    element_kind=st.sampled_from(["isotropic", "cos_q", "two_beam", "dipole"]),
    cos_exponent=NUMBERS, beam_tilt_deg=NUMBERS, beam_width_deg=NUMBERS)


def _theta_count(cfg):
    """Directions the config asks for; None where it asks for no grid."""
    start = cfg.get("theta_start_deg", -90.0)
    stop = cfg.get("theta_stop_deg", 90.0)
    step = cfg.get("theta_step_deg", 0.25)
    if step <= 0.0 or stop <= start:
        return None
    return (stop - start) / step + 1.0


def _run(command, cfg, quiet=True):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
        out = Path(tmp) / "out.csv"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main([command, "--config", str(path), "--out",
                             str(out)] + (["--quiet"] if quiet else []))
        rows = None
        if out.exists():
            with out.open(newline="") as handle:
                rows = list(csv.reader(handle))[1:]
        return code, stderr.getvalue(), rows


def _all_finite(rows):
    return all(math.isfinite(float(v)) for row in rows for v in row)


@settings(max_examples=60, deadline=timedelta(seconds=20), derandomize=True)
@given(command=st.sampled_from(["array-factor", "pattern"]),
       cfg=st.fixed_dictionaries({}, optional={**KEYS, **PATTERN_KEYS}),
       quiet=st.booleans())
def test_cut_configs_exit_cleanly(command, cfg, quiet):
    # without --quiet, array-factor prints the effective spacings too
    if command == "array-factor":
        cfg = {k: v for k, v in cfg.items() if k not in PATTERN_KEYS}
    code, err, rows = _run(command, cfg, quiet)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    elements = cfg.get("nx", 4) * cfg.get("ny", 2)
    directions = _theta_count(cfg)
    over_cap = (elements > cli.MAX_GRID_POINTS
                or (directions is not None
                    and directions > cli.MAX_GRID_POINTS))
    if over_cap:
        assert code == 2, err
    if code == 0:
        assert rows is not None and len(rows) <= cli.MAX_GRID_POINTS
        # a CLI grid is a product layout: each cut costs rows x (nx + ny)
        phases = 2 * len(rows) * (cfg.get("nx", 4) + cfg.get("ny", 2))
        assert phases <= cli.MAX_WORK
        # no silent garbage: every cell is finite
        assert _all_finite(rows)
    else:
        assert rows is None


# a sweep axis of 1..8 points, or one the CLI rejects before computing:
# step <= 0, stop < start, or 8e8 points (over the cap); with both axes
# always set, no example solves more than 64 cells
def _axis(prefix, unit, starts, steps):
    def keys(start, stop, step):
        return {f"{prefix}_start_{unit}": start, f"{prefix}_stop_{unit}": stop,
                f"{prefix}_step_{unit}": step}
    valid = st.builds(lambda a, d, k: keys(a, a + d * (k - 1), d),
                      starts, steps, st.integers(1, 8))
    rejected = st.one_of(
        st.builds(keys, starts, starts, st.sampled_from([0.0, -1.0])),
        st.builds(lambda a, d: keys(a, a - d, d), starts, steps),
        st.just(keys(0.0, 0.8, 1e-9)),
    )
    # mostly valid, so that most examples get as far as the solver
    return st.integers(0, 5).flatmap(lambda k: rejected if k == 0 else valid)


def _axis_count(cfg, prefix, unit):
    """Points of an axis the CLI accepted, as it counts them."""
    start, stop, step = (cfg[f"{prefix}_{k}_{unit}"]
                         for k in ("start", "stop", "step"))
    return math.floor((stop - start) / step * (1.0 + 1e-9)) + 1


TONES = st.integers(1, 80).map(lambda k: k * 0.5e9)
LEVELS = st.floats(-80.0, 10.0)
# working ranges; an example sets at most one of these keys to any number
SWEEP_KEYS = dict(
    saturation_current_a=st.floats(1e-15, 1e-9),
    ideality=st.floats(1.0, 3.0),
    series_resistance_ohm=st.floats(0.0, 100.0),
    thermal_voltage_v=st.floats(0.02, 0.03),
    lna_gain_db=st.floats(0.0, 40.0),
    if_load_ohm=st.floats(1.0, 100.0),
    source_impedance_ohm=st.floats(1.0, 100.0),
    f1_hz=TONES, f2_hz=TONES, weaker_tone_offset_db=LEVELS,
)
BIAS_AXIS = _axis("bias", "v", st.floats(-1.0, 1.0), st.floats(0.01, 0.5))
POWER_AXIS = _axis("power", "dbm", LEVELS, st.floats(1.0, 20.0))


def _one_key_anywhere(data, cfg, keys, values=NUMBERS):
    """Sometimes set one of ``keys`` to any of ``values``, in range or
    not."""
    if data.draw(st.booleans()):
        cfg[data.draw(st.sampled_from(sorted(keys)))] = data.draw(values)
    return cfg


@settings(max_examples=60, deadline=timedelta(seconds=20), derandomize=True)
@given(data=st.data())
def test_sweep_configs_exit_cleanly(data):
    cfg = data.draw(st.fixed_dictionaries({}, optional=SWEEP_KEYS))
    cfg = _one_key_anywhere(data, cfg, SWEEP_KEYS)
    cfg.update(data.draw(BIAS_AXIS))
    cfg.update(data.draw(POWER_AXIS))
    code, err, rows = _run("bias-sweep", cfg)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code != 0:
        assert rows is None
        return
    # one row per grid cell, at most 64 of them, each a finite IF power
    # and DC current
    cells = _axis_count(cfg, "bias", "v") * _axis_count(cfg, "power", "dbm")
    assert len(rows) == cells <= 64
    assert _all_finite(rows)
    # within the work cap, counted on the plan that the mixer solves
    pair = [float(cfg.get(key, cli.BIAS_SWEEP_SCHEMA.keys[key][1]))
            for key in ("f1_hz", "f2_hz")]
    _, _, solved = diode.mixing_plan(pair)
    assert cells * solved <= cli.MAX_WORK


DIODE_KEYS = {k: SWEEP_KEYS[k] for k in (
    "saturation_current_a", "ideality", "series_resistance_ohm",
    "thermal_voltage_v")}
# magnitudes at which g = (i + I_s) / nV_T or (1 + g R_s)**3 overflow
DIODE_EXTREMES = st.one_of(NUMBERS,
                           st.sampled_from([1e-300, 1e-200, 1e200, 1e300]))
VOLTAGE_AXIS = _axis("v", "v", st.one_of(st.floats(-1.0, 1.0), NUMBERS),
                     st.floats(0.01, 0.5))


@settings(max_examples=60, deadline=timedelta(seconds=20), derandomize=True)
@given(data=st.data())
def test_diode_iv_configs_exit_cleanly(data):
    cfg = data.draw(st.fixed_dictionaries({}, optional=DIODE_KEYS))
    cfg = _one_key_anywhere(data, cfg, DIODE_KEYS, DIODE_EXTREMES)
    cfg.update(data.draw(VOLTAGE_AXIS))
    code, err, rows = _run("diode-iv", cfg)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    # the static optimum printed without --quiet changes no exit status
    assert _run("diode-iv", cfg, quiet=False)[0] == code
    if code != 0:
        assert rows is None
        return
    assert len(rows) == _axis_count(cfg, "v", "v") <= 8
    assert _all_finite(rows)


DB_TERMS = st.one_of(st.floats(-60.0, 60.0), NUMBERS)
LINK_KEYS = dict(
    tx_power1_dbm=DB_TERMS, tx_power2_dbm=DB_TERMS,
    f1_hz=st.one_of(st.sampled_from([34e9, 36.5e9, 37.5e9, 38.5e9]), NUMBERS),
    f2_hz=st.one_of(st.sampled_from([34e9, 36.5e9, 37.5e9, 38.5e9]), NUMBERS),
    tx_gain_db=DB_TERMS, distance_m=st.one_of(st.floats(0.1, 100.0), NUMBERS),
    rx_directivity_db=DB_TERMS, eta1_db=st.one_of(st.floats(-3.0, 0.0),
                                                  NUMBERS),
    eta2_db=st.one_of(st.floats(-3.0, 0.0), NUMBERS),
    lna_gain_db=st.one_of(st.floats(0.0, 40.0), NUMBERS),
    conversion_gain_db=DB_TERMS, combiner_gain_db=DB_TERMS,
    if_amp_gain_db=DB_TERMS, cable_loss_db=DB_TERMS,
)


@settings(max_examples=60, deadline=timedelta(seconds=20), derandomize=True)
@given(cfg=st.fixed_dictionaries({}, optional=LINK_KEYS),
       quiet=st.booleans())
def test_link_budget_configs_exit_cleanly(cfg, quiet):
    # without --quiet, a calibrated conversion constant is printed too
    code, err, rows = _run("link-budget", cfg, quiet)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code == 0:
        assert len(rows) == 2 and _all_finite(rows)
    else:
        assert rows is None
