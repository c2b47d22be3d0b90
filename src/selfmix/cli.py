"""Command-line front end.

One flat parser and one table of commands, :data:`COMMANDS`, which gives
each its help line and config :class:`Schema`. A config file is flat
key-value text (``key = value`` per line, ``#`` comments); every physical
key carries a unit suffix (``_hz``, ``_m``, ``_dbm``, ``_v``, ...) and
unknown keys are rejected. Each ``cmd_*`` but :func:`cmd_validate` takes
``(cfg, quiet)`` and returns the :class:`Table` that :func:`main` writes to
``--out``. Identical configs yield byte-identical files.

Exit status: 0 on success; 2 for a configuration error, raised as
:class:`ConfigError`; 3 for a computation error (a model or solver
failure), raised as any other ``ValueError`` or as an ``OverflowError``
past the float range. Of those, only :class:`selfmix.diode.NoInteriorMaximum`
has a class of its own, because ``diode-iv`` and the bias-optimum check
catch it by name.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import arrays, diode, linkbudget, patterns, signals, validation
from .tables import Table
from .units import SPEED_OF_LIGHT, amplitude_ratio_to_db, dbm_to_amplitude

# Largest grid (directions, voltages, sweep cells, array elements), checked
# before anything is allocated; far above the 18 001 directions of the
# largest cut in use.
MAX_GRID_POINTS = 1_000_000
# Most phases an IF and RF array-factor cut pair may span, counted as the
# direction x element work of a direct sum (arrays.cut_phase_count), so that
# no cut runs for hours; above the 2 x 18 001 x 4096 of a summed 64 x 64
# layout at 0.01 deg.
MAX_CUT_PHASES = 200_000_000


class ConfigError(ValueError):
    """CLI configuration is malformed (unknown key, bad value, missing file)."""


_EPILOG = ("exit status: 0 success, 2 configuration error (bad key/value,\n"
           "unreadable file), 3 computation error (solver or model failure)")


def _parse_config_text(text: str, source: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', "
                              f"got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: empty key or value")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


class Schema:
    """Typed key set for one subcommand's config."""

    def __init__(self, **keys: tuple[Callable, object]):
        self.keys = keys  # name -> (parser, default)

    def resolve(self, raw: dict[str, str]) -> dict:
        unknown = set(raw) - set(self.keys)
        if unknown:
            raise ConfigError(
                "unknown config key(s): " + ", ".join(sorted(unknown))
                + "; allowed: " + ", ".join(sorted(self.keys)))
        out = {}
        for name, (parse, default) in self.keys.items():
            if name in raw:
                try:
                    out[name] = parse(raw[name])
                except ValueError as exc:
                    raise ConfigError(f"config key {name}: {exc}") from exc
                if isinstance(out[name], float) and not math.isfinite(out[name]):
                    raise ConfigError(f"config key {name}: must be finite, "
                                      f"got {raw[name]!r}")
            else:
                out[name] = default
        return out


def _load_config(path: str | None, schema: Schema) -> dict:
    if path is None:
        return schema.resolve({})
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    return schema.resolve(_parse_config_text(p.read_text(encoding="utf-8"),
                                             str(path)))


def _check_grid_size(points: int | float, name: str,
                     limit: int | None = None) -> None:
    """Refuse a count (an exact int, or ``inf`` past the float range) above
    ``limit``, naming it exactly."""
    limit = MAX_GRID_POINTS if limit is None else limit
    if not points <= limit:
        raise ConfigError(f"{name} grid would have {points} points; "
                          f"the limit is {limit}")


def _grid_count(start: float, stop: float, step: float, name: str) -> int:
    """Points of ``start, start + step, ...`` up to ``stop``, checked
    against :data:`MAX_GRID_POINTS`. A point past the stop by no more than
    1e-9 of the span counts, so that a whole number of steps which rounding
    leaves just short keeps its last point; no further point does."""
    ratio = (stop - start) / step * (1.0 + 1e-9)
    count = math.floor(ratio) + 1 if math.isfinite(ratio) else math.inf
    _check_grid_size(count, name)
    return count


def _theta_grid_deg(cfg: dict, start_key: str = "theta_start_deg",
                    stop_key: str = "theta_stop_deg",
                    step_key: str = "theta_step_deg",
                    name: str = "theta") -> np.ndarray:
    """The strict grid ``start, start + step, ...`` up to ``stop`` of three
    config keys (the theta cut's by default): at least two points, so a
    stop that is not above the start or a step that is not positive is
    refused by key name."""
    start, stop, step = cfg[start_key], cfg[stop_key], cfg[step_key]
    if step <= 0.0 or stop <= start:
        raise ConfigError(f"need {stop_key} > {start_key} and "
                          f"{step_key} > 0")
    return start + step * np.arange(_grid_count(start, stop, step, name))


@contextlib.contextmanager
def _invariants_are_config_errors() -> Iterator[None]:
    """An invariant a model object rejects when built from config values is
    a configuration error (exit 2), not a computation error."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _geometry_from_config(cfg: dict) -> arrays.ArrayGeometry:
    with _invariants_are_config_errors():
        if cfg["geometry_file"]:
            text = Path(cfg["geometry_file"]).read_text(encoding="utf-8")
            return arrays.parse_geometry(text, MAX_GRID_POINTS)
        _check_grid_size(cfg["nx"] * cfg["ny"], "element")
        return arrays.ArrayGeometry.planar_grid(cfg["nx"], cfg["ny"],
                                                cfg["dx_m"], cfg["dy_m"])


def _factor_cuts(geometry: arrays.ArrayGeometry, cfg: dict, theta: np.ndarray,
                 phi: float) -> tuple[np.ndarray, np.ndarray]:
    """IF and RF array-factor cuts, checked against :data:`MAX_CUT_PHASES`."""
    _require_positive(cfg, "f1_hz", "f2_hz", "rf_freq_hz")
    _check_grid_size(arrays.cut_phase_count(geometry, theta.size),
                     "array-factor phase", MAX_CUT_PHASES)
    return (arrays.if_array_factor_cut(geometry, cfg["f1_hz"], cfg["f2_hz"],
                                       theta, phi),
            arrays.rf_array_factor_cut(geometry, cfg["rf_freq_hz"], theta,
                                       phi))


_GEOMETRY_KEYS = dict(
    geometry_file=(str, ""),
    nx=(int, 4),
    ny=(int, 2),
    dx_m=(float, 0.032),
    dy_m=(float, 0.036),
)

_CUT_KEYS = dict(
    phi_cut_deg=(float, 90.0),
    theta_start_deg=(float, -90.0),
    theta_stop_deg=(float, 90.0),
    theta_step_deg=(float, 0.25),
)

_DIODE_KEYS = dict(
    saturation_current_a=(float, 2.5e-13),
    ideality=(float, 1.2),
    series_resistance_ohm=(float, 6.2),
    thermal_voltage_v=(float, 0.02585),
)

_CHAIN_KEYS = dict(
    lna_gain_db=(float, 25.0),
    if_load_ohm=(float, 50.0),
    source_impedance_ohm=(float, 50.0),
)


def _diode_from_config(cfg: dict) -> diode.DiodeModel:
    with _invariants_are_config_errors():
        return diode.DiodeModel(saturation_current=cfg["saturation_current_a"],
                                ideality=cfg["ideality"],
                                series_resistance=cfg["series_resistance_ohm"],
                                thermal_voltage=cfg["thermal_voltage_v"])


def _require_positive(cfg: dict, *keys: str) -> None:
    for key in keys:
        if not cfg[key] > 0.0:
            raise ConfigError(f"{key} must be positive, got {cfg[key]!r}")


def _chain_from_config(cfg: dict) -> diode.MixingChain:
    _require_positive(cfg, "if_load_ohm", "source_impedance_ohm")
    with _invariants_are_config_errors():
        return diode.MixingChain(
            lna_gain_db=cfg["lna_gain_db"], diode=_diode_from_config(cfg),
            if_load_ohms=cfg["if_load_ohm"],
            source_impedance_ohms=cfg["source_impedance_ohm"])


# --------------------------------------------------------------------------
# subcommands


SPECTRUM_SCHEMA = Schema(
    carrier_freq_hz=(float, 37.5e9),
    carrier_amp_v=(float, 1.0),
    band_low_hz=(float, 38.0e9),
    band_high_hz=(float, 38.5e9),
    band_tone_count=(int, 4),
    band_amp_v=(float, 0.25),
    frequency_grid_hz=(float, 1e8),
)


def cmd_spectrum(cfg: dict, quiet: bool) -> Table:
    """Carrier-plus-band self-mixing demo: original and squared spectra.

    Every tone snaps to the nearest multiple of ``frequency_grid_hz``; band
    tones that snap to one frequency are one tone of their summed
    amplitude."""
    grid = cfg["frequency_grid_hz"]
    if grid <= 0:
        raise ConfigError("frequency_grid_hz must be positive")
    count = cfg["band_tone_count"]
    if count < 1:
        raise ConfigError("band_tone_count must be >= 1")
    _check_grid_size(count, "band tone")
    with np.errstate(over="ignore", invalid="ignore"):
        band = (np.linspace(cfg["band_low_hz"], cfg["band_high_hz"], count)
                if count > 1 else np.array([cfg["band_low_hz"]]))
        tones_hz = np.append(cfg["carrier_freq_hz"], band)
        snapped = np.round(tones_hz / grid) * grid
    if not np.all(np.isfinite(snapped)):
        raise ConfigError("tone frequencies in steps of frequency_grid_hz "
                          "overflow the float range")
    band, first, multiplicity = np.unique(snapped[1:], return_index=True,
                                          return_counts=True)
    order = np.argsort(first)  # the band's order, in which tones are summed
    with _invariants_are_config_errors():  # say a tone that snaps to 0 Hz
        amplitudes, frequencies, _ = signals.check_tones(
            np.append(cfg["carrier_amp_v"],
                      multiplicity[order] * cfg["band_amp_v"]),
            np.append(snapped[0], band[order]))
    rate, duration = signals.plan_sampling(frequencies)
    # a printed spectrum resolves the slowest tone over at least four
    # periods: repeat the common period, which keeps every bin exact
    samples = int(round(duration * rate))
    while samples / rate * frequencies.min() < 4.0:
        samples *= 2
        if samples > signals.MAX_SAMPLES:
            raise ValueError(
                "frequencies share no common grid coarse enough to sample "
                f"with <= {signals.MAX_SAMPLES} points")
    # the record's peak is at most the amplitude sum, and a DFT bin of its
    # square sums `samples` terms of at most peak**2; the factor 4 leaves
    # room for the FFT's partial sums and the one-sided doubling
    peak = sum(amplitudes.tolist())
    if not math.isfinite(4.0 * samples * peak * peak):
        raise OverflowError(
            f"the squared record of amplitudes summing to {peak} V over "
            f"{samples} samples overflows the float range")
    w = signals.synthesize_waveform(amplitudes, frequencies, 0.0, rate,
                                    samples)
    return Table(columns=["frequency_hz", "original_amplitude_v",
                          "mixed_amplitude_v"],
                 rows=np.column_stack([
                     np.arange(samples // 2 + 1) * (rate / samples),
                     np.abs(signals.dft_spectrum(w)),
                     np.abs(signals.dft_spectrum(w * w))]))


DIODE_IV_SCHEMA = Schema(
    **_DIODE_KEYS,
    v_start_v=(float, 0.0),
    v_stop_v=(float, 0.9),
    v_step_v=(float, 0.002),
)


def cmd_diode_iv(cfg: dict, quiet: bool) -> Table:
    model = _diode_from_config(cfg)
    grid = _theta_grid_deg(cfg, "v_start_v", "v_stop_v", "v_step_v",
                           "voltage")
    current = np.asarray(diode.terminal_current(model, grid))
    di_dv, d2i_dv2 = diode.iv_derivatives(model, grid)
    table = Table(columns=["voltage_v", "current_a", "di_dv_s",
                           "d2i_dv2_s_per_v"],
                  rows=np.column_stack([grid, current, di_dv, d2i_dv2]))
    if not quiet:
        try:
            v, i = diode.optimal_bias_static(
                model, (cfg["v_start_v"], cfg["v_stop_v"]))
            print(f"static optimum: {v:.4f} V, {i * 1e3:.3f} mA")
        except diode.NoInteriorMaximum as exc:
            print(f"static optimum: none ({exc})")
    return table


BIAS_SWEEP_SCHEMA = Schema(
    **_DIODE_KEYS, **_CHAIN_KEYS,
    bias_start_v=(float, 0.0),
    bias_stop_v=(float, 0.8),
    bias_step_v=(float, 0.05),
    power_start_dbm=(float, -60.0),
    power_stop_dbm=(float, -10.0),
    power_step_dbm=(float, 5.0),
    f1_hz=(float, 37.5e9),
    f2_hz=(float, 38.5e9),
    weaker_tone_offset_db=(float, -5.0),
)


def _check_tone_pair(f1: float, f2: float) -> None:
    """Two tones with positive, distinct frequencies, so that their
    difference is a positive IF; anything else is bad config."""
    if not (f1 > 0.0 and f2 > 0.0 and f1 != f2):
        raise ConfigError("the two tones need positive, distinct "
                          f"frequencies, got {f1!r} and {f2!r} Hz")


def cmd_bias_sweep(cfg: dict, quiet: bool) -> Table:
    _check_tone_pair(cfg["f1_hz"], cfg["f2_hz"])
    chain = _chain_from_config(cfg)
    bias = _grid(cfg["bias_start_v"], cfg["bias_stop_v"], cfg["bias_step_v"],
                 "bias")
    power = _grid(cfg["power_start_dbm"], cfg["power_stop_dbm"],
                  cfg["power_step_dbm"], "power")
    _check_grid_size(len(bias) * len(power), "bias x power")
    # cells in bias-major order; the second tone is driven
    # weaker_tone_offset_db relative to the first
    z = chain.source_impedance_ohms
    drive = [(dbm_to_amplitude(p, z),
              dbm_to_amplitude(p + cfg["weaker_tone_offset_db"], z))
             for p in power]
    bias_v = np.repeat(bias, len(power))
    if_power_dbm, dc_current = diode.mix_cells(
        chain, bias_v, drive * len(bias), (cfg["f1_hz"], cfg["f2_hz"]))
    return Table(columns=["bias_v", "input_power_dbm", "if_power_dbm",
                          "dc_current_a"],
                 rows=np.column_stack([bias_v, np.tile(power, len(bias)),
                                       if_power_dbm, dc_current]))


def _grid(start: float, stop: float, step: float, name: str) -> list[float]:
    if step <= 0.0 or stop < start:
        raise ConfigError(f"need {name} stop >= start and step > 0")
    return [start + step * k
            for k in range(_grid_count(start, stop, step, name))]


ARRAY_FACTOR_SCHEMA = Schema(
    **_GEOMETRY_KEYS, **_CUT_KEYS,
    f1_hz=(float, 37.5e9),
    f2_hz=(float, 38.5e9),
    rf_freq_hz=(float, 38.5e9),
)


def cmd_array_factor(cfg: dict, quiet: bool) -> Table:
    geometry = _geometry_from_config(cfg)
    theta_deg = _theta_grid_deg(cfg)
    phi = math.radians(cfg["phi_cut_deg"])
    af_if, af_rf = _factor_cuts(geometry, cfg, np.radians(theta_deg), phi)
    if not quiet and not cfg["geometry_file"]:
        delta_f = abs(cfg["f1_hz"] - cfg["f2_hz"])
        for pitch, count, axis in ((abs(cfg["dx_m"]), cfg["nx"], "x"),
                                   (abs(cfg["dy_m"]), cfg["ny"], "y")):
            if count > 1:
                e_if = arrays.effective_spacing(pitch, delta_f)
                e_rf = pitch * cfg["rf_freq_hz"] / SPEED_OF_LIGHT
                print(f"{axis}-pitch {pitch * 1e3:.1f} mm: effective IF "
                      f"spacing {e_if:.4f} wavelengths vs {e_rf:.3f} at RF")
    return Table(columns=["theta_deg", "phi_deg", "af_if", "af_rf",
                          "af_if_db", "af_rf_db"],
                 rows=np.column_stack([
                     theta_deg, np.full(theta_deg.size, cfg["phi_cut_deg"]),
                     af_if, af_rf, amplitude_ratio_to_db(af_if),
                     amplitude_ratio_to_db(af_rf)]))


PATTERN_SCHEMA = Schema(
    **_GEOMETRY_KEYS, **_CUT_KEYS,
    f1_hz=(float, 37.5e9),
    f2_hz=(float, 38.5e9),
    rf_freq_hz=(float, 38.5e9),
    element_kind=(str, "cos_q"),
    cos_exponent=(float, 1.0),
    beam_tilt_deg=(float, 30.0),
    beam_width_deg=(float, 20.0),
    pattern_file_1=(str, ""),
    pattern_file_2=(str, ""),
)


def cmd_pattern(cfg: dict, quiet: bool) -> Table:
    geometry = _geometry_from_config(cfg)
    theta_deg = _theta_grid_deg(cfg)
    theta = np.radians(theta_deg)
    phi = math.radians(cfg["phi_cut_deg"])
    if cfg["pattern_file_1"] or cfg["pattern_file_2"]:
        if not (cfg["pattern_file_1"] and cfg["pattern_file_2"]):
            raise ConfigError("supply both pattern_file_1 and pattern_file_2 "
                              "or neither")
    # element patterns and their cuts are built from config values: what
    # they reject (a negative exponent, a theta grid past +-90 deg or of
    # fewer than 3 directions, a malformed pattern file) is bad config
    with _invariants_are_config_errors():
        if cfg["pattern_file_1"]:
            c1 = patterns.read_pattern_csv(cfg["pattern_file_1"])
            c2 = patterns.read_pattern_csv(cfg["pattern_file_2"])
        else:  # an analytic element has one pattern at both tones
            c1 = c2 = _element_pattern(cfg, theta)
        sm = patterns.self_mix_pattern(c1, c2).normalized()
    af_if, af_rf = _factor_cuts(geometry, cfg, sm.theta_samples, phi)
    db = amplitude_ratio_to_db
    return Table(columns=["theta_deg", "gain_db", "af_if", "af_rf",
                          "total_if_db", "total_rf_db"],
                 rows=np.column_stack([
                     np.degrees(sm.theta_samples), db(sm.gains), af_if, af_rf,
                     db(sm.gains * af_if), db(sm.gains * af_rf)]))


def _element_pattern(cfg: dict, theta: np.ndarray) -> patterns.PatternGrid:
    kind = cfg["element_kind"]
    if kind == "isotropic":
        return patterns.cos_q(theta, 0.0)
    if kind == "cos_q":
        return patterns.cos_q(theta, cfg["cos_exponent"])
    if kind == "two_beam":
        return patterns.two_beam(theta, math.radians(cfg["beam_tilt_deg"]),
                                 math.radians(cfg["beam_width_deg"]))
    raise ConfigError(f"unknown element_kind {kind!r} "
                      "(isotropic, cos_q, two_beam)")


LINK_BUDGET_SCHEMA = Schema(
    tx_power1_dbm=(float, 0.0),
    tx_power2_dbm=(float, 5.0),
    f1_hz=(float, 34e9),
    f2_hz=(float, 36.5e9),
    tx_gain_db=(float, 25.0),
    distance_m=(float, 1.5),
    rx_directivity_db=(float, 0.0),
    eta1_db=(float, math.nan),  # nan -> use the built-in default table
    eta2_db=(float, math.nan),
    lna_gain_db=(float, 25.0),
    conversion_gain_db=(float, math.nan),  # nan -> calibrate via simulation
    combiner_gain_db=(float, 0.0),
    if_amp_gain_db=(float, 0.0),
    cable_loss_db=(float, 0.0),
)


def cmd_link_budget(cfg: dict, quiet: bool) -> Table:
    links = []  # friis_rx_power's arguments per tone, both checked first
    with _invariants_are_config_errors():
        for n in ("1", "2"):
            eta = cfg[f"eta{n}_db"]
            if eta > 0.0:
                raise ConfigError(f"eta{n}_db must be <= 0, got {eta!r}")
            if math.isnan(eta):
                try:
                    eta = linkbudget.default_total_efficiency_db(
                        cfg[f"f{n}_hz"])
                except ValueError as exc:
                    raise ConfigError(f"{exc}; set eta{n}_db") from exc
            links.append((cfg[f"tx_power{n}_dbm"], cfg["tx_gain_db"],
                          cfg["distance_m"], cfg[f"f{n}_hz"],
                          cfg["rx_directivity_db"], eta))
            linkbudget.check_link(*links[-1])
    rx = [linkbudget.friis_rx_power(*link) for link in links]
    conversion = cfg["conversion_gain_db"]
    if math.isnan(conversion):
        conversion = linkbudget.calibrate_conversion_gain(
            diode.default_chain(lna_gain_db=cfg["lna_gain_db"]))
        if not quiet:
            print(f"calibrated conversion constant: {conversion:.3f} dB")
    if_out = linkbudget.chain_output_power(
        rx[0], rx[1], cfg["lna_gain_db"], conversion, cfg["combiner_gain_db"],
        cfg["if_amp_gain_db"], cfg["cable_loss_db"])
    return Table(columns=["frequency_hz", "tx_power_dbm", "eta_tot_db",
                          "rx_power_dbm", "if_output_dbm"],
                 rows=np.array([(f, p_tx, eta, p_rx, if_out)
                                for (p_tx, _, _, f, _, eta), p_rx
                                in zip(links, rx)]))


def cmd_validate(out: str | None, fmt: str, quiet: bool) -> int:
    """Run the self-checks; write their ``status,name,detail`` report to
    ``out`` if given. Returns the exit status."""
    results = validation.run_all()
    for r in results:
        if not quiet or r.status == "FAIL":
            print(f"{r.status:4s} {r.name}")
            print(f"     {r.detail}")
    failures = [r for r in results if not r.note and not r.passed]
    if out is not None:
        rows = [["status", "name", "detail"],
                *([r.status, r.name, r.detail] for r in results)]
        with open(out, "w", encoding="utf-8", newline="") as fh:
            if fmt == "csv":
                csv.writer(fh, lineterminator="\n").writerows(rows)
            else:
                fh.write(json.dumps({"columns": rows[0], "rows": rows[1:]},
                                    indent=2) + "\n")
    if not quiet:
        notes = sum(1 for r in results if r.note)
        print(f"{len(results) - len(failures) - notes} passed, "
              f"{len(failures)} failed, {notes} known deviations noted")
    return 3 if failures else 0


# command -> (help line, config schema); validate takes no config file.
# main looks each cmd_* up in the module namespace when it runs, so that a
# wrapper set on the module attribute is the one called.
COMMANDS: dict[str, tuple[str, Schema | None]] = {
    "spectrum": ("two-tone / carrier-plus-band self-mixed spectrum demo",
                 SPECTRUM_SCHEMA),
    "diode-iv": ("diode I-V curve with first and second derivatives",
                 DIODE_IV_SCHEMA),
    "bias-sweep": ("IF power over (bias voltage, input power) grid",
                   BIAS_SWEEP_SCHEMA),
    "array-factor": ("IF and RF array factor cuts for a layout",
                     ARRAY_FACTOR_SCHEMA),
    "pattern": ("element pattern products and total receive patterns",
                PATTERN_SCHEMA),
    "link-budget": ("Friis receive powers and chain IF output",
                    LINK_BUDGET_SCHEMA),
    "validate": ("run the oracle-equivalence and anchor self-checks", None),
}


def build_parser() -> argparse.ArgumentParser:
    commands = "".join(f"  {name:14s}{help_text}\n"
                       for name, (help_text, _) in COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="selfmix",
        description="Self-mixing receive-array simulations: spectra, diode "
                    "bias, array factors,\npatterns and link budgets.",
        epilog=f"commands:\n{commands}\n{_EPILOG}",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=COMMANDS, metavar="command",
                        help="one of the commands listed below")
    parser.add_argument("--config", help="flat key = value config file "
                                         "(not for validate)")
    parser.add_argument("--out", help="output file path (optional for "
                                      "validate)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress informational prints")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    schema = COMMANDS[args.command][1]
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        if schema is None and args.config is not None:
            raise ConfigError("validate takes no config file")
        if schema is not None and args.out is None:
            raise ConfigError("--out is required for this subcommand")
        # refused before any work: a file that could not be written
        if args.out is not None and (Path(args.out).is_dir()
                                     or not Path(args.out).parent.is_dir()):
            raise ConfigError(f"--out {args.out} is not a file in an "
                              "existing directory")
        if schema is None:
            return command(args.out, args.format, args.quiet)
        table = command(_load_config(args.config, schema), args.quiet)
        table.write(args.out, args.format)
        if not args.quiet:
            print(f"wrote {len(table.rows)} rows to {args.out}")
        return 0
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        # OverflowError: a dB value past float range, e.g. a 7000 dB gain
        print(f"computation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
