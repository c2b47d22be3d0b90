"""Command-line front end.

One subcommand per capability, each driven by an optional flat key-value
config file (``key = value`` per line, ``#`` comments) plus ``--out`` /
``--format`` flags. All physical config keys carry unit suffixes (``_hz``,
``_m``, ``_dbm``, ``_v``, ...); unknown keys are rejected. Outputs are
deterministic: identical configs yield byte-identical files.

Exit status: 0 on success, 2 for configuration errors, 3 for computation
errors.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import arrays, diode, linkbudget, patterns, signals, validation
from .errors import ConfigError, InvalidParams, NyquistViolation, SelfmixError
from .tables import Table
from .units import SPEED_OF_LIGHT, amplitude_ratio_to_db

# Largest grid (directions, voltages, sweep cells, array elements), checked
# before anything is allocated; far above the 18 001 directions of the
# largest cut in use.
MAX_GRID_POINTS = 1_000_000
# Most phases an IF and RF array-factor cut pair may span, counted as the
# direction x element work of a direct sum (arrays.cut_phase_count), so that
# no cut runs for hours; above the 2 x 18 001 x 4096 of a summed 64 x 64
# layout at 0.01 deg.
MAX_CUT_PHASES = 200_000_000

_EPILOG = ("exit status: 0 success, 2 configuration error (bad key/value, "
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


def _write_output(table: Table, out: str | None, fmt: str,
                  quiet: bool) -> None:
    if out is None:
        raise ConfigError("--out is required for this subcommand")
    table.write(out, fmt)
    if not quiet:
        print(f"wrote {len(table.rows)} rows to {out}")


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
    against :data:`MAX_GRID_POINTS`."""
    ratio = (stop - start) / step
    count = round(ratio) + 1 if math.isfinite(ratio) else math.inf
    _check_grid_size(count, name)
    return count


def _theta_grid_deg(start: float, stop: float, step: float) -> np.ndarray:
    if step <= 0.0 or stop <= start:
        raise ConfigError("need theta_stop_deg > theta_start_deg and "
                          "theta_step_deg > 0")
    return start + step * np.arange(_grid_count(start, stop, step, "theta"))


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
            return arrays.load_geometry(cfg["geometry_file"],
                                        MAX_GRID_POINTS)
        _check_grid_size(cfg["nx"] * cfg["ny"], "element")
        return arrays.ArrayGeometry.planar_grid(cfg["nx"], cfg["ny"],
                                                cfg["dx_m"], cfg["dy_m"])


def _factor_cuts(geometry: arrays.ArrayGeometry, cfg: dict, theta: np.ndarray,
                 phi: float) -> tuple[np.ndarray, np.ndarray]:
    """IF and RF array-factor cuts, checked against :data:`MAX_CUT_PHASES`."""
    _check_grid_size(arrays.cut_phase_count(geometry, theta.size)
                     + arrays.cut_phase_count(geometry, theta.size,
                                              geometry.rf_phase_offsets),
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


def _chain_from_config(cfg: dict) -> diode.MixingChain:
    for key in ("if_load_ohm", "source_impedance_ohm"):
        if not cfg[key] > 0.0:
            raise ConfigError(f"{key} must be positive, got {cfg[key]!r}")
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


def cmd_spectrum(cfg: dict) -> Table:
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
        tones = [signals.ToneSpec(float(snapped[0]), cfg["carrier_amp_v"])]
        tones += [signals.ToneSpec(float(f), float(k) * cfg["band_amp_v"])
                  for f, k in zip(band[order], multiplicity[order])]
    rate, duration = signals.plan_sampling([t.frequency for t in tones])
    # a printed spectrum resolves the slowest tone over at least four
    # periods: repeat the common period, which keeps every bin exact
    samples = int(round(duration * rate))
    while samples / rate * min(t.frequency for t in tones) < 4.0:
        samples *= 2
        if samples > signals.MAX_SAMPLES:
            raise NyquistViolation(
                "frequencies share no common grid coarse enough to sample "
                f"with <= {signals.MAX_SAMPLES} points")
    # the record's peak is at most the amplitude sum, and a DFT bin of its
    # square sums `samples` terms of at most peak**2; the factor 4 leaves
    # room for the FFT's partial sums and the one-sided doubling
    peak = sum(t.amplitude for t in tones)
    if not math.isfinite(4.0 * samples * peak * peak):
        raise OverflowError(
            f"the squared record of amplitudes summing to {peak} V over "
            f"{samples} samples overflows the float range")
    w = signals.synthesize_waveform(tones, rate, samples / rate)
    original = signals.dft_spectrum(w)
    mixed = signals.dft_spectrum(signals.square_law_mix(w))
    return Table(columns=["frequency_hz", "original_amplitude_v",
                          "mixed_amplitude_v"],
                 rows=np.column_stack([mixed.bin_frequencies,
                                       original.magnitudes,
                                       mixed.magnitudes]))


DIODE_IV_SCHEMA = Schema(
    **_DIODE_KEYS,
    v_start_v=(float, 0.0),
    v_stop_v=(float, 0.9),
    v_step_v=(float, 0.002),
)


def cmd_diode_iv(cfg: dict, quiet: bool) -> Table:
    model = _diode_from_config(cfg)
    if cfg["v_step_v"] <= 0 or cfg["v_stop_v"] <= cfg["v_start_v"]:
        raise ConfigError("need v_stop_v > v_start_v and v_step_v > 0")
    count = _grid_count(cfg["v_start_v"], cfg["v_stop_v"], cfg["v_step_v"],
                        "voltage")
    grid = cfg["v_start_v"] + cfg["v_step_v"] * np.arange(count)
    current = np.asarray(diode.terminal_current(model, grid))
    deriv = diode.iv_derivatives(model, grid)
    table = Table(columns=["voltage_v", "current_a", "di_dv_s",
                           "d2i_dv2_s_per_v"],
                  rows=np.column_stack([grid, current, deriv.di_dv,
                                        deriv.d2i_dv2]))
    if not quiet:
        try:
            opt = diode.optimal_bias_static(
                model, (float(grid[0]), float(grid[-1])))
            print(f"static optimum: {opt.terminal_voltage:.4f} V, "
                  f"{opt.bias_current * 1e3:.3f} mA")
        except SelfmixError as exc:
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


def cmd_bias_sweep(cfg: dict) -> Table:
    _check_tone_pair(cfg["f1_hz"], cfg["f2_hz"])
    chain = _chain_from_config(cfg)
    bias = _grid(cfg["bias_start_v"], cfg["bias_stop_v"], cfg["bias_step_v"],
                 "bias")
    power = _grid(cfg["power_start_dbm"], cfg["power_stop_dbm"],
                  cfg["power_step_dbm"], "power")
    _check_grid_size(len(bias) * len(power), "bias x power")
    sweep = diode.bias_power_sweep(chain, bias, power,
                                   (cfg["f1_hz"], cfg["f2_hz"]),
                                   cfg["weaker_tone_offset_db"])
    return sweep.to_table()


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
    theta_deg = _theta_grid_deg(cfg["theta_start_deg"], cfg["theta_stop_deg"],
                                cfg["theta_step_deg"])
    phi = math.radians(cfg["phi_cut_deg"])
    af_if, af_rf = _factor_cuts(geometry, cfg, np.radians(theta_deg), phi)
    if not quiet and not cfg["geometry_file"]:
        delta_f = abs(cfg["f1_hz"] - cfg["f2_hz"])
        for pitch, count, axis in ((cfg["dx_m"], cfg["nx"], "x"),
                                   (cfg["dy_m"], cfg["ny"], "y")):
            if count > 1:
                e_if = arrays.effective_spacing(pitch, delta_f,
                                                cfg["rf_freq_hz"])
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


def cmd_pattern(cfg: dict) -> Table:
    geometry = _geometry_from_config(cfg)
    theta_deg = _theta_grid_deg(cfg["theta_start_deg"], cfg["theta_stop_deg"],
                                cfg["theta_step_deg"])
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
    links = []
    with _invariants_are_config_errors():
        for n in ("1", "2"):
            eta = cfg[f"eta{n}_db"]
            if eta > 0.0:
                raise ConfigError(f"eta{n}_db must be <= 0, got {eta!r}")
            if math.isnan(eta):
                try:
                    eta = linkbudget.default_total_efficiency_db(
                        cfg[f"f{n}_hz"])
                except InvalidParams as exc:
                    raise ConfigError(f"{exc}; set eta{n}_db") from exc
            links.append(linkbudget.LinkBudgetParams(
                tx_power_dbm=cfg[f"tx_power{n}_dbm"],
                tx_gain_db=cfg["tx_gain_db"], distance_m=cfg["distance_m"],
                frequency_hz=cfg[f"f{n}_hz"],
                rx_directivity_db=cfg["rx_directivity_db"],
                total_efficiency_db=eta))
    rx = [linkbudget.friis_rx_power(params) for params in links]
    conversion = cfg["conversion_gain_db"]
    if math.isnan(conversion):
        conversion = linkbudget.calibrate_conversion_gain(
            diode.default_chain(lna_gain_db=cfg["lna_gain_db"]))
        if not quiet:
            print(f"calibrated conversion constant: {conversion:.3f} dB")
    chain = linkbudget.ChainSpec(
        lna_gain_db=cfg["lna_gain_db"], conversion_gain_db=conversion,
        combiner_gain_db=cfg["combiner_gain_db"],
        if_amp_gain_db=cfg["if_amp_gain_db"],
        cable_loss_db=cfg["cable_loss_db"])
    if_out = linkbudget.chain_output_power((rx[0], rx[1]), chain)
    return Table(columns=["frequency_hz", "tx_power_dbm", "eta_tot_db",
                          "rx_power_dbm", "if_output_dbm"],
                 rows=np.array([(p.frequency_hz, p.tx_power_dbm,
                                 p.total_efficiency_db, p_rx, if_out)
                                for p, p_rx in zip(links, rx)]))


def cmd_validate(out: str | None, fmt: str, quiet: bool) -> int:
    results = validation.run_all()
    for r in results:
        if not quiet or r.status == "FAIL":
            print(f"{r.status:4s} {r.name}")
            print(f"     {r.detail}")
    failures = [r for r in results if not r.note and not r.passed]
    if out is not None:
        table = Table(columns=["status", "name", "detail"])
        for r in results:
            table.append([r.status, r.name, r.detail])
        table.write(out, fmt)
    if not quiet:
        notes = sum(1 for r in results if r.note)
        print(f"{len(results) - len(failures) - notes} passed, "
              f"{len(failures)} failed, {notes} known deviations noted")
    return 3 if failures else 0


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfmix",
        description="Self-mixing receive-array simulations: spectra, diode "
                    "bias, array factors, patterns and link budgets.",
        epilog=_EPILOG)
    sub = parser.add_subparsers(dest="command", required=True)

    subcommands = [
        ("spectrum", "two-tone / carrier-plus-band self-mixed spectrum demo"),
        ("diode-iv", "diode I-V curve with first and second derivatives"),
        ("bias-sweep", "IF power over (bias voltage, input power) grid"),
        ("array-factor", "IF and RF array factor cuts for a layout"),
        ("pattern", "element pattern products and total receive patterns"),
        ("link-budget", "Friis receive powers and chain IF output"),
        ("validate", "run the oracle-equivalence and anchor self-checks"),
    ]
    for name, help_text in subcommands:
        p = sub.add_parser(name, help=help_text, epilog=_EPILOG)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--quiet", action="store_true",
                       help="suppress informational prints")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            if args.config is not None:
                raise ConfigError("validate takes no config file")
            return cmd_validate(args.out, args.format, args.quiet)
        if args.command == "spectrum":
            table = cmd_spectrum(_load_config(args.config, SPECTRUM_SCHEMA))
        elif args.command == "diode-iv":
            table = cmd_diode_iv(_load_config(args.config, DIODE_IV_SCHEMA),
                                 args.quiet)
        elif args.command == "bias-sweep":
            table = cmd_bias_sweep(_load_config(args.config, BIAS_SWEEP_SCHEMA))
        elif args.command == "array-factor":
            table = cmd_array_factor(_load_config(args.config,
                                                  ARRAY_FACTOR_SCHEMA),
                                     args.quiet)
        elif args.command == "pattern":
            table = cmd_pattern(_load_config(args.config, PATTERN_SCHEMA))
        elif args.command == "link-budget":
            table = cmd_link_budget(_load_config(args.config,
                                                 LINK_BUDGET_SCHEMA),
                                    args.quiet)
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigError(f"unknown command {args.command}")
        _write_output(table, args.out, args.format, args.quiet)
        return 0
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SelfmixError, ValueError, OverflowError) as exc:
        # OverflowError: a dB value past float range, e.g. a 7000 dB gain
        print(f"computation error: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:  # console script wrapper
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
