"""Schottky diode model and square-law mixing simulations.

The diode is a Shockley junction with a series resistance:

    i = I_s * (exp(v_j / (n * V_T)) - 1),      v_j = v_terminal - i * R_s

With ``R_s > 0`` the second derivative of the terminal I-V curve has an
interior maximum, which is the classical "best bias point" of a square-law
detector; with ``R_s = 0`` the curve is purely exponential and the second
derivative grows monotonically.

Mixing is simulated with a memoryless voltage drive: the amplified receive
tones plus the bias voltage form a source that drives the diode through the
chain's source impedance, the loop current is solved sample by sample, and
the IF component is read from its DFT. Amplifier and filters are collapsed
into a flat gain and an ideal IF load; there is no junction capacitance and
hence no frequency dependence unless configured. This keeps every
qualitative behaviour of the real chain at desk scale: the square-law slope,
a whole-chain bias optimum well below the static one, near-cancellation of
the conversion loss by the amplifier gain at moderate drive, and bias
insensitivity once the diode rectifies hard.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    EmptyToneList,
    NoInteriorMaximum,
    NyquistViolation,
)
from .signals import SampledWaveform, ToneSpec, dft_spectrum, plan_sampling, synthesize_waveform
from .tables import Table
from .units import DB_FLOOR, db_to_amplitude_ratio, dbm_to_amplitude, watts_to_dbm

EXP_CLAMP = 60.0
"""Exponent arguments of the Shockley law are clamped at this value to avoid
overflow; the clamp only engages for junction voltages far outside any
operating point (about 1.9 V for typical parameters)."""

OMEGA_STEPS = 6
"""Newton steps of the terminal-current solve: from the asymptotic start,
five leave a relative error below 3e-10 for I_s R_s / nV_T in [1e-300,
1e12] and |v| / nV_T up to 1e7, and each further step squares it."""


@dataclass(frozen=True)
class DiodeModel:
    """Shockley diode with ohmic series resistance.

    ``thermal_voltage`` defaults to kT/q at 300 K.
    """

    saturation_current: float
    ideality: float = 1.2
    series_resistance: float = 0.0
    thermal_voltage: float = 0.02585

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, astuple(self))):
            raise ValueError("diode parameters must be finite")
        if self.saturation_current <= 0.0:
            raise ValueError("saturation_current must be positive")
        if not (1.0 <= self.ideality <= 3.0):
            raise ValueError("ideality must lie in [1, 3]")
        if self.series_resistance < 0.0:
            raise ValueError("series_resistance must be >= 0")
        if self.thermal_voltage <= 0.0:
            raise ValueError("thermal_voltage must be positive")

    @property
    def emission_voltage(self) -> float:
        """n * V_T, the exponential slope voltage."""
        return self.ideality * self.thermal_voltage


def default_diode() -> DiodeModel:
    """Stand-in mm-wave mixer diode.

    Vendor SPICE parameters for this class of device are not public, so the
    values are fitted to put the static bias optimum at 0.73 V / 2.5 mA;
    treat them as a calibrated placeholder, not a datasheet.
    """
    return DiodeModel(saturation_current=2.5e-13, ideality=1.2,
                      series_resistance=6.2)


@dataclass(frozen=True)
class BiasPoint:
    terminal_voltage: float
    bias_current: float

    @classmethod
    def at_voltage(cls, model: DiodeModel, voltage: float) -> "BiasPoint":
        return cls(terminal_voltage=voltage,
                   bias_current=float(terminal_current(model, voltage)))


@dataclass(frozen=True)
class MixingChain:
    """Receive chain collapsed to flat LNA gain + biased diode + IF load.

    The bias voltage and the amplified receive waveform drive the diode
    through ``source_impedance_ohms``, so the conduction loop sees
    ``source_impedance_ohms + series_resistance``. Including the source in
    the loop is what limits the current once the diode rectifies hard, and
    it is what makes the bias voltage uncritical at strong drive.
    """

    lna_gain_db: float
    diode: DiodeModel
    bias: BiasPoint
    if_load_ohms: float = 50.0
    source_impedance_ohms: float = 50.0

    def __post_init__(self) -> None:
        if self.if_load_ohms <= 0.0 or self.source_impedance_ohms <= 0.0:
            raise ValueError("if_load_ohms and source_impedance_ohms must be positive")
        expected = float(terminal_current(self.loop_model(),
                                          self.bias.terminal_voltage))
        scale = max(abs(expected), self.diode.saturation_current)
        if abs(self.bias.bias_current - expected) > 1e-6 * scale:
            raise ValueError(
                "bias point is inconsistent with the chain's conduction "
                "loop; build the chain with MixingChain.at_bias_voltage or "
                "BiasPoint.at_voltage(chain.loop_model(), v)")

    def loop_model(self) -> DiodeModel:
        """Diode model whose series resistance includes the source."""
        return replace(self.diode, series_resistance=(
            self.diode.series_resistance + self.source_impedance_ohms))

    def at_bias_voltage(self, voltage: float) -> "MixingChain":
        return replace(self, bias=BiasPoint.at_voltage(self.loop_model(), voltage))


def default_chain(lna_gain_db: float = 25.0,
                  bias_voltage: float = 0.65,
                  diode: DiodeModel | None = None) -> MixingChain:
    """Reference receive chain: 25 dB flat LNA, default diode, 50 ohm
    source and IF load, biased at the whole-chain optimum (about 0.65 V for
    the default device; the *static* diode-only optimum sits higher, near
    0.73 V)."""
    diode = diode if diode is not None else default_diode()
    chain = MixingChain(lna_gain_db=lna_gain_db, diode=diode,
                        bias=BiasPoint(0.0, 0.0))
    return chain.at_bias_voltage(bias_voltage)


@dataclass(frozen=True)
class ConversionResult:
    if_frequency: float
    if_power_dbm: float
    dc_current: float


@dataclass(frozen=True)
class SweepCellError:
    """Marker stored in a sweep grid when one cell failed; other cells are
    unaffected."""

    message: str


@dataclass(frozen=True)
class IvDerivatives:
    di_dv: np.ndarray | float
    d2i_dv2: np.ndarray | float


def junction_current(model: DiodeModel, v_junction):
    """Shockley current for a given junction voltage (array-capable)."""
    exponent = np.minimum(np.asarray(v_junction, dtype=float) / model.emission_voltage,
                          EXP_CLAMP)
    i = model.saturation_current * np.expm1(exponent)
    if np.isscalar(v_junction) or np.ndim(v_junction) == 0:
        return float(i)
    return i


def terminal_current(model: DiodeModel, v_terminal):
    """Current through the series combination of R_s and the junction.

    Exact solution of ``i = junction_current(v - i * R_s)`` (array-capable).
    With ``c = I_s R_s / nV_T``, the junction voltage ``u = v_j / nV_T``
    solves ``u + c * expm1(u) = v / nV_T``, so ``c * exp(u)`` is the Wright
    omega function of ``ln c + c + v / nV_T`` (Banwell & Jayakumar, Electron.
    Lett. 36(4), 2000). :data:`OMEGA_STEPS` Newton steps in ``u`` from
    omega's asymptotic form evaluate it; the equation is convex in ``u``
    with slope >= 1, so they converge from any start. For ``R_s = 0`` this
    reduces exactly to :func:`junction_current`.
    """
    if model.series_resistance == 0.0:
        return junction_current(model, v_terminal)
    scalar = np.isscalar(v_terminal) or np.ndim(v_terminal) == 0
    v = np.atleast_1d(np.asarray(v_terminal, dtype=float))
    if not np.all(np.isfinite(v)):
        raise ValueError("terminal voltage must be finite")

    nvt = model.emission_voltage
    i_s = model.saturation_current
    c = i_s * model.series_resistance / nvt
    x = v / nvt
    # omega(z) ~ exp(z) for z <= 1 and ~ z - ln z above
    z = math.log(c) + c + x
    z_hi = np.maximum(z, 1.0)
    u = np.where(z > 1.0, np.log(z_hi - np.log(z_hi)) - math.log(c), x)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(OMEGA_STEPS):
            u = u - (u + c * np.expm1(u) - x) / (1.0 + c * np.exp(u))
        i = i_s * np.expm1(u)
    if not np.all(np.isfinite(i)):
        # exp(u) overflows past u = 709, i.e. for c < 1e-307 * omega(z)
        raise ValueError("terminal current overflows for these diode parameters")
    if scalar:
        return float(i[0])
    return i


def iv_derivatives(model: DiodeModel, v_terminal) -> IvDerivatives:
    """First and second derivative of the terminal I-V curve, exactly.

    With the junction conductance ``g = (i + I_s) / nV_T``,
    ``di/dv = g / (1 + g R_s)`` and ``d2i/dv2 = (g / nV_T) / (1 + g R_s)**3``.
    """
    i = np.asarray(terminal_current(model, v_terminal))
    g = (i + model.saturation_current) / model.emission_voltage
    loaded = 1.0 + g * model.series_resistance
    di_dv = g / loaded
    d2i_dv2 = g / model.emission_voltage / loaded ** 3
    if np.isscalar(v_terminal) or np.ndim(v_terminal) == 0:
        return IvDerivatives(di_dv=float(di_dv), d2i_dv2=float(d2i_dv2))
    return IvDerivatives(di_dv=di_dv, d2i_dv2=d2i_dv2)


def optimal_bias_static(model: DiodeModel,
                        v_range: tuple[float, float]) -> BiasPoint:
    """Bias point maximising the I-V second derivative (static analysis).

    ``g / (1 + g R_s)**3`` peaks at ``g R_s = 1/2``: exactly at
    ``i + I_s = nV_T / (2 R_s)``, ``v = nV_T log1p(i / I_s) + i R_s``.
    Raises :class:`NoInteriorMaximum` when the model has no series
    resistance (the second derivative is then monotone) or when the optimum
    lies outside the open ``v_range``.
    """
    if model.series_resistance <= 0.0:
        raise NoInteriorMaximum(
            "a purely exponential diode (R_s = 0) has a monotone second "
            "derivative; no interior bias optimum exists")
    lo, hi = v_range
    if not hi > lo:
        raise ValueError("v_range must satisfy hi > lo")
    nvt = model.emission_voltage
    i_s = model.saturation_current
    i = nvt / (2.0 * model.series_resistance) - i_s
    v = nvt * math.log1p(i / i_s) + i * model.series_resistance
    if not lo < v < hi:
        raise NoInteriorMaximum(
            f"second-derivative maximum at {v:.6g} V lies outside the range")
    return BiasPoint(terminal_voltage=v, bias_current=i)


def simulate_mixing(chain: MixingChain, tones: Sequence[ToneSpec],
                    if_frequency: float) -> ConversionResult:
    """Time-domain mixing of a tone set through the biased diode.

    The LNA power gain scales the tone amplitudes; the bias voltage and the
    amplified waveform are superimposed and drive the diode through the
    chain's source impedance; the loop current is solved per sample and the
    component at ``if_frequency`` is extracted from its DFT.
    ``if_power_dbm`` is the one-sided IF current tone dissipated in
    ``if_load_ohms`` (floored at -200 dBm); ``dc_current`` is the DC bin of
    the current.
    """
    tones = list(tones)
    if not tones:
        raise EmptyToneList("need at least one tone")
    if if_frequency <= 0.0:
        raise ValueError("if_frequency must be positive")
    freqs = [t.frequency for t in tones]
    diffs = {abs(a - b) for a in freqs for b in freqs if a != b}
    if not any(math.isclose(if_frequency, d, rel_tol=1e-9) for d in diffs):
        raise ValueError(
            f"{if_frequency} Hz is not a difference frequency of the tone set")

    gain = db_to_amplitude_ratio(chain.lna_gain_db)
    amplified = [ToneSpec(t.frequency, gain * t.amplitude, t.phase) for t in tones]
    # generous oversampling: the exponential diode produces products of all
    # orders, and only very high orders may alias onto the IF bin this way
    rate, duration = plan_sampling(freqs + [if_frequency], oversample=24.0)
    if all(t.amplitude == 0.0 for t in amplified):
        return ConversionResult(if_frequency=if_frequency,
                                if_power_dbm=DB_FLOOR,
                                dc_current=chain.bias.bias_current)
    rf = synthesize_waveform(amplified, rate, duration)
    v = chain.bias.terminal_voltage + rf.samples
    i = terminal_current(chain.loop_model(), v)
    spectrum = dft_spectrum(SampledWaveform(sample_rate=rate, samples=i))
    i_if = abs(spectrum.amplitude_at(if_frequency))
    if_power_w = i_if * i_if * chain.if_load_ohms / 2.0
    return ConversionResult(
        if_frequency=if_frequency,
        if_power_dbm=watts_to_dbm(if_power_w),
        dc_current=float(spectrum.complex_amplitudes[0].real),
    )


def _check_grid(values: Sequence[float], name: str) -> list[float]:
    values = [float(x) for x in values]
    if not values:
        raise ValueError(f"{name} must be non-empty")
    if len(values) > 1:
        steps = np.diff(values)
        if not (np.all(steps > 0) or np.all(steps < 0)):
            raise ValueError(f"{name} must be monotone")
    return values


@dataclass(frozen=True)
class BiasPowerSweep:
    """IF power over a (bias voltage, input power) grid."""

    bias_voltages: tuple[float, ...]
    input_powers_dbm: tuple[float, ...]
    tone_frequencies: tuple[float, float]
    weaker_tone_offset_db: float
    cells: tuple[tuple[ConversionResult | SweepCellError, ...], ...]

    def to_table(self) -> Table:
        table = Table(columns=["bias_v", "input_power_dbm", "if_power_dbm",
                               "dc_current_a"])
        for bias, row in zip(self.bias_voltages, self.cells):
            for power, cell in zip(self.input_powers_dbm, row):
                if isinstance(cell, SweepCellError):
                    table.append([bias, power, "error", "error"])
                else:
                    table.append([bias, power, cell.if_power_dbm,
                                  cell.dc_current])
        return table


@dataclass(frozen=True)
class BiasFrequencySweep:
    """Sweep of IF power over (bias voltage, two-tone centre frequency)."""

    bias_voltages: tuple[float, ...]
    center_frequencies: tuple[float, ...]
    tone_spacing: float
    tone_powers_dbm: tuple[float, float]
    cells: tuple[tuple[ConversionResult | SweepCellError, ...], ...]

    def to_table(self) -> Table:
        table = Table(columns=["bias_v", "center_freq_hz", "if_power_dbm",
                               "dc_current_a"])
        for bias, row in zip(self.bias_voltages, self.cells):
            for freq, cell in zip(self.center_frequencies, row):
                if isinstance(cell, SweepCellError):
                    table.append([bias, freq, "error", "error"])
                else:
                    table.append([bias, freq, cell.if_power_dbm,
                                  cell.dc_current])
        return table


def _run_cell(chain: MixingChain, tones: Sequence[ToneSpec],
              if_frequency: float) -> ConversionResult | SweepCellError:
    try:
        return simulate_mixing(chain, tones, if_frequency)
    except NyquistViolation as exc:
        return SweepCellError(message=str(exc))


def bias_power_sweep(chain_template: MixingChain,
                     bias_grid: Sequence[float],
                     power_grid_dbm: Sequence[float],
                     tone_pair: tuple[float, float],
                     weaker_tone_offset_db: float = -5.0) -> BiasPowerSweep:
    """Independent :func:`simulate_mixing` runs over a bias x power grid.

    The second tone is driven ``weaker_tone_offset_db`` relative to the
    first (default -5 dB). Cells are evaluated in deterministic row-major
    (bias-major) order; a failing cell is recorded as
    :class:`SweepCellError` without poisoning the rest.
    """
    bias_values = _check_grid(bias_grid, "bias_grid")
    power_values = _check_grid(power_grid_dbm, "power_grid_dbm")
    f1, f2 = tone_pair
    if_frequency = abs(f2 - f1)
    rows = []
    for bias in bias_values:
        chain = chain_template.at_bias_voltage(bias)
        row = []
        for p_dbm in power_values:
            tones = [
                ToneSpec(f1, dbm_to_amplitude(p_dbm, chain.source_impedance_ohms)),
                ToneSpec(f2, dbm_to_amplitude(p_dbm + weaker_tone_offset_db,
                                              chain.source_impedance_ohms)),
            ]
            row.append(_run_cell(chain, tones, if_frequency))
        rows.append(tuple(row))
    return BiasPowerSweep(
        bias_voltages=tuple(bias_values),
        input_powers_dbm=tuple(power_values),
        tone_frequencies=(float(f1), float(f2)),
        weaker_tone_offset_db=float(weaker_tone_offset_db),
        cells=tuple(rows),
    )


def bias_frequency_sweep(chain_template: MixingChain,
                         bias_grid: Sequence[float],
                         center_frequencies: Sequence[float],
                         spacing: float,
                         powers_dbm: tuple[float, float]) -> BiasFrequencySweep:
    """Sweep over bias and two-tone centre frequency at fixed tone powers.

    Each centre ``f`` becomes the tone pair ``(f, f + spacing)``. The chain
    model is frequency-flat, so columns only differ if the caller varies the
    chain; the sweep exists to mirror the frequency-axis presentation of
    measured data.
    """
    if spacing <= 0.0:
        raise ValueError("spacing must be positive")
    bias_values = _check_grid(bias_grid, "bias_grid")
    centers = _check_grid(center_frequencies, "center_frequencies")
    p1_dbm, p2_dbm = powers_dbm
    rows = []
    for bias in bias_values:
        chain = chain_template.at_bias_voltage(bias)
        a1 = dbm_to_amplitude(p1_dbm, chain.source_impedance_ohms)
        a2 = dbm_to_amplitude(p2_dbm, chain.source_impedance_ohms)
        row = []
        for f in centers:
            tones = [ToneSpec(f, a1), ToneSpec(f + spacing, a2)]
            row.append(_run_cell(chain, tones, spacing))
        rows.append(tuple(row))
    return BiasFrequencySweep(
        bias_voltages=tuple(bias_values),
        center_frequencies=tuple(centers),
        tone_spacing=float(spacing),
        tone_powers_dbm=(float(p1_dbm), float(p2_dbm)),
        cells=tuple(rows),
    )
