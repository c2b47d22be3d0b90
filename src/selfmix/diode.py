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
hence no frequency dependence. This keeps every qualitative behaviour of the
real chain at desk scale: the square-law slope, a whole-chain bias optimum
well below the static one, near-cancellation of the conversion loss by the
amplifier gain at moderate drive, and bias insensitivity once the diode
rectifies hard.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace
from typing import Sequence

import numpy as np

from .errors import EmptyToneList, NoInteriorMaximum
from .signals import ToneSpec, plan_sampling
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
    bias_voltage: float = 0.65
    """Terminal bias voltage. The default, 0.65 V, sits just below the
    whole-chain small-signal optimum of the default device,
    ``optimal_bias_static(chain.loop_model(), v_range)``: 0.6614 V at
    0.276 mA. That optimum rises with drive. The *static* diode-only
    optimum sits higher, near 0.73 V."""
    if_load_ohms: float = 50.0
    source_impedance_ohms: float = 50.0

    def __post_init__(self) -> None:
        if self.if_load_ohms <= 0.0 or self.source_impedance_ohms <= 0.0:
            raise ValueError("if_load_ohms and source_impedance_ohms must be positive")

    def loop_model(self) -> DiodeModel:
        """Diode model whose series resistance includes the source."""
        return replace(self.diode, series_resistance=(
            self.diode.series_resistance + self.source_impedance_ohms))


def default_chain(lna_gain_db: float = 25.0,
                  diode: DiodeModel | None = None) -> MixingChain:
    """Reference receive chain: 25 dB flat LNA, default diode, 50 ohm
    source and IF load, biased at the chain's default voltage."""
    diode = diode if diode is not None else default_diode()
    return MixingChain(lna_gain_db=lna_gain_db, diode=diode)


@dataclass(frozen=True)
class ConversionResult:
    if_power_dbm: float
    dc_current: float


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
    reduces exactly to :func:`junction_current`, and so it does where ``c``
    underflows to 0: the series drop is then below float resolution.
    """
    nvt = model.emission_voltage
    i_s = model.saturation_current
    c = i_s * model.series_resistance / nvt
    if c == 0.0:
        return junction_current(model, v_terminal)
    scalar = np.isscalar(v_terminal) or np.ndim(v_terminal) == 0
    v = np.atleast_1d(np.asarray(v_terminal, dtype=float))
    if not np.all(np.isfinite(v)):
        raise ValueError("terminal voltage must be finite")

    # omega(z) ~ exp(z) for z <= 1 and ~ z - ln z above; each line keeps
    # the operation order of z = ln c + c + x, u = where(z > 1, ln(z_hi -
    # ln z_hi) - ln c, x) and, with e = c expm1(u), u -= (u + e - x) /
    # (1 + c + e), but works in place in three buffers instead of a
    # temporary per step; the slope 1 + c exp(u) reuses the step's expm1.
    # Overflow anywhere ends in a non-finite current, checked below; so does
    # a slope that cancels to 0, which needs 1 + c to lose its 1 (c > 2^53,
    # I_s R_s above 1e14 V) and a voltage near -I_s R_s.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = v / nvt
        u = x + (math.log(c) + c)
        above = u > 1.0
        step = np.maximum(u, 1.0)
        slope = np.log(step)
        step -= slope
        np.log(step, out=step)
        step -= math.log(c)
        np.copyto(u, x)
        np.copyto(u, step, where=above)
        for _ in range(OMEGA_STEPS):
            np.expm1(u, out=step)
            step *= c
            np.add(step, 1.0 + c, out=slope)
            step += u
            step -= x
            step /= slope
            u -= step
        i = np.expm1(u, out=step)
        i *= i_s
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
    A denominator past the float range gives its limit 0; a derivative
    that is then undefined (``inf / inf``) raises ``ValueError``.
    """
    i = np.asarray(terminal_current(model, v_terminal))
    with np.errstate(over="ignore", invalid="ignore"):
        g = (i + model.saturation_current) / model.emission_voltage
        loaded = 1.0 + g * model.series_resistance
        di_dv = g / loaded
        d2i_dv2 = g / model.emission_voltage / loaded ** 3
    if np.isnan(di_dv).any() or np.isnan(d2i_dv2).any():
        raise ValueError(f"the I-V derivatives of {model} overflow the "
                         "float range")
    if np.isscalar(v_terminal) or np.ndim(v_terminal) == 0:
        return IvDerivatives(di_dv=float(di_dv), d2i_dv2=float(d2i_dv2))
    return IvDerivatives(di_dv=di_dv, d2i_dv2=d2i_dv2)


def optimal_bias_static(model: DiodeModel,
                        v_range: tuple[float, float]) -> BiasPoint:
    """Bias point maximising the I-V second derivative (static analysis).

    ``g / (1 + g R_s)**3`` peaks at ``g R_s = 1/2``: exactly at
    ``i + I_s = nV_T / (2 R_s)``, ``v = nV_T log(nV_T / (2 R_s I_s)) + i R_s``.
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
    r_s = model.series_resistance
    i = nvt / (2.0 * r_s) - i_s
    try:
        v = nvt * math.log(nvt / (2.0 * r_s * i_s)) + i * r_s
    except (ZeroDivisionError, ValueError):  # 2 R_s I_s is 0 or inf
        raise NoInteriorMaximum("second-derivative maximum lies past the "
                                "float range") from None
    if not lo < v < hi:
        raise NoInteriorMaximum(
            f"second-derivative maximum at {v:.6g} V lies outside the range")
    return BiasPoint(terminal_voltage=v, bias_current=i)


MIXING_BLOCK = 1 << 14
"""Samples :func:`mix_cells` solves at a time: a block holds
``max(1, MIXING_BLOCK // n)`` cells of ``n`` samples, so the solver's
working arrays stay near 1 MB (a default sweep cell has 2048 samples, one
common period of its tones)."""


def mix_cells(chain: MixingChain, bias_voltages: np.ndarray | Sequence[float],
              amplitudes: np.ndarray | Sequence[Sequence[float]],
              frequencies: Sequence[float], if_frequency: float,
              phases: Sequence[float] | None = None) -> list[ConversionResult]:
    """Time-domain mixing of one tone set at many bias voltages and drive
    levels: cell ``k`` is biased at ``bias_voltages[k]`` and driven by the
    tones ``frequencies`` with peak amplitudes ``amplitudes[k]`` (before the
    LNA) and ``phases`` (default 0).

    The LNA power gain scales the amplitudes; the bias voltage and the
    amplified waveform are superimposed and drive the diode through the
    chain's source impedance; the loop current is solved per sample and the
    component at ``if_frequency`` is extracted from its DFT.
    ``if_power_dbm`` is the one-sided IF current tone dissipated in
    ``if_load_ohms`` (floored at -200 dBm); ``dc_current`` is the DC bin of
    the current. A cell whose amplified tones are all zero is not sampled:
    it reads the floor and the loop current at its bias voltage.

    One sampling plan and one set of unit sines serve every cell, and the
    cells are solved :data:`MIXING_BLOCK` samples at a time; each cell's
    samples and results are bit for bit those of synthesising, solving and
    transforming it alone.
    """
    freqs = [float(f) for f in frequencies]
    if not freqs:
        raise EmptyToneList("need at least one tone")
    if not all(f > 0.0 and math.isfinite(f) for f in freqs):
        raise ValueError(f"tone frequencies must be positive, got {freqs}")
    if if_frequency <= 0.0:
        raise ValueError("if_frequency must be positive")
    diffs = {abs(a - b) for a in freqs for b in freqs if a != b}
    if not any(math.isclose(if_frequency, d, rel_tol=1e-9) for d in diffs):
        raise ValueError(
            f"{if_frequency} Hz is not a difference frequency of the tone set")
    bias = np.asarray(bias_voltages, dtype=float)
    amplified = db_to_amplitude_ratio(chain.lna_gain_db) * np.asarray(
        amplitudes, dtype=float)
    if bias.ndim != 1 or amplified.shape != (bias.size, len(freqs)):
        raise ValueError(f"amplitudes must have shape ({bias.size}, "
                         f"{len(freqs)}), got {amplified.shape}")
    if not np.all(np.isfinite(amplified) & (amplified >= 0.0)):
        raise ValueError("amplified tone amplitudes must be finite and >= 0")

    # generous oversampling: the exponential diode produces products of all
    # orders, and only very high orders may alias onto the IF bin this way
    rate, duration = plan_sampling(freqs + [if_frequency], oversample=24.0)
    n = int(round(duration * rate))
    t = np.arange(n) / rate
    phases = [0.0] * len(freqs) if phases is None else list(phases)
    if len(phases) != len(freqs):
        raise ValueError("need one phase per tone frequency")
    sines = [np.sin(2.0 * math.pi * f * t + phase)
             for f, phase in zip(freqs, phases)]
    if_bin = int(round(if_frequency / (rate / n)))
    loop = chain.loop_model()
    silent = ~amplified.any(axis=1)
    results: list[ConversionResult] = [None] * bias.size
    for k, dc in zip(np.flatnonzero(silent).tolist(),
                     terminal_current(loop, bias[silent]).tolist()):
        results[k] = ConversionResult(if_power_dbm=DB_FLOOR, dc_current=dc)
    driven = np.flatnonzero(~silent)
    per_block = max(1, MIXING_BLOCK // n)
    for start in range(0, driven.size, per_block):
        cells = driven[start:start + per_block]
        # the operations of synthesize_waveform, then bias + waveform
        v = np.zeros((cells.size, n))
        for a, sine in zip(amplified[cells].T, sines):
            v += a[:, None] * sine
        v += bias[cells][:, None]
        # the DC and IF bins as dft_spectrum scales them
        bins = np.fft.rfft(terminal_current(loop, v))[:, [0, if_bin]] / n
        bins[:, 1] *= 2.0
        for k, (dc, tone) in zip(cells.tolist(), bins.tolist()):
            i_if = abs(tone)
            if_power_w = i_if * i_if * chain.if_load_ohms / 2.0
            results[k] = ConversionResult(
                if_power_dbm=watts_to_dbm(if_power_w), dc_current=dc.real)
    return results


def simulate_mixing(chain: MixingChain, tones: Sequence[ToneSpec],
                    if_frequency: float) -> ConversionResult:
    """Time-domain mixing of a tone set through the chain at its bias
    voltage: the one-cell call of :func:`mix_cells`."""
    tones = list(tones)
    return mix_cells(chain, [chain.bias_voltage],
                     [[t.amplitude for t in tones]],
                     [t.frequency for t in tones], if_frequency,
                     [t.phase for t in tones])[0]


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
class GridSweep:
    """IF power over a grid of bias voltages (rows) and input powers
    (columns)."""

    bias_voltages: tuple[float, ...]
    input_powers_dbm: tuple[float, ...]
    cells: tuple[tuple[ConversionResult, ...], ...]

    def to_table(self) -> Table:
        cells = [cell for row in self.cells for cell in row]
        return Table(columns=["bias_v", "input_power_dbm", "if_power_dbm",
                              "dc_current_a"],
                     rows=np.column_stack([
                         np.repeat(self.bias_voltages,
                                   len(self.input_powers_dbm)),
                         np.tile(self.input_powers_dbm,
                                 len(self.bias_voltages)),
                         [c.if_power_dbm for c in cells],
                         [c.dc_current for c in cells]]))


def bias_power_sweep(chain_template: MixingChain,
                     bias_grid: Sequence[float],
                     power_grid_dbm: Sequence[float],
                     tone_pair: tuple[float, float],
                     weaker_tone_offset_db: float = -5.0) -> GridSweep:
    """:func:`simulate_mixing` over a bias x input power grid, as one
    :func:`mix_cells` call.

    The second tone is driven ``weaker_tone_offset_db`` relative to the
    first (default -5 dB). Cells are in row-major (bias-major) order; a
    tone pair that cannot be sampled raises :class:`NyquistViolation`.

    The chain is memoryless and frequency-flat, so the sweep over a band of
    tone pairs at fixed powers is one call per pair, each at a single power
    (``power_grid_dbm = [p1]``, ``weaker_tone_offset_db = p2 - p1``).
    """
    bias_values = _check_grid(bias_grid, "bias_grid")
    power_values = _check_grid(power_grid_dbm, "power_grid_dbm")
    f1, f2 = tone_pair
    z = chain_template.source_impedance_ohms
    drive = [(dbm_to_amplitude(p, z),
              dbm_to_amplitude(p + weaker_tone_offset_db, z))
             for p in power_values]
    cells = mix_cells(chain_template,
                      np.repeat(bias_values, len(power_values)),
                      drive * len(bias_values), (f1, f2), abs(f2 - f1))
    width = len(power_values)
    return GridSweep(
        bias_voltages=tuple(bias_values),
        input_powers_dbm=tuple(power_values),
        cells=tuple(tuple(cells[k:k + width])
                    for k in range(0, len(cells), width)),
    )
