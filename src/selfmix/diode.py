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
its DC and IF bins are read as weighted sums over the solved samples, O(n)
each, with no FFT; the drive records come from
:func:`selfmix.signals.synthesize_waveform`. The drive is a tone pair at
zero phase: the diode is memoryless, so the tones' phases shift the record
in time and move neither its DC nor its IF magnitude (Blachman, IEEE T-IT
17(4), 1971). When both tones are whole numbers of hertz on odd bins of the
record, samples ``j`` and ``n/2 - j`` see the same drive, so only half the
record is solved and each solved sample carries the DFT weights of both.
Amplifier and filters are collapsed into a flat gain and an ideal IF load;
there is no junction capacitance and hence no frequency dependence. This
keeps every qualitative behaviour of the real chain at desk scale: the
square-law slope, a whole-chain bias optimum well below the static one,
near-cancellation of the conversion loss by the amplifier gain at moderate
drive, and bias insensitivity once the diode rectifies hard.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace
from typing import Sequence

import numpy as np

from .signals import check_tones, plan_sampling, synthesize_waveform
from .units import db_to_amplitude_ratio, watts_to_dbm

BIAS_VOLTAGE = 0.65
"""Terminal bias voltage of the receive chain's operating point, at which
:func:`selfmix.linkbudget.calibrate_conversion_gain` measures the chain.
It sits just below the whole-chain small-signal optimum of the default
device, ``optimal_bias_static(chain.loop_model(), v_range)``: 0.6614 V at
0.276 mA. That optimum rises with drive. The *static* diode-only optimum
sits higher, near 0.73 V."""

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
    if_load_ohms: float = 50.0
    source_impedance_ohms: float = 50.0

    def __post_init__(self) -> None:
        if self.if_load_ohms <= 0.0 or self.source_impedance_ohms <= 0.0:
            raise ValueError("if_load_ohms and source_impedance_ohms must be positive")

    def loop_model(self) -> DiodeModel:
        """Diode model whose series resistance includes the source."""
        return replace(self.diode, series_resistance=(
            self.diode.series_resistance + self.source_impedance_ohms))


def default_chain(lna_gain_db: float = 25.0) -> MixingChain:
    """Reference receive chain: 25 dB flat LNA, default diode, 50 ohm
    source and IF load; its operating point is :data:`BIAS_VOLTAGE`."""
    return MixingChain(lna_gain_db=lna_gain_db, diode=default_diode())


def terminal_current(model: DiodeModel, v_terminal):
    """Current through the series combination of R_s and the junction.

    Exact solution of ``i = I_s * expm1((v - i * R_s) / nV_T)``
    (array-capable).
    With ``c = I_s R_s / nV_T``, the junction voltage ``u = v_j / nV_T``
    solves ``u + c * expm1(u) = v / nV_T``, so ``c * exp(u)`` is the Wright
    omega function of ``ln c + c + v / nV_T`` (Banwell & Jayakumar, Electron.
    Lett. 36(4), 2000). :data:`OMEGA_STEPS` Newton steps in ``u`` from
    omega's asymptotic form evaluate it; the equation is convex in ``u``
    with slope >= 1, so they converge from any start. For ``R_s = 0`` the
    current is the junction's own, ``I_s * expm1(v / nV_T)``, and so it is
    where ``c`` underflows to 0: the series drop is then below float
    resolution. Raises ``ValueError`` on a non-finite voltage or current.
    """
    nvt = model.emission_voltage
    i_s = model.saturation_current
    c = i_s * model.series_resistance / nvt
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
        if c == 0.0:  # the bare junction
            i = i_s * np.expm1(x)
        else:
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
        # exp(u) overflows past u = 709: at R_s = 0 past v = 709 nV_T,
        # otherwise for c < 1e-307 * omega(z)
        raise ValueError("terminal current overflows for these diode parameters")
    if scalar:
        return float(i[0])
    return i


def iv_derivatives(model: DiodeModel, v_terminal):
    """First and second derivative of the terminal I-V curve, exactly, as
    the pair ``(di_dv, d2i_dv2)`` (floats for a scalar voltage).

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
        return float(di_dv), float(d2i_dv2)
    return di_dv, d2i_dv2


class NoInteriorMaximum(ValueError):
    """Bias optimisation found no interior maximum (e.g. zero series
    resistance); ``diode-iv`` and the bias-optimum check catch it by name."""


def optimal_bias_static(model: DiodeModel,
                        v_range: tuple[float, float]) -> tuple[float, float]:
    """Bias point ``(voltage, current)`` maximising the I-V second
    derivative (static analysis).

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
    return v, i


MIXING_BLOCK = 1 << 14
"""Samples :func:`mix_cells` solves at a time: a block holds
``max(1, MIXING_BLOCK // m)`` cells of ``m`` solved samples, so each of
the five float arrays that the solve holds at once is at most 128 KiB
(0.66 MB in all) unless one cell alone is longer; reading the bins reuses
the drive's array. A cell's record is ``n`` samples, one common period of
its tones (2048 for a default sweep cell); ``m`` is ``n/2 + 1`` when both
tones are whole numbers of hertz on odd bins, and ``n`` otherwise."""


def mix_cells(chain: MixingChain, bias_voltages: np.ndarray | Sequence[float],
              amplitudes: np.ndarray | Sequence[Sequence[float]],
              tone_pair: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Time-domain mixing of one tone pair at many bias voltages and drive
    levels: cell ``k`` is biased at ``bias_voltages[k]`` and driven by the
    two tones ``tone_pair = (f1, f2)`` at zero phase with peak amplitudes
    ``amplitudes[k]`` (shape ``(cells, 2)``, before the LNA).

    The LNA power gain scales the amplitudes; the bias voltage and the
    amplified waveform are superimposed and drive the diode through the
    chain's source impedance; the loop current is solved per sample and its
    DC and IF ``|f2 - f1|`` bins are read.
    Returns ``(if_power_dbm, dc_current)``, one value per cell each: the
    one-sided IF current tone dissipated in ``if_load_ohms`` (floored at
    -200 dBm) and the DC bin of the current. A cell whose amplified tones
    are both zero is solved like the rest: its record is flat, so it reads
    the floor and, bit for bit, the loop current at its bias voltage.
    Anything but two distinct tones raises ``ValueError`` before any cell
    is solved.

    One sampling plan of ``n`` samples and one pair of unit sines (one
    ``synthesize_waveform`` call) serve every cell. When both tones are
    whole numbers of hertz on odd bins ``k`` of the plan,
    ``sin(2 pi k (n/2 - j) / n) = sin(2 pi k j / n)``: samples ``j`` and
    ``(n/2 - j) mod n`` carry the same drive and hence the same current, so
    only the ``n/2 + 1`` samples with ``j <= (n/2 - j) mod n`` are solved;
    otherwise every sample is solved. Each solved sample carries the DC and
    IF weights of the DFT of every sample it stands for, so one read of a
    record, centred on its first sample, serves both cases. The cells are
    solved :data:`MIXING_BLOCK` samples at a time and read by numpy row
    sums, not BLAS: each cell's result is bit for bit that of the one-cell
    call, at any BLAS thread count. Against the FFT of its whole record it
    is within rounding (1e-10 dB in IF power, 1e-12 relative in DC
    current).
    """
    bias = np.asarray(bias_voltages, dtype=float)
    amplified, freqs, _ = check_tones(db_to_amplitude_ratio(
        chain.lna_gain_db) * np.asarray(amplitudes, dtype=float), tone_pair)
    freqs = freqs.tolist()
    if len(freqs) != 2 or freqs[0] == freqs[1]:
        raise ValueError(f"need two distinct tone frequencies, got {freqs}")
    if bias.ndim != 1 or amplified.shape != (bias.size, 2):
        raise ValueError(f"amplitudes must have shape ({bias.size}, 2), "
                         f"got {amplified.shape}")
    if_frequency = abs(freqs[1] - freqs[0])

    # generous oversampling: the exponential diode produces products of all
    # orders, and only very high orders may alias onto the IF bin this way
    rate, duration = plan_sampling(freqs + [if_frequency], oversample=24.0)
    n = int(round(duration * rate))
    # odd-bin tones drive sample j and sample (n/2 - j) mod n alike, so only
    # the representatives j <= (n/2 - j) mod n are solved and mirror[j]
    # picks sample j's current among them; otherwise every sample is its own
    # representative and the mirror is the identity. plan_sampling accepts a
    # tone a fraction of a hertz off a whole number, but it is synthesised
    # off its bin, so only whole-hertz tones count as on one.
    j = np.arange(n)
    odd = all(f == round(f) and round(f * duration) % 2 for f in freqs)
    partner = (n // 2 - j) % n if odd else j
    solved = j <= partner
    mirror = (np.cumsum(solved) - 1)[np.minimum(j, partner)]
    # one unit sine per tone, at the solved samples; a cell's waveform is
    # their sum weighted by its amplitudes, in the order and with the bits
    # of synthesising it alone
    sines = synthesize_waveform(np.eye(2), freqs, 0.0, rate, n)[:, solved]
    # the record's DC and IF bins as weights on the solved samples: sample
    # j's DFT weights go to mirror[j]. With k the signed residue of if_bin j
    # mod n, a mirrored pair's residues are k and -k, so their sines cancel
    k = int(round(if_frequency / (rate / n))) * j % n
    angle = (2.0 * np.pi / n) * np.where(2 * k > n, k - n, k)
    weights = [np.bincount(mirror) / n,
               np.bincount(mirror, np.cos(angle)) * (2.0 / n),
               np.bincount(mirror, np.sin(angle)) * (2.0 / n)]
    loop = chain.loop_model()
    if_power_dbm = np.empty(bias.size)
    dc_current = np.empty(bias.size)
    per_block = max(1, MIXING_BLOCK // sines.shape[1])
    for start in range(0, bias.size, per_block):
        cells = slice(start, start + per_block)
        v = np.zeros((bias[cells].size, sines.shape[1]))
        for a, sine in zip(amplified[cells].T, sines):
            v += a[:, None] * sine
        v += bias[cells][:, None]
        # centred on its first sample, a flat record sums to exactly 0
        current = terminal_current(loop, v)
        first = current[:, :1].copy()
        current -= first
        dc, re, im = (np.multiply(current, w, out=v).sum(axis=1)
                      for w in weights)
        dc_current[cells] = first[:, 0] + dc
        if_power_dbm[cells] = [watts_to_dbm(i * i * chain.if_load_ohms / 2.0)
                               for i in np.hypot(re, im).tolist()]
    return if_power_dbm, dc_current

