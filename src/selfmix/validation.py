"""Self-checks behind the ``selfmix validate`` subcommand.

Each check compares a closed-form result against an independent brute-force
route kept here (time-domain squaring, dense grids, hand formulas) and returns
a :class:`CheckResult`; only ``cli`` imports this module. Known deviations are
reported as notes, not failures. Everything is deterministic (fixed seeds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import arrays, diode, linkbudget, patterns, signals, units
from .units import SPEED_OF_LIGHT, db_to_amplitude_ratio, dbm_to_amplitude

# tone amplitudes (at f1, at f2) of the time-domain array oracle; they cancel
# against its isotropic reference element
_TONE_AMPLITUDES = (1.0, 0.5)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    note: bool = False  # informational (known deviation), never a failure

    @property
    def status(self) -> str:
        if self.note:
            return "NOTE"
        return "PASS" if self.passed else "FAIL"


def spectrum_self_convolution(amplitudes: np.ndarray) -> np.ndarray:
    """One-sided amplitudes of the squared signal, computed without leaving
    the frequency domain.

    Squaring in time is convolution of the two-sided voltage spectrum with
    itself; the one-sided input (the all-bins ``signals.dft_spectrum`` of
    one record) is expanded to its conjugate-symmetric two-sided form,
    convolved, and folded back. The output keeps the input resolution and
    doubles the bin range.
    """
    one_sided = np.asarray(amplitudes, dtype=complex)
    m = one_sided.size - 1
    # two-sided line spectrum: index m is DC, a tone of amplitude a
    # contributes a/2 at +f and conj(a)/2 at -f
    lines = np.empty(2 * m + 1, dtype=complex)
    lines[m] = one_sided[0]
    lines[m + 1:] = one_sided[1:] / 2.0
    lines[:m] = np.conj(one_sided[1:])[::-1] / 2.0
    product = np.convolve(lines, lines)
    centre = 2 * m  # DC index of the full convolution
    out = np.empty(2 * m + 1, dtype=complex)
    out[0] = product[centre]
    out[1:] = 2.0 * product[centre + 1:]
    return out


def sine_sum(amplitudes, frequencies: Sequence[float], phases,
             sample_rate: float, samples: int) -> np.ndarray:
    """Oracle of ``signals.synthesize_waveform`` with no FFT: one ``sin``
    pass per tone over the time grid ``i / sample_rate``."""
    amps, freqs, phi = signals.check_tones(amplitudes, frequencies, phases)
    t = np.arange(samples) / sample_rate
    w = np.zeros(amps.shape[:-1] + (samples,))
    for k, f in enumerate(freqs.tolist()):
        w += amps[..., k, None] * np.sin(math.tau * f * t + phi[..., k, None])
    return w


def check_signal_oracle_equivalence(count: int = 20) -> CheckResult:
    """synthesize_waveform equals the per-tone sine sum within 1e-12 of
    the amplitude sum, and spectrum_self_convolution(dft_spectrum(w)) ==
    dft_spectrum(w * w) bin by bin."""
    rng = np.random.default_rng(1234)
    worst = worst_record = 0.0
    n = 1024
    rate = float(n)
    for _ in range(count):
        tone_count = int(rng.integers(1, 6))
        bins = rng.choice(np.arange(4, n // 8), size=tone_count, replace=False)
        amplitudes, phases = np.array([
            (rng.uniform(0.1, 1.0), rng.uniform(-math.pi, math.pi))
            for _ in bins]).T
        w = signals.synthesize_waveform(amplitudes, bins, phases, rate, n)
        gap = np.abs(w - sine_sum(amplitudes, bins, phases, rate, n)).max()
        worst_record = max(worst_record, gap / amplitudes.sum())
        direct = signals.dft_spectrum(w * w)
        conv = spectrum_self_convolution(signals.dft_spectrum(w))
        scale = np.abs(direct).max()
        err = np.abs(conv[:direct.size] - direct) / scale
        worst = max(worst, float(err.max()))
    return CheckResult(
        name="signal oracle equivalence (self-convolution vs time-domain squaring)",
        passed=worst < 1e-9 and worst_record < 1e-12,
        detail=f"worst relative bin error {worst:.3e} over {count} random "
               f"tone sets (tolerance 1e-9), record error {worst_record:.3e} "
               "of the amplitude sum against the sine sum (tolerance 1e-12)")


def check_parseval() -> CheckResult:
    rng = np.random.default_rng(99)
    worst = 0.0
    n = 1024
    for _ in range(10):
        bins = rng.choice(np.arange(1, n // 4), size=3, replace=False)
        amplitudes = [rng.uniform(0.1, 1.0) for _ in bins]
        w = signals.synthesize_waveform(amplitudes, bins, 0.0, float(n), n)
        mags = np.abs(signals.dft_spectrum(w))
        spectral = mags[0] ** 2 + 0.5 * np.sum(mags[1:-1] ** 2) + mags[-1] ** 2
        time = float(np.mean(w ** 2))
        worst = max(worst, abs(spectral - time) / time)
    return CheckResult(
        name="Parseval (sample energy equals spectral energy)",
        passed=worst < 1e-9,
        detail=f"worst relative mismatch {worst:.3e} (tolerance 1e-9)")


def check_limiting_case_array_gain() -> CheckResult:
    """delta_f -> 0: IF array factor is 1 at every angle, so the least array
    gain ``10*log10(N) + 20*log10(min AF)`` of the cut is 10*log10(N)."""
    lam = SPEED_OF_LIGHT / 36e9
    g = arrays.ArrayGeometry.planar_grid(8, 1, 10.0 * lam, 0.0)
    theta = np.radians(np.arange(-90.0, 90.0 + 1e-9, 0.25))
    af = arrays.if_array_factor_cut(g, 36.0e9 + 1e3, 36.0e9, theta, phi_cut=0.0)
    minimum = float(af.min())
    full = 10.0 * math.log10(8)
    least = full + float(units.amplitude_ratio_to_db(minimum))
    ok = minimum >= 0.999999 and abs(least - full) <= 0.01
    return CheckResult(
        name="limiting case: 1 kHz tone spacing, 10 RF-wavelength spacing",
        passed=ok,
        detail=f"min IF array factor {minimum:.8f} (>= 0.999999), least "
               f"8-element array gain {least:.4f} dB (9.03 +/- 0.01)")


def check_if_vs_rf_beamwidth() -> CheckResult:
    """4x2 layout: RF factor shows grating lobes, IF factor does not; the IF
    cut is more than 10x wider at the 3 dB level."""
    g = arrays.ArrayGeometry.planar_grid(4, 2, 0.032, 0.036)
    theta = np.radians(np.arange(-90.0, 90.0 + 1e-9, 0.25))
    phi_cut = math.pi / 2.0  # E-plane: x = 0 plane
    af_if = arrays.if_array_factor_cut(g, 38.5e9, 37.5e9, theta, phi_cut)
    af_rf = arrays.rf_array_factor_cut(g, 38.5e9, theta, phi_cut)
    if_grid = patterns.PatternGrid(theta, af_if)
    rf_grid = patterns.PatternGrid(theta, af_rf)
    in_60 = np.abs(theta) <= math.radians(60.0)
    rf_60 = patterns.PatternGrid(theta[in_60], af_rf[in_60])
    if_60 = patterns.PatternGrid(theta[in_60], af_if[in_60])
    floor = 1.0 / math.sqrt(2.0)
    rf_lobes = patterns.find_lobes(rf_60, floor)
    if_lobes = [t for t in patterns.find_lobes(if_60, floor) if abs(t) > 1e-9]
    width_if, _ = patterns.beamwidth_3db(if_grid)
    width_rf, rf_no_crossing = patterns.beamwidth_3db(rf_grid)
    ratio = width_if / width_rf
    ok = (len(rf_lobes) >= 2 and len(if_lobes) == 0
          and not rf_no_crossing and ratio > 10.0)
    return CheckResult(
        name="IF vs RF beamwidth, 4x2 layout (32 mm x 36 mm), E-plane",
        passed=ok,
        detail=f"RF lobes above -3 dB in |theta|<=60 deg: {len(rf_lobes)}, "
               f"IF side lobes: {len(if_lobes)}, beamwidth ratio {ratio:.1f} "
               "(> 10)")


def check_effective_spacing() -> list[CheckResult]:
    results = []
    e32_1 = arrays.effective_spacing(0.032, 1.0e9)
    e32_25 = arrays.effective_spacing(0.032, 2.5e9)
    ok = (abs(e32_1 - 0.1067) < 1e-4 and abs(e32_25 - 0.2668) < 1e-4
          and abs(e32_1 - 0.1) < 0.02 and abs(e32_25 - 0.25) < 0.02)
    results.append(CheckResult(
        name="effective spacing, 32 mm column pitch",
        passed=ok,
        detail=f"computed {e32_1:.4f} (1 GHz) and {e32_25:.4f} (2.5 GHz); "
               "reference rounds these to 0.1 and 0.25"))
    e36_1 = arrays.effective_spacing(0.036, 1.0e9)
    e36_25 = arrays.effective_spacing(0.036, 2.5e9)
    results.append(CheckResult(
        name="effective spacing, 36 mm row pitch (known deviation)",
        passed=True, note=True,
        detail=f"computed {e36_1:.4f} (1 GHz) and {e36_25:.4f} (2.5 GHz); the "
               "published 0.15 and 0.275 do not follow from d*delta_f/c0 and "
               "are reported as-is, not reproduced"))
    return results


def simulate_array_timedomain(g: arrays.ArrayGeometry, f1: float, f2: float,
                              theta_signed: np.ndarray | Sequence[float],
                              phi_cut: float,
                              element_gains: np.ndarray | Sequence | None = None
                              ) -> np.ndarray:
    """Brute-force array oracle along a signed-theta cut: for each direction,
    the IF power of the combined array in dB relative to a single isotropic
    element under the same two-tone plane wave, so broadside with unit gains
    gives ``10*log10(N)``.

    One time-domain pass over D*N + 1 rows: one row per direction and
    element, and a last row for a single isotropic element at the origin.
    Each row is a ``signals.synthesize_waveform`` record of the delayed and
    feed-shifted two-tone sum (tone amplitudes :data:`_TONE_AMPLITUDES`),
    squared and read by ``signals.dft_spectrum`` at the IF bin; each
    direction's element tones are summed coherently with ``1/sqrt(N)``
    combiner normalization. The oracle shares those two functions with the
    ``spectrum`` subcommand and nothing with the array-factor kernel.

    ``element_gains`` holds one amplitude-gain pair (at f1, at f2) per
    direction, shared by every element; None means unit gains.
    """
    if not (0.0 < f1 < math.inf and 0.0 < f2 < math.inf and f1 != f2):
        raise ValueError("the two tones need positive, finite, distinct "
                         f"frequencies, got {f1!r} and {f2!r} Hz")
    theta = np.asarray(theta_signed, dtype=float)
    if theta.ndim != 1 or not np.all(np.abs(theta) <= math.pi):
        raise ValueError("theta_signed must be a 1-D cut within [-pi, pi]")
    n, d = g.element_count, theta.size
    gains = (np.ones((d, 2)) if element_gains is None
             else np.asarray(element_gains, dtype=float))
    if gains.shape != (d, 2):
        raise ValueError(f"element_gains must have shape ({d}, 2)")
    if not np.all((gains >= 0.0) & (gains < math.inf)):  # NaN fails both
        raise ValueError("element gains must be >= 0 and finite")
    amps = np.vstack([np.repeat(gains * _TONE_AMPLITUDES, n, axis=0),
                      _TONE_AMPLITUDES])

    # plane-wave phase of every element relative to element 0, per
    # direction: 2*pi * (r_k . u) * f / c0 plus the feed offset, with u the
    # in-plane arrival vector of |theta| at phi_cut, or at phi_cut + pi for
    # negative theta, the azimuth wrapped into [-pi, pi)
    phases = np.zeros((d * n + 1, 2))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        rel = g.element_positions - g.element_positions[0]
        for i, t in enumerate(theta.tolist()):
            polar, az = (t, phi_cut) if t >= 0.0 else (-t, phi_cut + math.pi)
            az = (az + math.pi) % math.tau - math.pi
            s = math.sin(polar)
            path = rel @ np.array([s * math.cos(az), s * math.sin(az)])
            for col, f in enumerate((f1, f2)):
                phases[i * n:(i + 1) * n, col] = (
                    math.tau * path * f / SPEED_OF_LIGHT + g.rf_phase_offsets)
    if not np.all(np.isfinite(phases)):
        raise ValueError("element phases overflow")

    # the planned rate exceeds 4 * max(f1, f2) and the record spans a whole
    # period of every tone, so each product of the square falls on an exact
    # bin. Its 2 min(f1, f2) term shares the IF bin k when one tone is three
    # times the other; it goes as the lower tone's gain squared and twice its
    # feed phase, not as the IF product c1 c2 exp(j(phi2 - phi1)), so under
    # per-direction gains or feed offsets the bin misreads the array factor
    # (by 2 to 326 dB on a 4-element, 50 mm line) and the pair is refused
    if_freq = abs(f1 - f2)
    rate, duration = signals.plan_sampling([f1, f2, if_freq])
    samples = int(round(duration * rate))
    k = round(if_freq / (rate / samples))
    if round(2.0 * min(f1, f2) / (rate / samples)) == k:
        raise ValueError(f"the 2 x {min(f1, f2)} Hz square term shares the IF "
                         f"bin of {f1} and {f2} Hz")

    # rows go through in blocks of at most MAX_SAMPLES samples, the memory
    # of one element's longest record
    tones = np.empty(d * n + 1, dtype=complex)
    rows = max(1, signals.MAX_SAMPLES // samples)
    for lo in range(0, tones.size, rows):
        block = slice(lo, lo + rows)
        w = signals.synthesize_waveform(amps[block], (f1, f2), phases[block],
                                        rate, samples)
        w *= w  # square-law mix
        tones[block] = signals.dft_spectrum(w)[:, k]
    tones[:-1][np.any(amps[:-1] == 0.0, axis=1)] = 0.0  # a dead element

    reference = abs(complex(tones[-1]))
    power_db = np.empty(d)
    for i in range(d):
        total = sum(tones[i * n:(i + 1) * n].tolist()) / math.sqrt(n)
        ratio = abs(total) / reference
        # scalar dB kept apart from units.amplitude_ratio_to_db: the oracle
        # shares no kernel with the fast path it checks
        power_db[i] = (max(units.DB_FLOOR, 20.0 * math.log10(ratio))
                       if ratio > 0.0 else units.DB_FLOOR)
    return power_db


def check_array_oracle_equivalence() -> CheckResult:
    """Time-domain array simulation vs analytic product of array factor and
    element pattern product, on a 19-point theta grid."""
    rng = np.random.default_rng(7)
    theta = np.linspace(-math.pi / 2, math.pi / 2, 19)
    worst = 0.0
    compared = 0
    for _ in range(3):
        n = int(rng.integers(2, 9))
        pos = rng.uniform(-0.05, 0.05, size=(n, 2))
        g = arrays.ArrayGeometry(pos)
        q1, q2 = rng.uniform(0.5, 2.0, size=2)
        af_cut = arrays.if_array_factor_cut(g, 37.5e9, 38.5e9, theta, 0.0)
        gains = np.array([[max(math.cos(t), 0.0) ** q1,
                           max(math.cos(t), 0.0) ** q2] for t in theta])
        analytic = np.array([float(af) * c1 * c2 * math.sqrt(n)
                             for af, (c1, c2) in zip(af_cut, gains)])
        kept = analytic >= 1e-6
        sim = simulate_array_timedomain(g, 37.5e9, 38.5e9, theta[kept], 0.0,
                                        gains[kept])
        for power_db, expected in zip(sim.tolist(), analytic[kept]):
            worst = max(worst, abs(power_db - 20.0 * math.log10(expected)))
        compared += int(kept.sum())
    return CheckResult(
        name="array oracle equivalence (time-domain vs analytic product)",
        passed=worst < 1e-9 and compared >= 40,
        detail=f"worst |delta| {worst:.2e} dB over {compared} grid points "
               "(tolerance 1e-9 dB)")


def check_row_rotation_compensation() -> CheckResult:
    g = arrays.ArrayGeometry.planar_grid(4, 2, 0.032, 0.036)
    offsets = np.zeros(8)
    offsets[4:] = math.pi
    g_flip = arrays.ArrayGeometry(g.element_positions, offsets)
    base, flip = (float(simulate_array_timedomain(
        layout, 37.5e9, 38.5e9, [0.3], 0.0)[0]) for layout in (g, g_flip))
    delta = abs(flip - base)
    rf_broadside = float(arrays.rf_array_factor_cut(g_flip, 38.5e9, [0.0], 0.0)[0])
    rf_db = 20.0 * math.log10(max(rf_broadside, 1e-300))
    ok = delta < 1e-9 and rf_db < -60.0
    return CheckResult(
        name="row-rotation compensation (180 deg feed flip on one row)",
        passed=ok,
        detail=f"IF combined power change {delta:.2e} dB (< 1e-9); RF "
               f"broadside level {rf_db:.1f} dB (< -60)")


def direct_array_factor(g: arrays.ArrayGeometry, frequency: float,
                        theta: np.ndarray, phi: float,
                        offsets: np.ndarray | None) -> np.ndarray:
    """``|mean_k exp(j*phase_k)|`` along a signed-theta cut by summing the
    phasor of every element in every direction: the oracle of the
    array-factor kernel."""
    pos = g.element_positions
    path = (np.outer(np.sin(theta) * math.cos(phi), pos[:, 0])
            + np.outer(np.sin(theta) * math.sin(phi), pos[:, 1]))
    phases = 2.0 * math.pi * frequency / SPEED_OF_LIGHT * path
    if offsets is not None:
        phases += offsets
    return np.hypot(np.cos(phases).sum(axis=1),
                    np.sin(phases).sum(axis=1)) / g.element_count


def _kernel_cuts() -> list[tuple[arrays.ArrayGeometry, tuple[float, ...]]]:
    """Layouts and cut planes: the 4x2 reference grid and a non-uniform
    4 x 3 product with equal feed offsets, at phi = 0.6 and at pi/2 (where
    the x sub-layout of the factorised cut is degenerate); 128 elements
    jittered by up to a quarter pitch about a 16 x 8 grid with random feed
    offsets; and two 4 x 4 sub-arrays 2 m apart with random feed offsets, an
    aperture whose RF cut spreads over hundreds of Taylor bins with element
    phases at the bin radius."""
    rng = np.random.default_rng(11)
    xs = np.array([0.0, 0.011, 0.030, 0.052])
    ys = np.array([-0.02, 0.017, 0.041])
    ix, iy = np.meshgrid(np.arange(16), np.arange(8))
    jittered = np.column_stack([
        (ix.ravel() + rng.uniform(-0.25, 0.25, ix.size)) * 0.032,
        (iy.ravel() + rng.uniform(-0.25, 0.25, iy.size)) * 0.036])
    sub = arrays.ArrayGeometry.planar_grid(4, 4, 0.032, 0.036).element_positions
    both = (0.6, math.pi / 2.0)
    return [(arrays.ArrayGeometry.planar_grid(4, 2, 0.032, 0.036), both),
            (arrays.ArrayGeometry(np.column_stack([np.tile(xs, 3),
                                                   np.repeat(ys, 4)]),
                                  np.full(12, 0.7)), both),
            (arrays.ArrayGeometry(jittered,
                                  rng.uniform(-math.pi, math.pi, 128)), (0.6,)),
            (arrays.ArrayGeometry(np.vstack([sub, sub + [1.5, 1.4]]),
                                  rng.uniform(-math.pi, math.pi, 32)), (0.6,))]


def check_array_factor_kernel() -> CheckResult:
    """The array-factor kernel (product factorisation and blocked Taylor
    expansion) against an element-by-element phasor sum, IF and RF, at
    0.5 deg over the layouts and cut planes of :func:`_kernel_cuts`."""
    theta = np.radians(np.arange(-90.0, 90.0 + 1e-9, 0.5))
    worst = 0.0
    for g, planes in _kernel_cuts():
        for phi in planes:
            cuts = ((1.0e9, None, arrays.if_array_factor_cut(
                        g, 37.5e9, 38.5e9, theta, phi)),
                    (38.5e9, g.rf_phase_offsets, arrays.rf_array_factor_cut(
                        g, 38.5e9, theta, phi)))
            for frequency, offsets, af in cuts:
                direct = direct_array_factor(g, frequency, theta, phi, offsets)
                worst = max(worst, float(np.max(np.abs(af - direct))))
    return CheckResult(
        name="array-factor kernel vs element-by-element sum (product, "
             "jittered and 2 m layouts)",
        passed=worst <= 1e-12,
        detail=f"worst |delta| {worst:.1e} over the 4x2 grid and a "
               "non-uniform 4x3 product with equal feed offsets (two cut "
               "planes), 128 jittered elements and two 4x4 sub-arrays 2 m "
               "apart with unequal feed offsets, IF and RF (tolerance 1e-12)")


def check_square_law_slope() -> CheckResult:
    chain = diode.default_chain()
    z = chain.source_impedance_ohms
    powers = [-60.0, -55.0, -50.0, -45.0]
    drive = [[dbm_to_amplitude(q, z) for q in (p, p - 5.0)] for p in powers]
    out, _ = diode.mix_cells(chain, [diode.BIAS_VOLTAGE] * len(powers), drive,
                             (37.5e9, 38.5e9))
    slope = float(np.polyfit(powers, out, 1)[0])
    return CheckResult(
        name="square-law regime slope (default chain, -60..-45 dBm)",
        passed=abs(slope - 2.0) <= 0.05,
        detail=f"fitted slope {slope:.4f} dB/dB (2.00 +/- 0.05)")


def check_bias_optimum() -> list[CheckResult]:
    results = []
    trio = diode.DiodeModel(1e-13, 1.2, 4.0)
    opt_v, _ = diode.optimal_bias_static(trio, (0.3, 1.0))
    grid = np.arange(0.3, 1.0, 10e-6)
    # second differences of the solved current, independent of the closed
    # form behind iv_derivatives and optimal_bias_static
    current = diode.terminal_current(trio, grid)
    second = current[2:] - 2.0 * current[1:-1] + current[:-2]
    dense = grid[1 + int(np.argmax(second))]
    ok = abs(opt_v - dense) < 1e-3
    try:
        diode.optimal_bias_static(diode.DiodeModel(1e-13, 1.2, 0.0), (0.3, 1.0))
        r0_ok = False
    except diode.NoInteriorMaximum:
        r0_ok = True
    results.append(CheckResult(
        name="static bias optimum vs 10 uV dense-grid scan (R_s = 4 ohm)",
        passed=ok and r0_ok,
        detail=f"closed form {opt_v:.6f} V vs dense grid "
               f"{dense:.6f} V (within 1 mV); R_s = 0 raises "
               "NoInteriorMaximum"))
    d = diode.default_diode()
    v, i = diode.optimal_bias_static(d, (0.3, 1.0))
    results.append(CheckResult(
        name="default device static optimum (fitted calibration)",
        passed=abs(v - 0.73) <= 0.02,
        detail=f"optimum at {v:.4f} V / {i * 1e3:.3f} mA; device parameters "
               "are fitted to place it at 0.73 V / 2.5 mA (vendor values "
               "unpublished)"))
    return results


def bisection_terminal_current(model: diode.DiodeModel,
                               v: np.ndarray) -> np.ndarray:
    """Terminal current by up to 200 halvings of the junction-voltage
    bracket [min(v, 0), max(v, 0)]. A halving that moves neither end leaves
    every later one the same, so the loop stops there with the bits of the
    full 200."""
    lo, hi = np.minimum(v, 0.0), np.maximum(v, 0.0)
    scale = model.series_resistance * model.saturation_current
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        above = mid + scale * np.expm1(
            np.minimum(mid / model.emission_voltage, 700.0)) > v
        new_lo, new_hi = np.where(above, lo, mid), np.where(above, mid, hi)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    return model.saturation_current * np.expm1(
        0.5 * (lo + hi) / model.emission_voltage)


def check_diode_solver() -> CheckResult:
    """terminal_current against bisection at 1e-9 relative, and
    iv_derivatives against 0.1 mV central differences of terminal_current
    within 3e-4 of each column's largest magnitude, over the diode-iv
    default grid and the voltages the strong-drive bias-sweep cells reach."""
    device = diode.default_diode()
    iv_grid = 0.002 * np.arange(451)
    chain = diode.default_chain()
    peak = db_to_amplitude_ratio(chain.lna_gain_db) * sum(
        dbm_to_amplitude(p, chain.source_impedance_ohms) for p in (5.0, 0.0))
    sweep_v = np.linspace(-peak, 0.8 + peak, 4001)
    h = 1e-4
    worst_i = worst_d = 0.0
    for model, v in ((device, iv_grid), (chain.loop_model(), sweep_v)):
        i = diode.terminal_current(model, v)
        ref = bisection_terminal_current(model, v)
        worst_i = max(worst_i, float(np.max(np.abs(i - ref) / np.maximum(
            np.abs(ref), model.saturation_current))))
        di_dv, d2i_dv2 = diode.iv_derivatives(model, v)
        up = diode.terminal_current(model, v + h)
        down = diode.terminal_current(model, v - h)
        for exact, fd in ((di_dv, (up - down) / (2.0 * h)),
                          (d2i_dv2, (up - 2.0 * i + down) / (h * h))):
            worst_d = max(worst_d, float(np.max(np.abs(exact - fd))
                                         / np.max(np.abs(exact))))
    return CheckResult(
        name="diode solver vs bisection, derivatives vs finite differences",
        passed=worst_i <= 1e-9 and worst_d <= 3e-4,
        detail=f"current {worst_i:.1e} relative (<= 1e-9), derivatives "
               f"{worst_d:.1e} of column maximum (<= 3e-4), over 0..0.9 V "
               f"and the +/-{peak:.1f} V strong-drive swing")


def check_friis_anchors() -> CheckResult:
    eta = linkbudget.default_total_efficiency_db
    v34 = linkbudget.friis_rx_power(0.0, 25.0, 1.5, 34e9,
                                    total_efficiency_db=eta(34e9))
    v385 = linkbudget.friis_rx_power(5.0, 25.0, 1.5, 38.5e9,
                                     total_efficiency_db=eta(38.5e9))
    v34i = linkbudget.friis_rx_power(0.0, 25.0, 1.5, 34e9)
    ok = (abs(v34 - (-43.4)) < 0.1 and abs(v385 - (-39.5)) < 0.1
          and abs(v34i - (-41.6)) < 0.05)
    return CheckResult(
        name="Friis anchors (34 / 38.5 GHz, 1.5 m, 25 dB probe)",
        passed=ok,
        detail=f"-43.4 -> {v34:.3f}, -39.5 -> {v385:.3f}, ideal-antenna "
               f"-41.6 -> {v34i:.3f} dBm")


def check_bias_insensitivity() -> CheckResult:
    chain = diode.default_chain(lna_gain_db=35.0)
    z = chain.source_impedance_ohms
    bias = np.round(np.arange(0.0, 0.8001, 0.05), 10)
    spreads = {}
    for p in (-50.0, -20.0):
        drive = [[dbm_to_amplitude(q, z) for q in (p, p - 5.0)]] * bias.size
        vals, _ = diode.mix_cells(chain, bias, drive, (37.5e9, 38.5e9))
        spreads[p] = float(vals.max() - vals.min())
    ok = spreads[-20.0] < 3.0 and spreads[-50.0] > 10.0
    return CheckResult(
        name="bias insensitivity at strong drive (35 dB chain)",
        passed=ok,
        detail=f"IF spread over 0..0.8 V bias: {spreads[-20.0]:.2f} dB at "
               f"-20 dBm (< 3), {spreads[-50.0]:.1f} dB at -50 dBm (> 10)")


def run_all() -> list[CheckResult]:
    results: list[CheckResult] = []
    results.append(check_signal_oracle_equivalence())
    results.append(check_parseval())
    results.append(check_limiting_case_array_gain())
    results.append(check_if_vs_rf_beamwidth())
    results.extend(check_effective_spacing())
    results.append(check_array_oracle_equivalence())
    results.append(check_row_rotation_compensation())
    results.append(check_array_factor_kernel())
    results.append(check_square_law_slope())
    results.extend(check_bias_optimum())
    results.append(check_diode_solver())
    results.append(check_friis_anchors())
    results.append(check_bias_insensitivity())
    return results
