"""Self-checks behind the ``selfmix validate`` subcommand.

Each check compares a closed-form result against an independent brute-force
route (time-domain squaring, dense grids, hand formulas) and returns a
:class:`CheckResult`. Known model-vs-reference discrepancies are reported as
notes, not failures. Everything is deterministic (fixed seeds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import arrays, diode, linkbudget, patterns, signals
from .errors import NoInteriorMaximum
from .units import SPEED_OF_LIGHT, db_to_amplitude_ratio, dbm_to_amplitude


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    note: bool = False  # informational (known deviation), never a failure
    values: tuple[float, ...] = ()  # the measured numbers behind detail

    @property
    def status(self) -> str:
        if self.note:
            return "NOTE"
        return "PASS" if self.passed else "FAIL"


def check_signal_oracle_equivalence(count: int = 20) -> CheckResult:
    """spectrum_self_convolution == dft_spectrum(square_law_mix) bin by bin."""
    rng = np.random.default_rng(1234)
    worst = 0.0
    n = 1024
    rate = float(n)
    for _ in range(count):
        tone_count = int(rng.integers(1, 6))
        bins = rng.choice(np.arange(4, n // 8), size=tone_count, replace=False)
        tones = [signals.ToneSpec(float(b), float(rng.uniform(0.1, 1.0)),
                                  float(rng.uniform(-math.pi, math.pi)))
                 for b in bins]
        w = signals.synthesize_waveform(tones, rate, 1.0)
        direct = signals.dft_spectrum(signals.square_law_mix(w))
        conv = signals.spectrum_self_convolution(signals.dft_spectrum(w))
        m = direct.complex_amplitudes.size
        scale = np.abs(direct.complex_amplitudes).max()
        err = np.abs(conv.complex_amplitudes[:m] - direct.complex_amplitudes) / scale
        worst = max(worst, float(err.max()))
    return CheckResult(
        name="signal oracle equivalence (self-convolution vs time-domain squaring)",
        passed=worst < 1e-9,
        detail=f"worst relative bin error {worst:.3e} over {count} random tone sets "
               "(tolerance 1e-9)",
        values=(worst,))


def check_parseval(count: int = 10) -> CheckResult:
    rng = np.random.default_rng(99)
    worst = 0.0
    n = 1024
    for _ in range(count):
        tones = [signals.ToneSpec(float(b), float(rng.uniform(0.1, 1.0)))
                 for b in rng.choice(np.arange(1, n // 4), size=3, replace=False)]
        w = signals.synthesize_waveform(tones, float(n), 1.0)
        s = signals.dft_spectrum(w)
        mags = s.magnitudes
        spectral = mags[0] ** 2 + 0.5 * np.sum(mags[1:-1] ** 2) + mags[-1] ** 2
        time = float(np.mean(w.samples ** 2))
        worst = max(worst, abs(spectral - time) / time)
    return CheckResult(
        name="Parseval (sample energy equals spectral energy)",
        passed=worst < 1e-9,
        detail=f"worst relative mismatch {worst:.3e} (tolerance 1e-9)")


def check_limiting_case_array_gain() -> CheckResult:
    """delta_f -> 0: IF array factor is 1 at every angle; combiner gives
    10*log10(N)."""
    lam = SPEED_OF_LIGHT / 36e9
    g = arrays.ArrayGeometry.linear(8, 10.0 * lam)
    theta = np.radians(np.arange(-90.0, 90.0 + 1e-9, 0.25))
    af = arrays.if_array_factor_cut(g, 36.0e9 + 1e3, 36.0e9, theta, phi_cut=0.0)
    minimum = float(af.min())
    combine = arrays.combine_elements(np.ones(8), np.zeros(8))
    ok = minimum >= 0.999999 and abs(combine - 10.0 * math.log10(8)) <= 0.01
    return CheckResult(
        name="limiting case: 1 kHz tone spacing, 10 RF-wavelength spacing",
        passed=ok,
        detail=f"min IF array factor {minimum:.8f} (>= 0.999999), "
               f"8-way combiner gain {combine:.4f} dB (9.03 +/- 0.01)")


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
    bw_if = patterns.beamwidth_3db(if_grid)
    bw_rf = patterns.beamwidth_3db(rf_grid)
    ratio = bw_if.width / bw_rf.width
    ok = (len(rf_lobes) >= 2 and len(if_lobes) == 0
          and not bw_rf.no_crossing and ratio > 10.0)
    return CheckResult(
        name="IF vs RF beamwidth, 4x2 layout (32 mm x 36 mm), E-plane",
        passed=ok,
        detail=f"RF lobes above -3 dB in |theta|<=60 deg: {len(rf_lobes)}, "
               f"IF side lobes: {len(if_lobes)}, beamwidth ratio {ratio:.1f} "
               "(> 10)")


def check_effective_spacing() -> list[CheckResult]:
    results = []
    e32_1 = arrays.effective_spacing(0.032, 1.0e9, 36e9)
    e32_25 = arrays.effective_spacing(0.032, 2.5e9, 36e9)
    ok = (abs(e32_1 - 0.1067) < 1e-4 and abs(e32_25 - 0.2668) < 1e-4
          and abs(e32_1 - 0.1) < 0.02 and abs(e32_25 - 0.25) < 0.02)
    results.append(CheckResult(
        name="effective spacing, 32 mm column pitch",
        passed=ok,
        detail=f"computed {e32_1:.4f} (1 GHz) and {e32_25:.4f} (2.5 GHz); "
               "reference rounds these to 0.1 and 0.25"))
    e36_1 = arrays.effective_spacing(0.036, 1.0e9, 36e9)
    e36_25 = arrays.effective_spacing(0.036, 2.5e9, 36e9)
    results.append(CheckResult(
        name="effective spacing, 36 mm row pitch (known deviation)",
        passed=True, note=True,
        detail=f"computed {e36_1:.4f} (1 GHz) and {e36_25:.4f} (2.5 GHz); the "
               "published 0.15 and 0.275 do not follow from d*delta_f/c0 and "
               "are reported as-is, not reproduced"))
    return results


def check_array_oracle_equivalence(geometry_count: int = 3) -> CheckResult:
    """Time-domain array simulation vs analytic product of array factor and
    element pattern product, on a 19-point theta grid."""
    rng = np.random.default_rng(7)
    theta = np.linspace(-math.pi / 2, math.pi / 2, 19)
    worst = 0.0
    compared = 0
    for _ in range(geometry_count):
        n = int(rng.integers(2, 9))
        pos = rng.uniform(-0.05, 0.05, size=(n, 2))
        g = arrays.ArrayGeometry(pos)
        q1, q2 = rng.uniform(0.5, 2.0, size=2)
        af_cut = arrays.if_array_factor_cut(g, 37.5e9, 38.5e9, theta, 0.0)
        for t, af in zip(theta, af_cut):
            d = arrays.cut_direction(float(t), 0.0)
            c1 = max(math.cos(t), 0.0) ** q1
            c2 = max(math.cos(t), 0.0) ** q2
            analytic = float(af) * c1 * c2 * math.sqrt(n)
            if analytic < 1e-6:
                continue
            ill = arrays.TwoToneIllumination(
                f1=37.5e9, f2=38.5e9, amplitudes=(1.0, 0.5), direction=d)
            gains = np.tile([c1, c2], (n, 1))
            sim = arrays.simulate_array_timedomain(g, ill, gains)
            worst = max(worst, abs(sim.if_power_rel_db
                                   - 20.0 * math.log10(analytic)))
            compared += 1
    return CheckResult(
        name="array oracle equivalence (time-domain vs analytic product)",
        passed=worst < 0.05 and compared >= 40,
        detail=f"worst |delta| {worst:.2e} dB over {compared} grid points "
               "(tolerance 0.05 dB)",
        values=(worst, float(compared)))


def check_row_rotation_compensation() -> CheckResult:
    g = arrays.ArrayGeometry.planar_grid(4, 2, 0.032, 0.036)
    offsets = np.zeros(8)
    offsets[4:] = math.pi
    g_flip = g.with_rf_phase_offsets(offsets)
    ill = arrays.TwoToneIllumination(f1=37.5e9, f2=38.5e9, amplitudes=(1.0, 0.5),
                                     direction=arrays.Direction(0.3, 0.0))
    base = arrays.simulate_array_timedomain(g, ill)
    flip = arrays.simulate_array_timedomain(g_flip, ill)
    delta = abs(flip.if_power_rel_db - base.if_power_rel_db)
    rf_broadside = float(arrays.rf_array_factor_cut(g_flip, 38.5e9, [0.0], 0.0)[0])
    rf_db = 20.0 * math.log10(max(rf_broadside, 1e-300))
    ok = delta < 1e-9 and rf_db < -60.0
    return CheckResult(
        name="row-rotation compensation (180 deg feed flip on one row)",
        passed=ok,
        detail=f"IF combined power change {delta:.2e} dB (< 1e-9); RF "
               f"broadside level {rf_db:.1f} dB (< -60)",
        values=(delta, rf_db))


def direct_array_factor(g: arrays.ArrayGeometry, frequency: float,
                        theta: np.ndarray, phi: float,
                        offsets: np.ndarray | None = None) -> np.ndarray:
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
    powers = [-60.0, -55.0, -50.0, -45.0]
    out = []
    for p in powers:
        tones = [signals.ToneSpec(37.5e9, dbm_to_amplitude(p)),
                 signals.ToneSpec(38.5e9, dbm_to_amplitude(p - 5.0))]
        out.append(diode.simulate_mixing(chain, tones, 1.0e9).if_power_dbm)
    slope = float(np.polyfit(powers, out, 1)[0])
    return CheckResult(
        name="square-law regime slope (default chain, -60..-45 dBm)",
        passed=abs(slope - 2.0) <= 0.05,
        detail=f"fitted slope {slope:.4f} dB/dB (2.00 +/- 0.05)",
        values=(slope,))


def check_bias_optimum() -> list[CheckResult]:
    results = []
    trio = diode.DiodeModel(1e-13, 1.2, 4.0)
    opt = diode.optimal_bias_static(trio, (0.3, 1.0))
    grid = np.arange(0.3, 1.0, 10e-6)
    # second differences of the solved current, independent of the closed
    # form behind iv_derivatives and optimal_bias_static
    current = diode.terminal_current(trio, grid)
    second = current[2:] - 2.0 * current[1:-1] + current[:-2]
    dense = grid[1 + int(np.argmax(second))]
    ok = abs(opt.terminal_voltage - dense) < 1e-3
    try:
        diode.optimal_bias_static(diode.DiodeModel(1e-13, 1.2, 0.0), (0.3, 1.0))
        r0_ok = False
    except NoInteriorMaximum:
        r0_ok = True
    results.append(CheckResult(
        name="static bias optimum vs 10 uV dense-grid scan (R_s = 4 ohm)",
        passed=ok and r0_ok,
        detail=f"closed form {opt.terminal_voltage:.6f} V vs dense grid "
               f"{dense:.6f} V (within 1 mV); R_s = 0 raises "
               "NoInteriorMaximum"))
    d = diode.default_diode()
    opt_default = diode.optimal_bias_static(d, (0.3, 1.0))
    results.append(CheckResult(
        name="default device static optimum (fitted calibration)",
        passed=abs(opt_default.terminal_voltage - 0.73) <= 0.02,
        detail=f"optimum at {opt_default.terminal_voltage:.4f} V / "
               f"{opt_default.bias_current * 1e3:.3f} mA; device parameters "
               "are fitted to place it at 0.73 V / 2.5 mA (vendor values "
               "unpublished)"))
    return results


def _bisection_terminal_current(model: diode.DiodeModel,
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
    peak = db_to_amplitude_ratio(chain.lna_gain_db) * (
        dbm_to_amplitude(5.0) + dbm_to_amplitude(0.0))
    sweep_v = np.linspace(-peak, 0.8 + peak, 4001)
    h = 1e-4
    worst_i = worst_d = 0.0
    for model, v in ((device, iv_grid), (chain.loop_model(), sweep_v)):
        i = diode.terminal_current(model, v)
        ref = _bisection_terminal_current(model, v)
        worst_i = max(worst_i, float(np.max(np.abs(i - ref) / np.maximum(
            np.abs(ref), model.saturation_current))))
        d = diode.iv_derivatives(model, v)
        up = diode.terminal_current(model, v + h)
        down = diode.terminal_current(model, v - h)
        for exact, fd in ((d.di_dv, (up - down) / (2.0 * h)),
                          (d.d2i_dv2, (up - 2.0 * i + down) / (h * h))):
            worst_d = max(worst_d, float(np.max(np.abs(exact - fd))
                                         / np.max(np.abs(exact))))
    return CheckResult(
        name="diode solver vs bisection, derivatives vs finite differences",
        passed=worst_i <= 1e-9 and worst_d <= 3e-4,
        detail=f"current {worst_i:.1e} relative (<= 1e-9), derivatives "
               f"{worst_d:.1e} of column maximum (<= 3e-4), over 0..0.9 V "
               f"and the +/-{peak:.1f} V strong-drive swing")


def check_friis_anchors() -> CheckResult:
    p34 = linkbudget.LinkBudgetParams(
        tx_power_dbm=0.0, tx_gain_db=25.0, distance_m=1.5, frequency_hz=34e9,
        total_efficiency_db=linkbudget.default_total_efficiency_db(34e9))
    p385 = linkbudget.LinkBudgetParams(
        tx_power_dbm=5.0, tx_gain_db=25.0, distance_m=1.5, frequency_hz=38.5e9,
        total_efficiency_db=linkbudget.default_total_efficiency_db(38.5e9))
    p34_ideal = linkbudget.LinkBudgetParams(
        tx_power_dbm=0.0, tx_gain_db=25.0, distance_m=1.5, frequency_hz=34e9)
    v34 = linkbudget.friis_rx_power(p34)
    v385 = linkbudget.friis_rx_power(p385)
    v34i = linkbudget.friis_rx_power(p34_ideal)
    ok = (abs(v34 - (-43.4)) < 0.1 and abs(v385 - (-39.5)) < 0.1
          and abs(v34i - (-41.6)) < 0.05)
    return CheckResult(
        name="Friis anchors (34 / 38.5 GHz, 1.5 m, 25 dB probe)",
        passed=ok,
        detail=f"-43.4 -> {v34:.3f}, -39.5 -> {v385:.3f}, ideal-antenna "
               f"-41.6 -> {v34i:.3f} dBm",
        values=(v34, v385, v34i))


def check_bias_insensitivity() -> CheckResult:
    chain = diode.default_chain(lna_gain_db=35.0)
    bias = np.round(np.arange(0.0, 0.8001, 0.05), 10)
    spreads = {}
    for p in (-50.0, -20.0):
        sweep = diode.bias_power_sweep(chain, bias, [p], (37.5e9, 38.5e9))
        vals = np.array([row[0].if_power_dbm for row in sweep.cells])
        spreads[p] = float(vals.max() - vals.min())
    ok = spreads[-20.0] < 3.0 and spreads[-50.0] > 10.0
    return CheckResult(
        name="bias insensitivity at strong drive (35 dB chain)",
        passed=ok,
        detail=f"IF spread over 0..0.8 V bias: {spreads[-20.0]:.2f} dB at "
               f"-20 dBm (< 3), {spreads[-50.0]:.1f} dB at -50 dBm (> 10)",
        values=(spreads[-20.0], spreads[-50.0]))


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
