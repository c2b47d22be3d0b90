import math
import warnings
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfmix import diode, validation
from selfmix.diode import (
    BIAS_VOLTAGE,
    OMEGA_STEPS,
    DiodeModel,
    MixingChain,
    NoInteriorMaximum,
    default_chain,
    default_diode,
    iv_derivatives,
    mix_cells,
    optimal_bias_static,
    terminal_current,
)
from selfmix.signals import dft_spectrum, plan_sampling, synthesize_waveform
from selfmix.units import DB_FLOOR, db_to_amplitude_ratio, dbm_to_amplitude, watts_to_dbm

# explicit trio used for the solver-facing tests (separate from the fitted
# default device)
TRIO = DiodeModel(saturation_current=1e-13, ideality=1.2, series_resistance=4.0)


def two_tone(p1_dbm, p2_dbm, f1=37.5e9, f2=38.5e9):
    """(amplitudes, frequencies) of a two-tone drive."""
    return [dbm_to_amplitude(p1_dbm), dbm_to_amplitude(p2_dbm)], [f1, f2]


def one_cell(chain, bias, amplitudes, frequencies):
    """The one-cell mix_cells call at bias voltage ``bias``, as the pair
    (if_power_dbm, dc_current) of floats."""
    if_power_dbm, dc_current = mix_cells(chain, [bias], [amplitudes],
                                         frequencies)
    return float(if_power_dbm[0]), float(dc_current[0])


def junction(model, v):
    """The bare junction's current: the terminal current at R_s = 0."""
    return terminal_current(replace(model, series_resistance=0.0), v)


def sweep(chain, biases, powers, pair=(37.5e9, 38.5e9)):
    """One mix_cells call over a bias x power grid, the second tone 5 dB
    below the first: (if_power_dbm, dc_current), each of shape
    (biases, powers)."""
    drive = [(dbm_to_amplitude(p), dbm_to_amplitude(p - 5.0)) for p in powers]
    if_power_dbm, dc_current = mix_cells(
        chain, np.repeat(biases, len(powers)), drive * len(biases), pair)
    shape = (len(biases), len(powers))
    return if_power_dbm.reshape(shape), dc_current.reshape(shape)


class TestDiodeModel:
    @pytest.mark.parametrize("field", ["saturation_current", "ideality",
                                       "series_resistance", "thermal_voltage"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameter_rejected(self, field, value):
        params = dict(saturation_current=1e-13, ideality=1.2,
                      series_resistance=4.0, thermal_voltage=0.02585)
        params[field] = value
        with pytest.raises(ValueError):
            DiodeModel(**params)


class TestJunctionCurrent:
    """terminal_current at R_s = 0: the Shockley junction alone."""

    def test_zero_voltage(self):
        assert junction(TRIO, 0.0) == 0.0

    def test_reverse_saturation(self):
        assert junction(TRIO, -5.0) == pytest.approx(-1e-13, rel=1e-9)

    def test_forward_anchor(self):
        # direct evaluation at 0.73 V: about 1.7 mA for this trio
        expected = 1e-13 * (math.exp(0.73 / (1.2 * 0.02585)) - 1.0)
        i = terminal_current(DiodeModel(1e-13, 1.2, 0.0), 0.73)
        assert i == pytest.approx(expected, rel=1e-12)
        assert 1.5e-3 < i < 1.9e-3

    def test_no_clamp_past_sixty_emission_voltages(self):
        # 60 nV_T is 1.86 V: the current keeps its exponential growth there,
        # and past the float range it is an error, not a plateau
        model = DiodeModel(2.5e-13, 1.2, 0.0)
        v = np.array([1.7, 1.9, 2.0, 2.1, 2.2])
        expected = model.saturation_current * np.expm1(
            v / model.emission_voltage)
        assert terminal_current(model, v).tobytes() == expected.tobytes()
        assert np.all(np.diff(terminal_current(model, v)) > 0.0)
        with pytest.raises(ValueError, match="overflows"):
            terminal_current(model, 100.0)
        with pytest.raises(ValueError, match="must be finite"):
            terminal_current(model, math.nan)


class TestTerminalCurrent:
    def test_zero_series_resistance_is_exact(self):
        model = DiodeModel(1e-13, 1.2, 0.0)
        for v in (-1.0, 0.0, 0.3, 0.7):
            assert terminal_current(model, v) == float(
                model.saturation_current
                * np.expm1(np.float64(v) / model.emission_voltage))

    def test_zero_voltage_any_resistance(self):
        assert terminal_current(TRIO, 0.0) == 0.0

    def test_less_than_junction_in_forward_bias(self):
        assert terminal_current(TRIO, 0.75) < junction(TRIO, 0.75)

    def test_against_bisection_oracle(self):
        # 14.33 V on the default chain's loop is within the swing of a
        # 0 dBm / -5 dBm cell with the 25 dB LNA
        voltages = np.array([-1e4, -100.0, -2.0, 0.2, 0.5, 0.75, 1.0, 2.5,
                             14.33, 100.0, 1e3, 1e4])
        models = [DiodeModel(1e-13, 1.2, r) for r in (4.0, 6.2, 56.2)]
        for model in models + [default_chain().loop_model()]:
            reference = validation.bisection_terminal_current(model, voltages)
            for v, expected in zip(voltages, reference):
                assert terminal_current(model, float(v)) == pytest.approx(
                    expected, rel=1e-9, abs=1e-18)

    def test_bisection_stop_keeps_the_bits_of_200_halvings(self):
        # the grids of check_diode_solver, and +/-1e4 V on the models above
        def full_bisection(model, v):
            lo, hi = np.minimum(v, 0.0), np.maximum(v, 0.0)
            scale = model.series_resistance * model.saturation_current
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                above = mid + scale * np.expm1(
                    np.minimum(mid / model.emission_voltage, 700.0)) > v
                lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
            return model.saturation_current * np.expm1(
                0.5 * (lo + hi) / model.emission_voltage)

        chain = default_chain()
        peak = db_to_amplitude_ratio(chain.lna_gain_db) * (
            dbm_to_amplitude(5.0) + dbm_to_amplitude(0.0))
        wide = np.linspace(-1e4, 1e4, 4001)
        cases = [(default_diode(), 0.002 * np.arange(451)),
                 (chain.loop_model(), np.linspace(-peak, 0.8 + peak, 4001))]
        cases += [(DiodeModel(1e-13, 1.2, r), wide) for r in (4.0, 6.2, 56.2)]
        for model, v in cases:
            fast = validation.bisection_terminal_current(model, v)
            assert [x.hex() for x in fast.tolist()] == [
                x.hex() for x in full_bisection(model, v).tolist()]

    def test_residual_tolerance(self):
        # voltage form: the current form cannot reach 1e-12 in double
        # precision once the junction is a small part of v
        nvt = TRIO.emission_voltage
        for v in (0.3, 0.6, 0.75, 1.5, 49.0, 1e3, 1e4):
            i = terminal_current(TRIO, v)
            u = math.log1p(i / TRIO.saturation_current)
            residual = abs(nvt * u + i * TRIO.series_resistance - v)
            assert residual <= 1e-12 * max(abs(v), nvt)

    def test_vector_equals_scalar_calls(self):
        # every sample of the 0 dBm / -5 dBm cell, solved as one vector
        chain = default_chain()
        gain = db_to_amplitude_ratio(chain.lna_gain_db)
        amplitudes, frequencies = two_tone(0.0, -5.0)
        rate, duration = plan_sampling([37.5e9, 38.5e9, 1e9], oversample=24.0)
        v = BIAS_VOLTAGE + synthesize_waveform(
            gain * np.array(amplitudes), frequencies, 0.0, rate,
            round(rate * duration))
        assert v.size == 2048
        loop = chain.loop_model()
        vector = terminal_current(loop, v)
        assert np.array_equal(vector,
                              [terminal_current(loop, float(x)) for x in v])

    def test_in_place_steps_equal_the_textbook_update(self):
        # the buffered Newton loop keeps the operation order of the one-line
        # update, so every sample agrees bit for bit
        loop = default_chain().loop_model()
        v = np.concatenate([np.linspace(-1e4, 1e4, 4001),
                            np.linspace(-20.0, 20.0, 4001)])
        nvt = loop.emission_voltage
        c = loop.saturation_current * loop.series_resistance / nvt
        x = v / nvt
        z = math.log(c) + c + x
        z_hi = np.maximum(z, 1.0)
        u = np.where(z > 1.0, np.log(z_hi - np.log(z_hi)) - math.log(c), x)
        for _ in range(OMEGA_STEPS):
            u = u - (u + c * np.expm1(u) - x) / (1.0 + c + c * np.expm1(u))
        textbook = loop.saturation_current * np.expm1(u)
        assert terminal_current(loop, v).tobytes() == textbook.tobytes()

    def test_overflow_is_an_error_not_nan(self):
        # I_s R_s / nV_T ~ 3e-309: the junction exponent passes 709 at 30 V
        with pytest.raises(ValueError):
            terminal_current(DiodeModel(1e-300, 1.0, 1e-10), 30.0)

    def test_voltage_past_float_range_raises_without_warnings(self):
        # v / nV_T overflows to inf: the guard raises, numpy stays quiet
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                terminal_current(TRIO, 1e308)

    def test_cancelled_slope_raises_without_warnings(self):
        # c = I_s R_s / nV_T ~ 3e19: 1 + c loses its 1, and near -I_s R_s
        # the Newton slope cancels to 0; the guard raises, numpy stays quiet
        model = DiodeModel(1e3, 1.2, 1e15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                terminal_current(model, -1e18)

    def test_strictly_increasing(self):
        grid = np.arange(0.0, 0.9001, 1e-3)
        current = terminal_current(TRIO, grid)
        assert np.all(np.diff(current) > 0.0)

    def test_bounded_by_junction_current(self):
        grid = np.linspace(0.01, 1.0, 100)
        assert np.all(terminal_current(TRIO, grid) <= junction(TRIO, grid))


class TestIvDerivatives:
    def test_deep_reverse_bias(self):
        di_dv, d2i_dv2 = iv_derivatives(TRIO, -2.0)
        assert abs(di_dv) < 1e-9
        assert abs(d2i_dv2) < 1e-9

    def test_pure_exponential_monotone_second_derivative(self):
        model = DiodeModel(1e-13, 1.2, 0.0)
        grid = np.linspace(0.3, 0.7, 200)
        _, d2 = iv_derivatives(model, grid)
        assert np.all(np.diff(d2) > 0.0)
        # analytic second derivative of the exponential as oracle
        a = 1.0 / model.emission_voltage
        analytic = model.saturation_current * a * a * np.exp(a * grid)
        assert np.allclose(d2, analytic, rtol=1e-6)

    def test_series_resistance_creates_interior_maximum(self):
        grid = np.linspace(0.3, 1.0, 2000)
        _, d2 = iv_derivatives(TRIO, grid)
        k = int(np.argmax(d2))
        assert 0 < k < grid.size - 1


class TestOptimalBiasStatic:
    def test_matches_dense_grid(self):
        dense_scan = validation.check_bias_optimum()[0]
        assert dense_scan.passed, dense_scan.detail

    def test_no_interior_maximum_without_series_resistance(self):
        with pytest.raises(NoInteriorMaximum):
            optimal_bias_static(DiodeModel(1e-13, 1.2, 0.0), (0.3, 1.0))

    def test_narrow_range_is_rejected(self):
        with pytest.raises(NoInteriorMaximum):
            optimal_bias_static(TRIO, (0.3, 0.5))

    def test_default_device_exact_optimum(self):
        v, i = optimal_bias_static(default_diode(), (0.3, 1.0))
        assert v == pytest.approx(0.729792, abs=1e-6)
        assert i == pytest.approx(2.5016e-3, abs=1e-7)

    def test_default_device_calibration(self):
        # fitted placeholder device: optimum pinned at 0.73 V / 2.5 mA
        v, i = optimal_bias_static(default_diode(), (0.3, 1.0))
        assert v == pytest.approx(0.73, abs=0.02)
        assert i == pytest.approx(2.5e-3, rel=0.05)


class TestSimulateMixing:
    """One mix_cells cell at the operating bias voltage."""

    def test_zero_amplitude_tones(self):
        chain = default_chain()
        if_power_dbm, dc_current = one_cell(chain, BIAS_VOLTAGE, [0.0, 0.0],
                                            [37.5e9, 38.5e9])
        assert if_power_dbm == DB_FLOOR
        assert dc_current == terminal_current(chain.loop_model(),
                                              BIAS_VOLTAGE)

    def test_doubling_amplitudes_gives_12_db(self):
        chain = default_chain()
        amplitudes, frequencies = two_tone(-70.0, -75.0)
        low, _ = one_cell(chain, BIAS_VOLTAGE, amplitudes, frequencies)
        high, _ = one_cell(chain, BIAS_VOLTAGE, [2.0 * a for a in amplitudes],
                           frequencies)
        assert high - low == pytest.approx(12.0, abs=0.5)

    def test_conversion_loss_canceled_at_moderate_drive(self):
        # -40/-45 dBm two-tone with the 25 dB amplifier: IF comes back out
        # within a few dB of the input level
        chain = default_chain()
        if_power_dbm, _ = one_cell(chain, BIAS_VOLTAGE,
                                   *two_tone(-40.0, -45.0))
        assert if_power_dbm == pytest.approx(-40.0, abs=6.0)

    def test_small_signal_matches_taylor_coefficient(self):
        chain = default_chain()
        p = -65.0
        gain = db_to_amplitude_ratio(chain.lna_gain_db)
        a1 = gain * dbm_to_amplitude(p)
        a2 = gain * dbm_to_amplitude(p - 5.0)
        _, g2 = iv_derivatives(chain.loop_model(), BIAS_VOLTAGE)
        predicted = watts_to_dbm((0.5 * g2 * a1 * a2) ** 2
                                 * chain.if_load_ohms / 2.0)
        if_power_dbm, _ = one_cell(chain, BIAS_VOLTAGE, *two_tone(p, p - 5.0))
        assert if_power_dbm == pytest.approx(predicted, abs=1.0)

    def test_deterministic(self):
        chain = default_chain()
        tones = two_tone(-42.0, -47.0)
        assert (one_cell(chain, BIAS_VOLTAGE, *tones)
                == one_cell(chain, BIAS_VOLTAGE, *tones))

    def test_dc_current_nonnegative_forward(self):
        chain = default_chain()
        _, dc_current = one_cell(chain, BIAS_VOLTAGE, *two_tone(-30.0, -35.0))
        assert dc_current >= 0.0

    def test_empty_tone_list(self):
        with pytest.raises(ValueError, match="need at least one tone"):
            one_cell(default_chain(), BIAS_VOLTAGE, [], [])


class TestMixingChain:
    @pytest.mark.parametrize("field", ["if_load_ohms",
                                       "source_impedance_ohms"])
    def test_non_positive_impedance_rejected(self, field):
        with pytest.raises(ValueError, match="must be positive"):
            MixingChain(lna_gain_db=25.0, diode=default_diode(),
                        **{field: 0.0})


class TestBiasPowerSweep:
    """The bias x input-power grid as one mix_cells call."""

    def test_single_cell_equals_direct_call(self):
        chain = default_chain()
        if_power_dbm, dc_current = sweep(chain, [0.65], [-40.0])
        direct = one_cell(chain, 0.65, *two_tone(-40.0, -45.0))
        assert (if_power_dbm[0, 0], dc_current[0, 0]) == direct

    def test_single_cell_at_another_tone_pair_equals_direct_call(self):
        chain = default_chain()
        if_power_dbm, dc_current = sweep(chain, [0.65], [-40.0], (34e9, 35e9))
        direct = one_cell(chain, 0.65, *two_tone(-40.0, -45.0, 34e9, 35e9))
        assert (if_power_dbm[0, 0], dc_current[0, 0]) == direct

    def test_spread_shrinks_with_power(self):
        chain = default_chain()
        bias = np.arange(0.0, 0.8001, 0.1)
        vals, _ = sweep(chain, bias, [-50.0, -30.0, -15.0])
        spreads = vals.max(axis=0) - vals.min(axis=0)
        assert spreads[0] > spreads[1] > spreads[2]

    def test_low_power_optimum_in_forward_bias(self):
        chain = default_chain()
        bias = np.round(np.arange(0.0, 0.8001, 0.05), 10)
        vals, _ = sweep(chain, bias, [-40.0])
        best = bias[int(np.argmax(vals[:, 0]))]
        assert 0.55 <= best <= 0.75

    def test_strong_drive_cells_solve(self):
        chain = default_chain()
        bias = np.round(np.arange(0.0, 0.8001, 0.05), 10)
        if_power_dbm, dc_current = sweep(chain, bias, [0.0, 5.0])
        assert np.all(np.isfinite(if_power_dbm))
        assert np.all(np.isfinite(dc_current))

    def test_flat_chain_same_cells_at_every_centre(self):
        # the memoryless chain has no frequency response: at fixed tone
        # powers, every 1 GHz-spaced pair from 34 to 38 GHz mixes alike, up
        # to the sampling's alias error
        chain = default_chain()
        powers = np.array([sweep(chain, [0.6, 0.65], [-40.0], (f, f + 1e9))[0]
                           for f in (34e9, 35e9, 36e9, 37e9, 38e9)])
        assert np.all(powers.max(axis=0) - powers.min(axis=0) < 1e-9)


def full_record_current(chain, bias, amplitudes, frequencies, phases=0.0):
    """One driven cell's loop current at bias voltage ``bias`` over the
    whole record of its tone pair, synthesised and solved on its own, and
    the record's IF bin."""
    if_frequency = abs(frequencies[1] - frequencies[0])
    amplified = db_to_amplitude_ratio(chain.lna_gain_db) * np.asarray(
        amplitudes)
    rate, duration = plan_sampling(list(frequencies) + [if_frequency],
                                   oversample=24.0)
    rf = synthesize_waveform(amplified, frequencies, phases, rate,
                             round(rate * duration))
    return (terminal_current(chain.loop_model(), bias + rf),
            round(if_frequency * duration))


def per_cell_route(chain, bias, amplitudes, frequencies, phases=0.0):
    """Oracle: one cell at bias voltage ``bias`` synthesised, solved and
    transformed on its own over its whole record, the route of the per-cell
    sweep loop that the mixing kernel replaced; ``phases`` are the tones'
    phases, which the kernel takes as 0."""
    if not np.any(amplitudes):
        return DB_FLOOR, terminal_current(chain.loop_model(), bias)
    current, if_bin = full_record_current(chain, bias, amplitudes,
                                          frequencies, phases)
    dc, i_if = dft_spectrum(current, [0, if_bin])
    return if_power(chain, abs(i_if)), float(dc.real)


def if_power(chain, magnitude):
    """IF power in dBm of a one-sided IF current amplitude in the IF load."""
    return watts_to_dbm(magnitude * magnitude * chain.if_load_ohms / 2.0)


def bits(if_power_dbm, dc_current):
    """A cell's (if_power_dbm, dc_current) as exact bit patterns (float.hex
    tells -0.0 from 0.0)."""
    return float(if_power_dbm).hex(), float(dc_current).hex()


# how far a cell may read from the FFT of its whole record: a mirrored
# sample's drive differs from its own in the last bits only, and the kernel
# sums weighted samples where the FFT runs butterflies
IF_DB_BOUND = 1e-10
DC_REL_BOUND = 1e-12


def near_full_record(if_power_dbm, dc_current, expected):
    """Whether a cell is within rounding of ``expected``, the per-cell
    route's (if_power_dbm, dc_current)."""
    return (abs(if_power_dbm - expected[0]) <= IF_DB_BOUND
            and abs(dc_current - expected[1]) <= DC_REL_BOUND * abs(
                expected[1]))


def halved(frequencies):
    """Whether mix_cells solves the tone pair on half its record: both
    tones whole numbers of hertz on odd bins of the common grid."""
    _, duration = plan_sampling(
        list(frequencies) + [abs(frequencies[1] - frequencies[0])],
        oversample=24.0)
    return all(f == round(f) and round(f * duration) % 2 == 1
               for f in frequencies)


@st.composite
def mixing_cases(draw):
    """(frequencies, biases, drive): a tone pair on a 0.5 or 1 GHz grid in
    30-40 GHz, half the time both at odd multiples of it (and so on odd
    bins of their common grid) and otherwise of any parity, and one to
    three cells of bias 0-0.8 V and per-tone drive -60 to +5 dBm."""
    grid = draw(st.sampled_from([0.5e9, 1e9]))
    odd = draw(st.booleans())
    steps = draw(st.lists(
        st.integers(round(30e9 / grid), round(40e9 / grid)).filter(
            lambda k: k % 2 or not odd),
        min_size=2, max_size=2, unique=True))
    frequencies = [k * grid for k in steps]
    cells = draw(st.integers(1, 3))
    biases = draw(st.lists(st.floats(0.0, 0.8), min_size=cells,
                           max_size=cells))
    drive = draw(st.lists(st.lists(st.floats(-60.0, 5.0), min_size=2,
                                   max_size=2),
                          min_size=cells, max_size=cells))
    return frequencies, biases, drive


def recording_solves(mp):
    """Patch diode.terminal_current to record the shape of every 2-D solve
    it is given; returns the list the shapes go to."""
    solved = []

    def recording_solve(model, v):
        if np.ndim(v) == 2:
            solved.append(v.shape)
        return terminal_current(model, v)

    mp.setattr(diode, "terminal_current", recording_solve)
    return solved


class TestMixingKernel:
    BIASES = [0.3, 0.65, 0.8]
    POWERS = [-60.0, -30.0, -10.0, 0.0, 5.0]

    @pytest.mark.parametrize("block, shapes", [
        # the 37.5/38.5 GHz pair sits on the odd bins 75 and 77 of a
        # 2048-sample record, so each cell solves 1025 representative
        # samples: 16 cells a block hold all 15 cells, one a block takes 15
        # blocks, and at 8 cells a block the 15 end in a partial block
        (4 * 4096 + 100, [(15, 1025)]),
        (1, [(1, 1025)] * 15),
        (8 * 1025 + 100, [(8, 1025), (7, 1025)]),
    ])
    def test_sweep_equals_per_cell_route(self, monkeypatch, block, shapes):
        plans = []

        def recording_plan(*args, **kwargs):
            plans.append(args)
            return plan_sampling(*args, **kwargs)

        monkeypatch.setattr(diode, "MIXING_BLOCK", block)
        solved = recording_solves(monkeypatch)
        monkeypatch.setattr(diode, "plan_sampling", recording_plan)
        chain = default_chain()
        if_power_dbm, dc_current = sweep(chain, self.BIASES, self.POWERS)
        assert solved == shapes
        assert len(plans) == 1
        monkeypatch.undo()
        # the strong-drive cells solve to finite values
        assert np.all(np.isfinite(if_power_dbm))
        assert np.all(np.isfinite(dc_current))
        for i, bias in enumerate(self.BIASES):
            for j, p in enumerate(self.POWERS):
                tones = two_tone(p, p - 5.0)
                assert bits(if_power_dbm[i, j], dc_current[i, j]) == bits(
                    *one_cell(chain, bias, *tones)), (bias, p)
                assert near_full_record(
                    if_power_dbm[i, j], dc_current[i, j],
                    per_cell_route(chain, bias, *tones)), (bias, p)

    def test_mixed_parity_sweep_keeps_the_full_record(self, monkeypatch):
        # 34/35 GHz sit on the bins 68 and 70 of a 1 GHz grid, 34.5/35 GHz
        # on 69 and 70 of a 0.5 GHz grid, and 37.5 GHz + 0.4 Hz, which
        # plan_sampling puts on the odd bin 75 beside 38.5 GHz on 77, is
        # synthesised 0.4 Hz off it: no sample mirrors another, and every
        # cell is within rounding of the per-cell route
        chain = default_chain()
        for pair, n in [((34e9, 35e9), 1024), ((34.5e9, 35e9), 2048),
                        ((37.5e9 + 0.4, 38.5e9), 2048)]:
            with monkeypatch.context() as mp:
                solved = recording_solves(mp)
                if_power_dbm, dc_current = sweep(chain, self.BIASES,
                                                 self.POWERS, pair)
            assert [shape[1] for shape in solved] == [n] * len(solved)
            for i, bias in enumerate(self.BIASES):
                for j, p in enumerate(self.POWERS):
                    assert near_full_record(
                        if_power_dbm[i, j], dc_current[i, j],
                        per_cell_route(chain, bias,
                                       *two_tone(p, p - 5.0, *pair))), (
                        pair, bias, p)

    @settings(max_examples=60, deadline=timedelta(seconds=20),
              derandomize=True)
    @given(case=mixing_cases())
    def test_half_record_exactly_for_odd_bins_at_zero_phase(self, case):
        # the kernel solves n/2 + 1 samples a cell exactly when both tones
        # sit on odd bins, and n otherwise; either way the cell lies within
        # rounding of the per-cell route
        frequencies, biases, drive = case
        chain = default_chain()
        amplitudes = [[dbm_to_amplitude(p) for p in row] for row in drive]
        with pytest.MonkeyPatch.context() as mp:
            solved = recording_solves(mp)
            if_power_dbm, dc_current = mix_cells(chain, biases, amplitudes,
                                                 frequencies)
        if_frequency = abs(frequencies[1] - frequencies[0])
        rate, duration = plan_sampling(frequencies + [if_frequency],
                                       oversample=24.0)
        n = round(rate * duration)
        half = halved(frequencies)
        assert solved and all(shape[1] == (n // 2 + 1 if half else n)
                              for shape in solved)
        for k, bias in enumerate(biases):
            assert near_full_record(
                if_power_dbm[k], dc_current[k],
                per_cell_route(chain, bias, amplitudes[k], frequencies))

    @pytest.mark.parametrize("pair", [(37.5e9, 38.5e9), (34e9, 35e9),
                                      (34.5e9, 35e9)])
    def test_sweep_grid_within_rounding_of_per_cell_route(self, pair):
        # every cell of the 238-cell grid of the sweep benchmark, built as
        # bias-sweep builds it (0 to 0.8 V in 50 mV steps, -60 to +5 dBm in
        # 5 dB steps), on the odd-bin pair and on both mixed-parity pairs
        chain = default_chain()
        biases = [0.05 * k for k in range(17)]
        powers = [-60.0 + 5.0 * k for k in range(14)]
        if_power_dbm, dc_current = sweep(chain, biases, powers, pair)
        for i, bias in enumerate(biases):
            for j, p in enumerate(powers):
                assert near_full_record(
                    if_power_dbm[i, j], dc_current[i, j],
                    per_cell_route(chain, bias,
                                   *two_tone(p, p - 5.0, *pair))), (
                    pair, bias, p)

    @settings(max_examples=40, deadline=timedelta(seconds=20),
              derandomize=True)
    @given(pair=st.sampled_from([(37.5e9, 38.5e9), (34e9, 35e9)]),
           biases=st.lists(st.floats(0.0, 0.9), min_size=1, max_size=4))
    def test_flat_records_read_the_floor_and_the_bias_current(self, pair,
                                                              biases):
        # an undriven cell's record is flat, so centred on its first sample
        # it sums to exactly 0: its DC is the solve of its bias voltage bit
        # for bit and its IF reads the floor, on the halved record of the
        # odd-bin pair and on the whole record of the mixed-parity one
        chain = default_chain()
        if_power_dbm, dc_current = mix_cells(
            chain, biases, [[0.0, 0.0]] * len(biases), pair)
        for k, bias in enumerate(biases):
            assert if_power_dbm[k] == DB_FLOOR
            assert dc_current[k].hex() == terminal_current(
                chain.loop_model(), bias).hex()

    @pytest.mark.parametrize("pair", [(37.5e9, 38.5e9), (34e9, 35e9)])
    @pytest.mark.parametrize("power", [-60.0, -40.0])
    def test_tone_phases_move_neither_dc_nor_if(self, pair, power):
        # the diode is memoryless, so phased tones only shift the record in
        # time: the per-cell route with random tone phases reads the
        # kernel's zero-phase IF power and DC current (half record
        # on 37.5/38.5 GHz, whole record on 34/35 GHz) within rounding
        chain = default_chain()
        tones = two_tone(power, power - 5.0, *pair)
        if_power_dbm, dc_current = one_cell(chain, 0.6, *tones)
        rng = np.random.default_rng(11)
        for phases in rng.uniform(-math.pi, math.pi, size=(10, 2)):
            phased = per_cell_route(chain, 0.6, *tones, phases)
            assert abs(if_power_dbm - phased[0]) <= 1e-9
            assert abs(dc_current - phased[1]) <= 1e-12 * abs(phased[1])

    @pytest.mark.parametrize("frequencies", [
        [37.5e9], [37.5e9, 38.5e9, 39e9], [37.5e9, 37.5e9]])
    def test_only_a_distinct_tone_pair_is_mixed(self, monkeypatch,
                                                frequencies):
        # one tone, three tones and two equal tones are refused before any
        # cell is solved
        solved = recording_solves(monkeypatch)
        amplitudes = [[dbm_to_amplitude(-40.0)] * len(frequencies)] * 2
        with pytest.raises(ValueError, match="two distinct tone"):
            mix_cells(default_chain(), [0.6, 0.65], amplitudes, frequencies)
        assert solved == []

    def test_silent_cell_reads_floor_and_bias_current(self, monkeypatch):
        # -5000 dBm is an amplitude of exactly 0: those cells are solved in
        # the one block with the driven cells beside them; a silent cell's
        # flat record reads the floor and the scalar solve of its bias bit
        # for bit
        chain = default_chain()
        loop = chain.loop_model()
        solved = recording_solves(monkeypatch)
        if_power_dbm, dc_current = sweep(chain, self.BIASES, [-5000.0, -40.0])
        monkeypatch.undo()
        assert solved == [(6, 1025)]
        for i, bias in enumerate(self.BIASES):
            assert if_power_dbm[i, 0] == DB_FLOOR
            assert dc_current[i, 0].hex() == terminal_current(loop, bias).hex()
            assert bits(if_power_dbm[i, 0], dc_current[i, 0]) == bits(
                *per_cell_route(chain, bias, *two_tone(-5000.0, -5005.0)))
            assert near_full_record(
                if_power_dbm[i, 1], dc_current[i, 1],
                per_cell_route(chain, bias, *two_tone(-40.0, -45.0)))

    def test_unsampleable_pair_raises_before_solving(self, monkeypatch):
        # the pair's 1 Hz common grid is past the sample budget: the sweep
        # raises plan_sampling's error and solves no cell
        solved = recording_solves(monkeypatch)
        with pytest.raises(ValueError, match="share no common grid") as expected:
            plan_sampling([34e9 + 1.0, 35e9 + 1.0, 1e9], oversample=24.0)
        with pytest.raises(ValueError, match="share no common grid") as raised:
            sweep(default_chain(), [0.6, 0.65], [-40.0, -30.0],
                  (34e9 + 1.0, 35e9 + 1.0))
        assert str(raised.value) == str(expected.value)
        assert solved == []

    def test_megahertz_spacing_mixes_like_gigahertz_spacing(self):
        # a 1 MHz pair needs 2^20 samples for one common period (four
        # periods of the IF would need 2^22, past the sample budget); the
        # memoryless chain sees only the tone amplitudes
        chain = default_chain()
        rate, duration = plan_sampling([37.5e9, 37.501e9, 1e6],
                                       oversample=24.0)
        assert round(rate * duration) == 1 << 20
        close, _ = one_cell(chain, BIAS_VOLTAGE,
                            *two_tone(-30.0, -35.0, 37.5e9, 37.501e9))
        wide, _ = one_cell(chain, BIAS_VOLTAGE, *two_tone(-30.0, -35.0))
        assert close == pytest.approx(wide, abs=1e-6)

    def test_amplitudes_checked(self):
        chain = default_chain()
        with pytest.raises(ValueError, match="shape"):
            mix_cells(chain, [BIAS_VOLTAGE], [[0.1]], [37.5e9, 38.5e9])
        with pytest.raises(ValueError, match="finite and >= 0"):
            mix_cells(chain, [BIAS_VOLTAGE], [[0.1, -0.1]], [37.5e9, 38.5e9])
        with pytest.raises(ValueError, match="positive"):
            mix_cells(chain, [BIAS_VOLTAGE], [[0.1, 0.1]], [-1e9, 1e9])
