import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from selfmix import diode, validation
from selfmix.diode import (
    OMEGA_STEPS,
    ConversionResult,
    DiodeModel,
    MixingChain,
    bias_power_sweep,
    default_chain,
    default_diode,
    iv_derivatives,
    junction_current,
    mix_cells,
    optimal_bias_static,
    simulate_mixing,
    terminal_current,
)
from selfmix.errors import EmptyToneList, NoInteriorMaximum, NyquistViolation
from selfmix.signals import (
    SampledWaveform,
    ToneSpec,
    dft_spectrum,
    plan_sampling,
    synthesize_waveform,
)
from selfmix.units import DB_FLOOR, db_to_amplitude_ratio, dbm_to_amplitude, watts_to_dbm

# explicit trio used for the solver-facing tests (separate from the fitted
# default device)
TRIO = DiodeModel(saturation_current=1e-13, ideality=1.2, series_resistance=4.0)


def two_tone(p1_dbm, p2_dbm, f1=37.5e9, f2=38.5e9):
    return [ToneSpec(f1, dbm_to_amplitude(p1_dbm)),
            ToneSpec(f2, dbm_to_amplitude(p2_dbm))]


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
    def test_zero_voltage(self):
        assert junction_current(TRIO, 0.0) == 0.0

    def test_reverse_saturation(self):
        assert junction_current(TRIO, -5.0) == pytest.approx(-1e-13, rel=1e-9)

    def test_forward_anchor(self):
        # direct evaluation at 0.73 V: about 1.7 mA for this trio
        expected = 1e-13 * (math.exp(0.73 / (1.2 * 0.02585)) - 1.0)
        i = junction_current(DiodeModel(1e-13, 1.2, 0.0), 0.73)
        assert i == pytest.approx(expected, rel=1e-12)
        assert 1.5e-3 < i < 1.9e-3

    def test_exponent_clamp(self):
        # absurd forward voltage stays finite thanks to the clamp
        assert math.isfinite(junction_current(TRIO, 100.0))


class TestTerminalCurrent:
    def test_zero_series_resistance_is_exact(self):
        model = DiodeModel(1e-13, 1.2, 0.0)
        for v in (-1.0, 0.0, 0.3, 0.7):
            assert terminal_current(model, v) == junction_current(model, v)

    def test_zero_voltage_any_resistance(self):
        assert terminal_current(TRIO, 0.0) == 0.0

    def test_less_than_junction_in_forward_bias(self):
        assert terminal_current(TRIO, 0.75) < junction_current(TRIO, 0.75)

    def test_against_bisection_oracle(self):
        # 14.33 V on the default chain's loop is within the swing of a
        # 0 dBm / -5 dBm cell with the 25 dB LNA
        voltages = np.array([-1e4, -100.0, -2.0, 0.2, 0.5, 0.75, 1.0, 2.5,
                             14.33, 100.0, 1e3, 1e4])
        models = [DiodeModel(1e-13, 1.2, r) for r in (4.0, 6.2, 56.2)]
        for model in models + [default_chain().loop_model()]:
            reference = validation._bisection_terminal_current(model, voltages)
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
            fast = validation._bisection_terminal_current(model, v)
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
        tones = [ToneSpec(t.frequency, gain * t.amplitude)
                 for t in two_tone(0.0, -5.0)]
        rate, duration = plan_sampling([37.5e9, 38.5e9, 1e9], oversample=24.0)
        v = chain.bias_voltage + synthesize_waveform(
            tones, rate, duration).samples
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
        assert np.all(terminal_current(TRIO, grid)
                      <= junction_current(TRIO, grid))


class TestIvDerivatives:
    def test_deep_reverse_bias(self):
        d = iv_derivatives(TRIO, -2.0)
        assert abs(d.di_dv) < 1e-9
        assert abs(d.d2i_dv2) < 1e-9

    def test_pure_exponential_monotone_second_derivative(self):
        model = DiodeModel(1e-13, 1.2, 0.0)
        grid = np.linspace(0.3, 0.7, 200)
        d2 = np.asarray(iv_derivatives(model, grid).d2i_dv2)
        assert np.all(np.diff(d2) > 0.0)
        # analytic second derivative of the exponential as oracle
        a = 1.0 / model.emission_voltage
        analytic = model.saturation_current * a * a * np.exp(a * grid)
        assert np.allclose(np.asarray(iv_derivatives(model, grid).d2i_dv2),
                           analytic, rtol=1e-6)

    def test_series_resistance_creates_interior_maximum(self):
        grid = np.linspace(0.3, 1.0, 2000)
        d2 = np.asarray(iv_derivatives(TRIO, grid).d2i_dv2)
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
        opt = optimal_bias_static(default_diode(), (0.3, 1.0))
        assert opt.terminal_voltage == pytest.approx(0.729792, abs=1e-6)
        assert opt.bias_current == pytest.approx(2.5016e-3, abs=1e-7)

    def test_default_device_calibration(self):
        # fitted placeholder device: optimum pinned at 0.73 V / 2.5 mA
        opt = optimal_bias_static(default_diode(), (0.3, 1.0))
        assert opt.terminal_voltage == pytest.approx(0.73, abs=0.02)
        assert opt.bias_current == pytest.approx(2.5e-3, rel=0.05)


class TestSimulateMixing:
    def test_zero_amplitude_tones(self):
        chain = default_chain()
        result = simulate_mixing(chain, [ToneSpec(37.5e9, 0.0),
                                         ToneSpec(38.5e9, 0.0)], 1e9)
        assert result.if_power_dbm == DB_FLOOR
        assert result.dc_current == terminal_current(chain.loop_model(),
                                                     chain.bias_voltage)

    def test_doubling_amplitudes_gives_12_db(self):
        chain = default_chain()
        t1 = two_tone(-70.0, -75.0)
        t2 = [ToneSpec(t.frequency, 2.0 * t.amplitude) for t in t1]
        low = simulate_mixing(chain, t1, 1e9)
        high = simulate_mixing(chain, t2, 1e9)
        assert high.if_power_dbm - low.if_power_dbm == pytest.approx(12.0, abs=0.5)

    def test_conversion_loss_canceled_at_moderate_drive(self):
        # -40/-45 dBm two-tone with the 25 dB amplifier: IF comes back out
        # within a few dB of the input level
        chain = default_chain()
        result = simulate_mixing(chain, two_tone(-40.0, -45.0), 1e9)
        assert result.if_power_dbm == pytest.approx(-40.0, abs=6.0)

    def test_small_signal_matches_taylor_coefficient(self):
        chain = default_chain()
        p = -65.0
        gain = db_to_amplitude_ratio(chain.lna_gain_db)
        a1 = gain * dbm_to_amplitude(p)
        a2 = gain * dbm_to_amplitude(p - 5.0)
        g2 = iv_derivatives(chain.loop_model(), chain.bias_voltage).d2i_dv2
        predicted = watts_to_dbm((0.5 * g2 * a1 * a2) ** 2
                                 * chain.if_load_ohms / 2.0)
        sim = simulate_mixing(chain, two_tone(p, p - 5.0), 1e9)
        assert sim.if_power_dbm == pytest.approx(predicted, abs=1.0)

    def test_deterministic(self):
        chain = default_chain()
        tones = two_tone(-42.0, -47.0)
        assert simulate_mixing(chain, tones, 1e9) == simulate_mixing(
            chain, tones, 1e9)

    def test_dc_current_nonnegative_forward(self):
        chain = default_chain()
        result = simulate_mixing(chain, two_tone(-30.0, -35.0), 1e9)
        assert result.dc_current >= 0.0

    def test_if_must_be_a_difference_frequency(self):
        with pytest.raises(ValueError):
            simulate_mixing(default_chain(), two_tone(-40.0, -45.0), 2e9)

    def test_empty_tone_list(self):
        with pytest.raises(EmptyToneList):
            simulate_mixing(default_chain(), [], 1e9)


class TestMixingChain:
    @pytest.mark.parametrize("field", ["if_load_ohms",
                                       "source_impedance_ohms"])
    def test_non_positive_impedance_rejected(self, field):
        with pytest.raises(ValueError, match="must be positive"):
            MixingChain(lna_gain_db=25.0, diode=default_diode(),
                        **{field: 0.0})


class TestBiasPowerSweep:
    def test_single_cell_equals_direct_call(self):
        chain = default_chain()
        sweep = bias_power_sweep(chain, [0.65], [-40.0], (37.5e9, 38.5e9))
        direct = simulate_mixing(replace(chain, bias_voltage=0.65),
                                 two_tone(-40.0, -45.0), 1e9)
        assert sweep.cells[0][0] == direct

    def test_single_cell_at_another_tone_pair_equals_direct_call(self):
        chain = default_chain()
        sweep = bias_power_sweep(chain, [0.65], [-40.0], (34e9, 35e9))
        direct = simulate_mixing(replace(chain, bias_voltage=0.65),
                                 two_tone(-40.0, -45.0, 34e9, 35e9), 1e9)
        assert sweep.cells[0][0] == direct

    def test_spread_shrinks_with_power(self):
        chain = default_chain()
        bias = np.arange(0.0, 0.8001, 0.1)
        spreads = []
        for p in (-50.0, -30.0, -15.0):
            sweep = bias_power_sweep(chain, bias, [p], (37.5e9, 38.5e9))
            vals = [row[0].if_power_dbm for row in sweep.cells]
            spreads.append(max(vals) - min(vals))
        assert spreads[0] > spreads[1] > spreads[2]

    def test_low_power_optimum_in_forward_bias(self):
        chain = default_chain()
        bias = np.round(np.arange(0.0, 0.8001, 0.05), 10)
        sweep = bias_power_sweep(chain, bias, [-40.0], (37.5e9, 38.5e9))
        vals = np.array([row[0].if_power_dbm for row in sweep.cells])
        best = bias[int(np.argmax(vals))]
        assert 0.55 <= best <= 0.75

    def test_strong_drive_cells_solve(self):
        chain = default_chain()
        bias = np.round(np.arange(0.0, 0.8001, 0.05), 10)
        sweep = bias_power_sweep(chain, bias, [0.0, 5.0], (37.5e9, 38.5e9))
        cells = [c for row in sweep.cells for c in row]
        assert all(math.isfinite(c.if_power_dbm) for c in cells)

    def test_grids_validated(self):
        chain = default_chain()
        with pytest.raises(ValueError):
            bias_power_sweep(chain, [], [-40.0], (37.5e9, 38.5e9))
        with pytest.raises(ValueError):
            bias_power_sweep(chain, [0.1, 0.3, 0.2], [-40.0], (37.5e9, 38.5e9))

    def test_table_columns(self):
        chain = default_chain()
        table = bias_power_sweep(chain, [0.6], [-40.0],
                                 (37.5e9, 38.5e9)).to_table()
        assert table.columns == ["bias_v", "input_power_dbm", "if_power_dbm",
                                 "dc_current_a"]

    def test_flat_chain_same_cells_at_every_centre(self):
        # the memoryless chain has no frequency response: at fixed tone
        # powers, every 1 GHz-spaced pair from 34 to 38 GHz mixes alike, up
        # to the sampling's alias error
        chain = default_chain()
        for bias in (0.6, 0.65):
            cells = [bias_power_sweep(chain, [bias], [-40.0],
                                      (f, f + 1e9)).cells[0][0]
                     for f in (34e9, 35e9, 36e9, 37e9, 38e9)]
            powers = [c.if_power_dbm for c in cells]
            assert max(powers) - min(powers) < 1e-9


def per_cell_route(chain, tones, if_frequency):
    """Oracle: one cell synthesised, solved and transformed on its own, the
    route of the per-cell sweep loop that the mixing kernel replaced."""
    gain = db_to_amplitude_ratio(chain.lna_gain_db)
    amplified = [ToneSpec(t.frequency, gain * t.amplitude, t.phase)
                 for t in tones]
    rate, duration = plan_sampling([t.frequency for t in tones]
                                   + [if_frequency], oversample=24.0)
    if all(t.amplitude == 0.0 for t in amplified):
        return ConversionResult(
            DB_FLOOR, terminal_current(chain.loop_model(), chain.bias_voltage))
    rf = synthesize_waveform(amplified, rate, duration)
    current = terminal_current(chain.loop_model(),
                               chain.bias_voltage + rf.samples)
    spectrum = dft_spectrum(SampledWaveform(sample_rate=rate, samples=current))
    i_if = abs(spectrum.amplitude_at(if_frequency))
    return ConversionResult(
        if_power_dbm=watts_to_dbm(i_if * i_if * chain.if_load_ohms / 2.0),
        dc_current=float(spectrum.complex_amplitudes[0].real))


def bits(cell):
    """A result as exact bit patterns (float.hex tells -0.0 from 0.0)."""
    return cell.if_power_dbm.hex(), cell.dc_current.hex()


class TestMixingKernel:
    BIASES = [0.3, 0.65, 0.8]
    POWERS = [-60.0, -30.0, -10.0, 0.0, 5.0]

    @pytest.mark.parametrize("block, shapes", [
        # 8 cells of 2048 samples per block: 15 cells end in a partial block
        (4 * 4096 + 100, [(8, 2048), (7, 2048)]),
        (1, [(1, 2048)] * 15),
    ])
    def test_sweep_equals_per_cell_route(self, monkeypatch, block, shapes):
        solved = []
        plans = []

        def recording_solve(model, v):
            if np.ndim(v) == 2:
                solved.append(v.shape)
            return terminal_current(model, v)

        def recording_plan(*args, **kwargs):
            plans.append(args)
            return plan_sampling(*args, **kwargs)

        monkeypatch.setattr(diode, "MIXING_BLOCK", block)
        monkeypatch.setattr(diode, "terminal_current", recording_solve)
        monkeypatch.setattr(diode, "plan_sampling", recording_plan)
        chain = default_chain()
        sweep = bias_power_sweep(chain, self.BIASES, self.POWERS,
                                 (37.5e9, 38.5e9))
        assert solved == shapes
        assert len(plans) == 1
        monkeypatch.undo()
        for bias, row in zip(self.BIASES, sweep.cells):
            for p, cell in zip(self.POWERS, row):
                expected = per_cell_route(replace(chain, bias_voltage=bias),
                                          two_tone(p, p - 5.0), 1e9)
                assert bits(cell) == bits(expected), (bias, p)
                # the strong-drive cells solve to finite values
                assert math.isfinite(cell.if_power_dbm)
                assert math.isfinite(cell.dc_current)

    def test_one_cell_call_equals_per_cell_route(self):
        # three tones with phases: simulate_mixing is the kernel's one-cell
        # call and keeps the phase of each tone
        chain = replace(default_chain(), bias_voltage=0.6)
        tones = [ToneSpec(37.5e9, dbm_to_amplitude(-20.0), 0.4),
                 ToneSpec(38.5e9, dbm_to_amplitude(-26.0), -2.0),
                 ToneSpec(39.0e9, dbm_to_amplitude(-30.0), 3.0)]
        assert bits(simulate_mixing(chain, tones, 1e9)) == bits(
            per_cell_route(chain, tones, 1e9))

    def test_silent_cell_reads_floor_and_bias_current(self):
        # -5000 dBm is an amplitude of exactly 0: those cells are not
        # sampled, the driven cells beside them are; the silent cells'
        # currents, solved as one vector, are the scalar solves bit for bit
        chain = default_chain()
        loop = chain.loop_model()
        sweep = bias_power_sweep(chain, self.BIASES, [-5000.0, -40.0],
                                 (37.5e9, 38.5e9))
        for bias, (silent, driven) in zip(self.BIASES, sweep.cells):
            assert silent.if_power_dbm == DB_FLOOR
            assert silent.dc_current.hex() == terminal_current(
                loop, bias).hex()
            biased = replace(chain, bias_voltage=bias)
            assert bits(silent) == bits(per_cell_route(
                biased, two_tone(-5000.0, -5005.0), 1e9))
            assert bits(driven) == bits(per_cell_route(
                biased, two_tone(-40.0, -45.0), 1e9))

    def test_unsampleable_pair_raises_before_solving(self, monkeypatch):
        # the pair's 1 Hz common grid is past the sample budget: the sweep
        # raises plan_sampling's NyquistViolation and solves no cell
        solved = []

        def recording_solve(model, v):
            if np.ndim(v) == 2:
                solved.append(v.shape)
            return terminal_current(model, v)

        monkeypatch.setattr(diode, "terminal_current", recording_solve)
        with pytest.raises(NyquistViolation) as expected:
            plan_sampling([34e9 + 1.0, 35e9 + 1.0, 1e9], oversample=24.0)
        with pytest.raises(NyquistViolation) as raised:
            bias_power_sweep(default_chain(), [0.6, 0.65], [-40.0, -30.0],
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
        close = simulate_mixing(chain, two_tone(-30.0, -35.0, 37.5e9,
                                                37.501e9), 1e6)
        wide = simulate_mixing(chain, two_tone(-30.0, -35.0), 1e9)
        assert close.if_power_dbm == pytest.approx(wide.if_power_dbm,
                                                   abs=1e-6)

    def test_amplitudes_checked(self):
        chain = default_chain()
        with pytest.raises(ValueError, match="shape"):
            mix_cells(chain, [chain.bias_voltage], [[0.1]], [37.5e9, 38.5e9], 1e9)
        with pytest.raises(ValueError, match="finite and >= 0"):
            mix_cells(chain, [chain.bias_voltage], [[0.1, -0.1]], [37.5e9, 38.5e9],
                      1e9)
        with pytest.raises(ValueError, match="positive"):
            mix_cells(chain, [chain.bias_voltage], [[0.1, 0.1]], [-1e9, 1e9], 2e9)
        with pytest.raises(ValueError, match="one phase per tone"):
            mix_cells(chain, [chain.bias_voltage], [[0.1, 0.1]], [37.5e9, 38.5e9],
                      1e9, [0.0])
