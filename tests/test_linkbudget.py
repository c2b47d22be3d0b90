import math

import pytest

from selfmix.diode import BIAS_VOLTAGE, default_chain, mix_cells
from selfmix.linkbudget import (
    calibrate_conversion_gain,
    chain_output_power,
    check_link,
    default_total_efficiency_db,
    friis_rx_power,
)
from selfmix.units import DB_FLOOR, dbm_to_amplitude


def rx(frequency_hz, tx_power_dbm, eta_db=0.0, distance_m=1.5):
    return friis_rx_power(tx_power_dbm, 25.0, distance_m, frequency_hz,
                          total_efficiency_db=eta_db)


class TestFriis:
    def test_hand_calculation_34ghz(self):
        # lambda/(4 pi 1.5 m) path term, no antenna loss
        assert rx(34e9, 0.0) == pytest.approx(-41.6, abs=0.05)

    def test_reference_anchors(self):
        cases = [
            (34.0e9, 0.0, -43.4),
            (36.5e9, 5.0, -38.5),
            (37.5e9, 0.0, -44.3),
            (38.5e9, 5.0, -39.5),
        ]
        for f, ptx, expected in cases:
            eta = default_total_efficiency_db(f)
            assert -2.0 < eta < -1.0
            assert rx(f, ptx, eta) == pytest.approx(expected, abs=0.1)

    def test_distance_doubling_costs_6db(self):
        base = rx(34e9, 0.0)
        far = rx(34e9, 0.0, distance_m=3.0)
        assert base - far == pytest.approx(20.0 * math.log10(2.0), abs=1e-12)
        assert base > far

    def test_monotone_decreasing_in_frequency(self):
        values = [rx(f, 0.0) for f in (30e9, 34e9, 38e9, 42e9)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_invalid_params(self):
        cases = [
            ((0.0, 25.0, 0.0, 34e9), {}, "distance_m must be positive"),
            ((0.0, 25.0, 1.5, -34e9), {}, "frequency_hz must be positive"),
            ((0.0, 25.0, 1.5, 34e9), {"total_efficiency_db": 0.5},
             "total_efficiency_db must be <= 0"),
            ((math.inf, 25.0, 1.5, 34e9), {}, "tx_power_dbm must be finite"),
            ((0.0, math.nan, 1.5, 34e9), {}, "tx_gain_db must be finite"),
            ((0.0, 25.0, 1.5, 34e9), {"rx_directivity_db": -math.inf},
             "rx_directivity_db must be finite"),
        ]
        for args, kwargs, message in cases:
            with pytest.raises(ValueError, match=message):
                friis_rx_power(*args, **kwargs)
            with pytest.raises(ValueError, match=message):
                check_link(*args, **kwargs)

    def test_unknown_default_efficiency(self):
        with pytest.raises(ValueError, match="no default total efficiency "
                                             "for 40000000000.0 Hz"):
            default_total_efficiency_db(40e9)


def out(p1, p2, **terms):
    return chain_output_power(p1, p2, 25.0, -5.0, **terms)


class TestChainOutput:
    def test_floor_propagates(self):
        assert out(DB_FLOOR, -40.0) == DB_FLOOR

    def test_square_law_doubles_common_change(self):
        assert out(-40.4, -35.5) - out(-43.4, -38.5) == pytest.approx(
            6.0, abs=1e-12)

    def test_per_tone_slope_is_one(self):
        base = out(-43.4, -38.5)
        assert out(-42.4, -38.5) - base == pytest.approx(1.0, abs=1e-12)
        assert out(-43.4, -37.5) - base == pytest.approx(1.0, abs=1e-12)

    def test_chain_terms_apply(self):
        delta = out(-43.4, -38.5, combiner_gain_db=9.03 - 0.5,
                    if_amp_gain_db=20.0, cable_loss_db=10.0) - out(-43.4, -38.5)
        assert delta == pytest.approx(9.03 - 0.5 + 20.0 - 10.0, abs=1e-12)

    @pytest.mark.parametrize("name", [
        "lna_gain_db", "conversion_gain_db", "combiner_gain_db",
        "if_amp_gain_db", "cable_loss_db"])
    def test_non_finite_chain_term(self, name):
        # refused even when a tone sits at the floor
        terms = {"lna_gain_db": 25.0, "conversion_gain_db": -5.0}
        for value in (math.inf, -math.inf, math.nan):
            for p1 in (-43.4, DB_FLOOR):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    chain_output_power(p1, -38.5, **{**terms, name: value})

    def test_reference_prediction_with_calibrated_constant(self):
        chain = default_chain()
        k = calibrate_conversion_gain(chain)
        # received tone powers of the 34 / 36.5 GHz measurement scenario;
        # single-element estimate lands near the -38 dBm reference value
        assert chain_output_power(-43.4, -38.5, chain.lna_gain_db, k) == (
            pytest.approx(-38.0, abs=3.0))

    def test_calibration_is_in_square_law_regime(self):
        # 10 dB less drive on each tone moves the constant by under 0.1 dB
        chain = default_chain()
        p1, p2 = -65.0, -70.0
        drive = [dbm_to_amplitude(p) for p in (p1, p2)]
        if_power_dbm = float(mix_cells(chain, [BIAS_VOLTAGE], [drive],
                                       (37.5e9, 38.5e9))[0][0])
        k = if_power_dbm - (p1 + chain.lna_gain_db) - (p2 + chain.lna_gain_db)
        assert calibrate_conversion_gain(chain) == pytest.approx(k, abs=0.1)
