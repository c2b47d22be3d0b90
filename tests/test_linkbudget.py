import math

import pytest

from selfmix.diode import default_chain
from selfmix.errors import InvalidParams
from selfmix.linkbudget import (
    ChainSpec,
    LinkBudgetParams,
    calibrate_conversion_gain,
    chain_output_power,
    default_total_efficiency_db,
    friis_rx_power,
)
from selfmix.units import DB_FLOOR


def params(frequency_hz, tx_power_dbm, eta_db=0.0):
    return LinkBudgetParams(tx_power_dbm=tx_power_dbm, tx_gain_db=25.0,
                            distance_m=1.5, frequency_hz=frequency_hz,
                            total_efficiency_db=eta_db)


class TestFriis:
    def test_hand_calculation_34ghz(self):
        # lambda/(4 pi 1.5 m) path term, no antenna loss
        assert friis_rx_power(params(34e9, 0.0)) == pytest.approx(-41.6, abs=0.05)

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
            assert friis_rx_power(params(f, ptx, eta)) == pytest.approx(
                expected, abs=0.1)

    def test_distance_doubling_costs_6db(self):
        base = friis_rx_power(params(34e9, 0.0))
        far = LinkBudgetParams(tx_power_dbm=0.0, tx_gain_db=25.0,
                               distance_m=3.0, frequency_hz=34e9)
        assert friis_rx_power(params(34e9, 0.0)) - friis_rx_power(far) == (
            pytest.approx(20.0 * math.log10(2.0), abs=1e-12))
        assert base > friis_rx_power(far)

    def test_monotone_decreasing_in_frequency(self):
        values = [friis_rx_power(params(f, 0.0))
                  for f in (30e9, 34e9, 38e9, 42e9)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            LinkBudgetParams(0.0, 25.0, 0.0, 34e9)
        with pytest.raises(InvalidParams):
            LinkBudgetParams(0.0, 25.0, 1.5, 34e9, total_efficiency_db=0.5)

    def test_unknown_default_efficiency(self):
        with pytest.raises(InvalidParams):
            default_total_efficiency_db(40e9)


class TestChainOutput:
    def chain(self, conversion=-5.0, **kw):
        return ChainSpec(lna_gain_db=25.0, conversion_gain_db=conversion, **kw)

    def test_floor_propagates(self):
        assert chain_output_power((DB_FLOOR, -40.0), self.chain()) == DB_FLOOR

    def test_square_law_doubles_common_change(self):
        base = chain_output_power((-43.4, -38.5), self.chain())
        up = chain_output_power((-40.4, -35.5), self.chain())
        assert up - base == pytest.approx(6.0, abs=1e-12)

    def test_per_tone_slope_is_one(self):
        base = chain_output_power((-43.4, -38.5), self.chain())
        assert chain_output_power((-42.4, -38.5), self.chain()) - base == (
            pytest.approx(1.0, abs=1e-12))
        assert chain_output_power((-43.4, -37.5), self.chain()) - base == (
            pytest.approx(1.0, abs=1e-12))

    def test_chain_terms_apply(self):
        spec = self.chain(combiner_gain_db=9.03 - 0.5, if_amp_gain_db=20.0,
                          cable_loss_db=10.0)
        plain = self.chain()
        delta = chain_output_power((-43.4, -38.5), spec) - chain_output_power(
            (-43.4, -38.5), plain)
        assert delta == pytest.approx(9.03 - 0.5 + 20.0 - 10.0, abs=1e-12)

    def test_reference_prediction_with_calibrated_constant(self):
        chain = default_chain()
        k = calibrate_conversion_gain(chain)
        spec = ChainSpec(lna_gain_db=chain.lna_gain_db, conversion_gain_db=k)
        # received tone powers of the 34 / 36.5 GHz measurement scenario;
        # single-element estimate lands near the -38 dBm reference value
        out = chain_output_power((-43.4, -38.5), spec)
        assert out == pytest.approx(-38.0, abs=3.0)

    def test_calibration_is_in_square_law_regime(self):
        chain = default_chain()
        k1 = calibrate_conversion_gain(chain, powers_dbm=(-55.0, -60.0))
        k2 = calibrate_conversion_gain(chain, powers_dbm=(-65.0, -70.0))
        assert k1 == pytest.approx(k2, abs=0.1)
