import math

import numpy as np
import pytest

from selfmix.arrays import ArrayGeometry, if_array_factor_cut, rf_array_factor_cut
from selfmix.errors import GridMismatch, InvalidGrid
from selfmix.patterns import (
    AnalyticPattern,
    PatternGrid,
    beamwidth_3db,
    find_lobes,
    read_pattern_csv,
    sample_pattern,
    self_mix_pattern,
    total_pattern,
    write_pattern_csv,
)

THETA = np.radians(np.arange(-90.0, 90.01, 0.25))


def cos_q_grid(q, frequency=37.5e9):
    return sample_pattern(AnalyticPattern.cos_q(q, frequency), THETA)


class TestSamplePattern:
    def test_isotropic(self):
        p = sample_pattern(AnalyticPattern.isotropic(36e9), THETA)
        assert np.all(p.gains == 1.0)

    def test_cos_squared_at_60_degrees(self):
        p = cos_q_grid(2.0)
        k = int(np.argmin(np.abs(p.theta_samples - math.radians(60.0))))
        assert p.gains[k] == pytest.approx(0.25, abs=1e-9)

    def test_two_beam_dips_at_broadside(self):
        p = sample_pattern(
            AnalyticPattern.two_beam(math.radians(30), math.radians(20), 38e9),
            THETA)
        centre = int(np.argmin(np.abs(p.theta_samples)))
        # local minimum at theta = 0 between the two tilted beams
        assert p.gains[centre] < p.gains.max()
        window = p.gains[centre - 40:centre + 41]
        assert p.gains[centre] == pytest.approx(window.min(), abs=1e-12)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            AnalyticPattern.cos_q(-1.0, 36e9)
        with pytest.raises(ValueError):
            AnalyticPattern.two_beam(2.0, 0.1, 36e9)
        with pytest.raises(ValueError):
            AnalyticPattern("pencil", 36e9)

    def test_grid_validation(self):
        with pytest.raises(InvalidGrid):
            PatternGrid(np.array([0.0, 0.1, 0.05]), 0.0,
                        np.ones(3), 36e9)
        with pytest.raises(InvalidGrid):
            PatternGrid(np.array([0.0, 0.1, 0.2]), 0.0,
                        np.array([1.0, -0.5, 1.0]), 36e9)


class TestSelfMixPattern:
    def test_isotropic_times_isotropic(self):
        a = sample_pattern(AnalyticPattern.isotropic(37.5e9), THETA)
        b = sample_pattern(AnalyticPattern.isotropic(38.5e9), THETA)
        out = self_mix_pattern(a, b)
        assert np.all(out.gains == 1.0)
        assert out.frequency == pytest.approx(1e9)

    def test_exponent_addition(self):
        out = self_mix_pattern(cos_q_grid(1.0, 37.5e9), cos_q_grid(1.0, 38.5e9))
        assert np.allclose(out.gains, cos_q_grid(2.0).gains, atol=1e-12)

    def test_zero_pattern_annihilates(self):
        zero = PatternGrid(THETA, 0.0, np.zeros_like(THETA), 38.5e9)
        out = self_mix_pattern(cos_q_grid(1.0), zero)
        assert np.all(out.gains == 0.0)

    def test_grid_mismatch(self):
        other = sample_pattern(AnalyticPattern.isotropic(38.5e9),
                               np.radians(np.arange(-90.0, 90.01, 0.5)))
        with pytest.raises(GridMismatch):
            self_mix_pattern(cos_q_grid(1.0), other)

    def test_commutative_and_associative(self):
        a, b, c = cos_q_grid(0.5), cos_q_grid(1.0), cos_q_grid(1.5)
        ab = self_mix_pattern(a, b)
        ba = self_mix_pattern(b, a)
        assert np.allclose(ab.gains, ba.gains, atol=0.0)
        abc = self_mix_pattern(ab, c)
        acb = self_mix_pattern(self_mix_pattern(a, c), b)
        assert np.allclose(abc.gains, acb.gains, atol=1e-15)

    def test_normalization_order_irrelevant(self):
        a, b = cos_q_grid(0.7), cos_q_grid(1.4)
        norm_then_mix = self_mix_pattern(a.normalized(), b.normalized())
        mix_then_norm = self_mix_pattern(a, b).normalized()
        mask = mix_then_norm.gains > 1e-12
        ratio = norm_then_mix.gains[mask] / mix_then_norm.gains[mask]
        assert np.max(np.abs(ratio - ratio[0])) < 1e-12


class TestTotalPattern:
    def test_unity_array_factor_is_identity(self):
        sm = self_mix_pattern(cos_q_grid(1.0, 37.5e9), cos_q_grid(1.0, 38.5e9))
        out = total_pattern(sm, np.ones_like(sm.theta_samples))
        assert np.allclose(out.gains, sm.gains, atol=0.0)

    def test_factor_shape_and_values_checked(self):
        sm = self_mix_pattern(cos_q_grid(1.0, 37.5e9), cos_q_grid(1.0, 38.5e9))
        with pytest.raises(ValueError, match="shape"):
            total_pattern(sm, np.ones(sm.theta_samples.size - 1))
        bad = np.ones_like(sm.theta_samples)
        for value in (-0.5, np.nan):
            bad[3] = value
            with pytest.raises(ValueError, match="finite and >= 0"):
                total_pattern(sm, bad)

    def test_single_element_array(self):
        g = ArrayGeometry([[0.0, 0.0]])
        sm = self_mix_pattern(cos_q_grid(1.0, 37.5e9), cos_q_grid(1.0, 38.5e9))
        out = total_pattern(sm, if_array_factor_cut(
            g, 37.5e9, 38.5e9, sm.theta_samples, sm.phi_cut))
        assert np.allclose(out.gains, sm.gains, atol=1e-15)

    def test_never_exceeds_element_pattern(self):
        g = ArrayGeometry.planar_grid(4, 2, 0.032, 0.036)
        sm = self_mix_pattern(cos_q_grid(1.0, 37.5e9), cos_q_grid(1.0, 38.5e9))
        out = total_pattern(sm, if_array_factor_cut(
            g, 37.5e9, 38.5e9, sm.theta_samples, sm.phi_cut))
        assert np.all(out.gains <= sm.gains + 1e-15)

    def test_rf_combining_shows_grating_lobes_where_if_does_not(self):
        g = ArrayGeometry.planar_grid(4, 2, 0.032, 0.036)
        phi = math.pi / 2
        sm = self_mix_pattern(
            sample_pattern(AnalyticPattern.cos_q(1.0, 37.5e9), THETA, phi),
            sample_pattern(AnalyticPattern.cos_q(1.0, 38.5e9), THETA, phi))
        total_if = total_pattern(sm, if_array_factor_cut(
            g, 37.5e9, 38.5e9, THETA, phi)).normalized()
        total_rf = total_pattern(sm, rf_array_factor_cut(
            g, 38.5e9, THETA, phi)).normalized()
        in_60 = np.abs(THETA) <= math.radians(60.0)
        floor = 1.0 / math.sqrt(2.0)
        rf60 = PatternGrid(THETA[in_60], phi, total_rf.gains[in_60], 38.5e9)
        if60 = PatternGrid(THETA[in_60], phi, total_if.gains[in_60], 1e9)
        rf_lobes = [t for t in find_lobes(rf60, floor) if abs(t) > 1e-9]
        if_lobes = [t for t in find_lobes(if60, floor) if abs(t) > 1e-9]
        assert len(rf_lobes) >= 2
        assert len(if_lobes) == 0


class TestBeamwidth:
    def test_isotropic_never_crosses(self):
        p = sample_pattern(AnalyticPattern.isotropic(36e9), THETA)
        bw = beamwidth_3db(p)
        assert bw.no_crossing
        assert bw.width == pytest.approx(THETA[-1] - THETA[0])

    def test_cos_squared_closed_form(self):
        bw = beamwidth_3db(cos_q_grid(2.0))
        expected = 2.0 * math.acos(2.0 ** -0.25)
        assert math.degrees(expected) == pytest.approx(65.53, abs=0.01)
        assert bw.width == pytest.approx(expected, abs=1e-4)
        assert not bw.no_crossing

    def test_invariant_under_scaling(self):
        p = cos_q_grid(2.0)
        scaled = PatternGrid(p.theta_samples, p.phi_cut, 7.3 * p.gains,
                             p.frequency)
        assert beamwidth_3db(scaled).width == pytest.approx(
            beamwidth_3db(p).width, abs=1e-12)

    def test_if_vs_rf_array_factor_width_ratio(self):
        g = ArrayGeometry.linear(4, 0.032)
        af_if = if_array_factor_cut(g, 38.5e9, 37.5e9, THETA, 0.0)
        af_rf = rf_array_factor_cut(g, 38.5e9, THETA, 0.0)
        bw_if = beamwidth_3db(PatternGrid(THETA, 0.0, af_if, 1e9))
        bw_rf = beamwidth_3db(PatternGrid(THETA, 0.0, af_rf, 38.5e9))
        assert bw_if.width / bw_rf.width > 10.0


class TestPatternCsv:
    def test_round_trip(self, tmp_path):
        p = cos_q_grid(1.5).normalized()
        path = tmp_path / "cut.csv"
        write_pattern_csv(p, path)
        back = read_pattern_csv(path, frequency=p.frequency)
        assert np.allclose(back.theta_samples, p.theta_samples, atol=1e-9)
        mask = p.gains > 1e-9  # the -200 dB floor clips true zeros
        assert np.allclose(back.gains[mask], p.gains[mask], rtol=1e-6)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("angle,value\n0,0\n")
        with pytest.raises(ValueError):
            read_pattern_csv(path, frequency=36e9)
