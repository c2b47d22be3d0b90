import math
import warnings

import numpy as np
import pytest

from selfmix.arrays import ArrayGeometry, if_array_factor_cut, rf_array_factor_cut
from selfmix.patterns import (
    PatternGrid,
    beamwidth_3db,
    cos_q,
    find_lobes,
    read_pattern_csv,
    self_mix_pattern,
    two_beam,
)
from selfmix.tables import Table
from selfmix.units import amplitude_ratio_to_db

THETA = np.radians(np.arange(-90.0, 90.01, 0.25))


def cos_q_grid(q):
    return cos_q(THETA, q)


class TestSamplePattern:
    def test_isotropic(self):
        # q = 0 is the isotropic element: 0.0 ** 0.0 == 1.0 past +-90 deg
        p = cos_q_grid(0.0)
        assert np.all(p.gains == 1.0)

    def test_cos_squared_at_60_degrees(self):
        p = cos_q_grid(2.0)
        k = int(np.argmin(np.abs(p.theta_samples - math.radians(60.0))))
        assert p.gains[k] == pytest.approx(0.25, abs=1e-9)

    def test_two_beam_dips_at_broadside(self):
        p = two_beam(THETA, math.radians(30), math.radians(20))
        centre = int(np.argmin(np.abs(p.theta_samples)))
        # local minimum at theta = 0 between the two tilted beams
        assert p.gains[centre] < p.gains.max()
        window = p.gains[centre - 40:centre + 41]
        assert p.gains[centre] == pytest.approx(window.min(), abs=1e-12)

    def test_kind_validation(self):
        with pytest.raises(ValueError, match="q >= 0"):
            cos_q(THETA, -1.0)
        with pytest.raises(ValueError, match="tilt"):
            two_beam(THETA, 2.0, 0.1)
        # a width whose square underflows to 0 is no width
        for width in (0.0, -0.1, 1e-200):
            with pytest.raises(ValueError, match="needs width > 0"):
                two_beam(THETA, 0.5, width)

    def test_narrow_two_beam_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the exponent overflows to -inf off the two samples at +-30 deg
            p = two_beam(THETA, math.radians(30.0), math.radians(1e-153))
            assert np.flatnonzero(p.gains).tolist() == [240, 480]
            # no sample within reach of either beam
            with pytest.raises(ValueError,
                               match="cannot normalize an all-zero pattern"):
                two_beam(THETA, math.radians(30.1), math.radians(0.001))

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PatternGrid(np.array([0.0, 0.1, 0.05]), np.ones(3))
        with pytest.raises(ValueError, match="finite and >= 0"):
            PatternGrid(np.array([0.0, 0.1, 0.2]), np.array([1.0, -0.5, 1.0]))


class TestSelfMixPattern:
    def test_isotropic_times_isotropic(self):
        out = self_mix_pattern(cos_q_grid(0.0), cos_q_grid(0.0))
        assert np.all(out.gains == 1.0)

    def test_exponent_addition(self):
        out = self_mix_pattern(cos_q_grid(1.0), cos_q_grid(1.0))
        assert np.allclose(out.gains, cos_q_grid(2.0).gains, atol=1e-12)

    def test_zero_pattern_annihilates(self):
        zero = PatternGrid(THETA, np.zeros_like(THETA))
        out = self_mix_pattern(cos_q_grid(1.0), zero)
        assert np.all(out.gains == 0.0)

    def test_grid_mismatch(self):
        other = cos_q(np.radians(np.arange(-90.0, 90.01, 0.5)), 0.0)
        with pytest.raises(ValueError, match="different theta samples"):
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
    """The array's receive pattern: the element product times the array
    factor, along the same cut."""

    def element(self):
        return self_mix_pattern(cos_q_grid(1.0), cos_q_grid(1.0))

    def test_single_element_array(self):
        g = ArrayGeometry([[0.0, 0.0]])
        sm = self.element()
        af = if_array_factor_cut(g, 37.5e9, 38.5e9, THETA, 0.0)
        assert np.allclose(sm.gains * af, sm.gains, atol=1e-15)

    def test_never_exceeds_element_pattern(self):
        g = ArrayGeometry.planar_grid(4, 2, 0.032, 0.036)
        sm = self.element()
        af = if_array_factor_cut(g, 37.5e9, 38.5e9, THETA, 0.0)
        assert np.all(sm.gains * af <= sm.gains + 1e-15)

    def test_rf_combining_shows_grating_lobes_where_if_does_not(self):
        g = ArrayGeometry.planar_grid(4, 2, 0.032, 0.036)
        phi = math.pi / 2
        sm = self.element()
        total_if = sm.gains * if_array_factor_cut(g, 37.5e9, 38.5e9, THETA,
                                                  phi)
        total_rf = sm.gains * rf_array_factor_cut(g, 38.5e9, THETA, phi)
        in_60 = np.abs(THETA) <= math.radians(60.0)
        floor = 1.0 / math.sqrt(2.0)
        rf60 = PatternGrid(THETA[in_60],
                           PatternGrid(THETA, total_rf).normalized().gains[in_60])
        if60 = PatternGrid(THETA[in_60],
                           PatternGrid(THETA, total_if).normalized().gains[in_60])
        rf_lobes = [t for t in find_lobes(rf60, floor) if abs(t) > 1e-9]
        if_lobes = [t for t in find_lobes(if60, floor) if abs(t) > 1e-9]
        assert len(rf_lobes) >= 2
        assert len(if_lobes) == 0


class TestBeamwidth:
    def test_isotropic_never_crosses(self):
        width, no_crossing = beamwidth_3db(cos_q_grid(0.0))
        assert no_crossing is True
        assert width == pytest.approx(THETA[-1] - THETA[0])

    def test_cos_squared_closed_form(self):
        width, no_crossing = beamwidth_3db(cos_q_grid(2.0))
        expected = 2.0 * math.acos(2.0 ** -0.25)
        assert math.degrees(expected) == pytest.approx(65.53, abs=0.01)
        assert width == pytest.approx(expected, abs=1e-4)
        assert no_crossing is False

    def test_invariant_under_scaling(self):
        p = cos_q_grid(2.0)
        scaled = PatternGrid(p.theta_samples, 7.3 * p.gains)
        width, _ = beamwidth_3db(scaled)
        assert width == pytest.approx(beamwidth_3db(p)[0], abs=1e-12)

    def test_if_vs_rf_array_factor_width_ratio(self):
        g = ArrayGeometry.planar_grid(4, 1, 0.032, 0.0)
        af_if = if_array_factor_cut(g, 38.5e9, 37.5e9, THETA, 0.0)
        af_rf = rf_array_factor_cut(g, 38.5e9, THETA, 0.0)
        width_if, _ = beamwidth_3db(PatternGrid(THETA, af_if))
        width_rf, rf_no_crossing = beamwidth_3db(PatternGrid(THETA, af_rf))
        assert not rf_no_crossing
        assert width_if / width_rf > 10.0

    # a five-sample cut 0.1 rad apart, peak 1: the 3 dB threshold is
    # 1/sqrt(2), so a crossing toward a 0 (or 0.5) sample lies a fraction
    # 1 - 1/sqrt(2) (or 2 - sqrt(2)) of the step past the sample above it
    @pytest.mark.parametrize("gains, floor, width, no_crossing, lobes", [
        # peak tie at -0.2 and 0 rad, broken toward 0: both sides cross
        ([1.0, 0.5, 1.0, 0.5, 0.0], 0.5, 0.2 * (2.0 - math.sqrt(2.0)),
         False, [0.0]),
        # crossings at both samples next to the peak
        ([0.0, 0.0, 1.0, 0.0, 0.0], 0.5, 0.2 * (1.0 - math.sqrt(0.5)),
         False, [0.0]),
        # a peak at an edge has no crossing on its outer side
        ([1.0, 0.5, 0.2, 0.1, 0.0], 0.0, 0.4, True, []),
        # a two-sample plateau: only its first sample is a lobe
        ([0.0, 1.0, 1.0, 0.0, 0.0], 0.5, 0.1 + 0.2 * (1.0 - math.sqrt(0.5)),
         False, [-0.1]),
        # a local maximum exactly at the floor is a lobe
        ([0.0, 1.0, 0.0, 0.5, 0.0], 0.5, 0.2 * (1.0 - math.sqrt(0.5)),
         False, [-0.1, 0.1]),
        # endpoints above the floor and their neighbours are not lobes
        ([0.9, 0.5, 1.0, 0.5, 0.9], 0.5, 0.2 * (2.0 - math.sqrt(2.0)),
         False, [0.0]),
    ])
    def test_scan_rules(self, gains, floor, width, no_crossing, lobes):
        p = PatternGrid(0.1 * np.arange(-2, 3), np.array(gains))
        measured, crossing_missing = beamwidth_3db(p)
        assert type(measured) is float and crossing_missing is no_crossing
        assert measured == pytest.approx(width, abs=1e-15)
        found = find_lobes(p, floor)
        assert type(found) is list and all(type(t) is float for t in found)
        assert found == pytest.approx(lobes, abs=1e-15)


class TestPatternCsv:
    def test_round_trip(self, tmp_path):
        p = cos_q_grid(1.5).normalized()
        path = tmp_path / "cut.csv"
        Table(["theta_deg", "gain_db"], np.column_stack([
            np.degrees(p.theta_samples),
            amplitude_ratio_to_db(p.gains)])).write(path, "csv")
        back = read_pattern_csv(path, p.theta_samples.size)  # at the cap
        assert np.allclose(back.theta_samples, p.theta_samples, atol=1e-9)
        mask = p.gains > 1e-9  # the -200 dB floor clips true zeros
        assert np.allclose(back.gains[mask], p.gains[mask], rtol=1e-6)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("angle,value\n0,0\n")
        with pytest.raises(ValueError):
            read_pattern_csv(path, 5)

    @pytest.mark.parametrize("row, message", [
        ("-10", "expected theta_deg,gain_db, got ['-10']"),
        ("-10,1e6", "gain_db 1e6 is past the float range"),
        ("-10,loud", "could not convert string to float: 'loud'"),
        # a field is what lies between commas and whitespace: no quoting
        ('"-10",0', """could not convert string to float: '"-10"'"""),
        ("-10,,0", "empty field in '-10,,0'"),
        # a stray space makes a third field, not a gain of 0 dB
        ("-10,0 .5", "expected theta_deg,gain_db, got ['-10', '0', '.5']"),
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "cut.csv"
        path.write_text(f"theta_deg,gain_db\n-20,0\n\n{row}\n0,0\n")
        with pytest.raises(ValueError) as info:
            read_pattern_csv(path, 5)
        assert str(info.value) == f"{path}:4: {message}"

    def test_comments_and_whitespace_read_as_csv(self, tmp_path):
        plain = tmp_path / "cut.csv"
        plain.write_text("theta_deg,gain_db\n-10,-3\n0,0\n10,-3\n")
        spaced = tmp_path / "cut.txt"
        spaced.write_text("# measured cut\n\n  theta_deg  gain_db\n"
                          "-10\t-3  # left\n0 , 0\n\n10 -3\n")
        a, b = read_pattern_csv(plain, 3), read_pattern_csv(spaced, 3)
        assert np.array_equal(a.theta_samples, b.theta_samples)
        assert np.array_equal(a.gains, b.gains)

    def test_rows_capped_before_any_parses(self, tmp_path):
        # blank lines do not count, and the malformed last row is never read
        path = tmp_path / "cut.csv"
        path.write_text("theta_deg,gain_db\n-20,0\n\n0,0\n20,loud\n")
        with pytest.raises(ValueError, match="^pattern grid would have 3 "
                                             "points; the limit is 2$"):
            read_pattern_csv(path, 2)
