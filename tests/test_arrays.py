import math

import numpy as np
import pytest

from selfmix import arrays, validation
from selfmix.arrays import (
    FACTOR_BLOCK,
    FACTOR_RHO,
    ArrayGeometry,
    array_factor,
    cut_phase_count,
    effective_spacing,
    if_array_factor_cut,
    parse_geometry,
    rf_array_factor_cut,
)
from selfmix.signals import dft_spectrum, plan_sampling, synthesize_waveform
from selfmix.units import DB_FLOOR, SPEED_OF_LIGHT
from selfmix.validation import direct_array_factor, simulate_array_timedomain

C0 = SPEED_OF_LIGHT
EDGE_ON = math.pi / 2


def if_factor(g, f1, f2, theta, phi=0.0):
    """IF array factor in one direction: a one-element cut."""
    return float(if_array_factor_cut(g, f1, f2, [theta], phi)[0])


def rf_factor(g, f_rf, theta, phi=0.0):
    return float(rf_array_factor_cut(g, f_rf, [theta], phi)[0])


def random_geometry(rng, n=None):
    n = n or int(rng.integers(2, 9))
    return ArrayGeometry(rng.uniform(-0.05, 0.05, size=(n, 2)))


class TestGeometry:
    def test_coincident_elements_rejected(self):
        with pytest.raises(ValueError):
            ArrayGeometry([[0.0, 0.0], [0.0, 0.0]])

    def test_coincidence_found_at_scale(self):
        pos = ArrayGeometry.planar_grid(64, 64, 0.032, 0.036).element_positions
        pos = pos.copy()
        pos[4095] = pos[0]
        with pytest.raises(ValueError, match="elements 0 and 4095 coincide"):
            ArrayGeometry(pos)

    def test_signed_zeros_coincide(self):
        with pytest.raises(ValueError, match="elements 1 and 2 coincide"):
            ArrayGeometry([[0.5, 0.0], [0.0, 0.25], [-0.0, 0.25]])
        # a sort that put -0.0 before 0.0 would separate rows 0 and 2
        with pytest.raises(ValueError, match="elements 0 and 2 coincide"):
            ArrayGeometry([[-0.0, 0.5], [0.0, 0.25], [0.0, 0.5]])

    def test_distinct_elements_sharing_coordinates_accepted(self):
        g = ArrayGeometry([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        assert g.element_count == 4

    def test_non_finite_rejected_before_coincidence(self):
        with pytest.raises(ValueError, match="finite"):
            ArrayGeometry([[np.nan, 0.0], [np.nan, 0.0]])
        # a flat [x, y] pair is not read as one element
        with pytest.raises(ValueError, match=r"element_positions must have "
                                             r"shape \(N, 2\), N >= 1"):
            ArrayGeometry([0.1, 0.2])

    def test_planar_grid_layout(self):
        g = ArrayGeometry.planar_grid(4, 2, 0.032, 0.036)
        assert g.element_count == 8
        assert g.element_positions[1][0] == pytest.approx(0.032)
        assert g.element_positions[4][1] == pytest.approx(0.036)

    def test_parse_table_with_offsets(self, tmp_path):
        path = tmp_path / "layout.txt"
        path.write_text("""
            # x_m   y_m    rf_phase_offset_deg
            0.0     0.0
            0.032,  0.0,   180
        """)
        g = parse_geometry(path, 2)
        assert g.element_count == 2
        assert g.rf_phase_offsets[1] == pytest.approx(math.pi)

    def test_parse_empty_rejected(self, tmp_path):
        path = tmp_path / "layout.txt"
        path.write_text("# only a comment\n")
        with pytest.raises(ValueError, match="contains no elements"):
            parse_geometry(path, 1)


class TestPathPhase:
    def test_broadside_is_zero(self):
        rng = np.random.default_rng(2)
        g = random_geometry(rng)
        assert rf_factor(g, 38e9, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_linear_array_anchor(self):
        # 32 mm element, edge-on arrival, 36 GHz (about 4 RF wavelengths):
        # the two-element factor is |cos(phase / 2)|
        g = ArrayGeometry.planar_grid(2, 1, 0.032, 0.0)
        expected = 2 * math.pi * 0.032 * 36e9 / C0
        assert rf_factor(g, 36e9, EDGE_ON) == pytest.approx(
            abs(math.cos(expected / 2)), rel=1e-12)
        assert 0.032 / (C0 / 36e9) == pytest.approx(4.0, abs=0.2)

    def test_reference_element_always_zero(self):
        # element 0 is the phase reference wherever it sits
        g = ArrayGeometry([[0.01, 0.02]])
        assert rf_factor(g, 38e9, EDGE_ON) == 1.0


class TestElementIfSignal:
    def test_broadside_phase_zero(self):
        g = ArrayGeometry.planar_grid(4, 2, 0.032, 0.036)
        assert if_factor(g, 37.5e9, 38.5e9, 0.0) == pytest.approx(
            1.0, abs=1e-12)

    def test_edge_on_anchor(self):
        g = ArrayGeometry.planar_grid(2, 1, 0.032, 0.0)
        phase = 2 * math.pi * 0.032 * 1e9 / C0
        assert if_factor(g, 38.5e9, 37.5e9, EDGE_ON) == pytest.approx(
            math.cos(phase / 2), rel=1e-9)

    def test_only_difference_frequency_matters(self):
        g = ArrayGeometry.planar_grid(3, 1, 0.032, 0.0)
        theta = np.linspace(-1.5, 1.5, 31)
        assert np.array_equal(if_array_factor_cut(g, 37.5e9, 38.5e9, theta, 0.0),
                              if_array_factor_cut(g, 39.5e9, 40.5e9, theta, 0.0))


class TestIfArrayFactor:
    def test_broadside_unity_any_geometry(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            g = random_geometry(rng)
            assert if_factor(g, 37.5e9, 38.5e9, 0.0) == 1.0

    def test_two_element_edge_on(self):
        g = ArrayGeometry.planar_grid(2, 1, 0.032, 0.0)
        expected = math.cos(math.pi * 0.032 * 1e9 / C0)
        assert if_factor(g, 38.5e9, 37.5e9, EDGE_ON) == pytest.approx(
            expected, rel=1e-12)
        assert expected == pytest.approx(0.9444, abs=5e-4)

    def test_vanishing_tone_spacing_keeps_full_gain(self):
        lam = C0 / 36e9
        g = ArrayGeometry.planar_grid(8, 1, 10 * lam, 0.0)
        theta = np.radians(np.arange(-90, 90.01, 0.5))
        af = if_array_factor_cut(g, 36e9 + 1e3, 36e9, theta, 0.0)
        assert af.min() >= 0.999999

    def test_translation_invariance(self):
        rng = np.random.default_rng(21)
        g = random_geometry(rng, 5)
        g_shift = ArrayGeometry(g.element_positions + np.array([0.7, -0.3]))
        assert if_factor(g, 37.5e9, 38.5e9, 0.5, 0.9) == pytest.approx(
            if_factor(g_shift, 37.5e9, 38.5e9, 0.5, 0.9), abs=1e-12)

    def test_common_frequency_offset_invariance(self):
        rng = np.random.default_rng(34)
        g = random_geometry(rng, 6)
        assert if_factor(g, 37.5e9, 38.5e9, -0.8, 0.2) == pytest.approx(
            if_factor(g, 39.5e9, 40.5e9, -0.8, 0.2), abs=1e-12)


class TestRfArrayFactor:
    def test_broadside_unity(self):
        g = ArrayGeometry.planar_grid(4, 2, 0.032, 0.036)
        assert rf_factor(g, 38.5e9, 0.0) == 1.0

    def test_grating_lobe_at_four_wavelength_spacing(self):
        f = 36e9
        g = ArrayGeometry.planar_grid(2, 1, 4 * C0 / f, 0.0)
        theta = math.asin(0.25)
        assert rf_factor(g, f, theta) == pytest.approx(1.0, abs=1e-12)
        assert math.degrees(theta) == pytest.approx(14.48, abs=0.01)

    def test_uniform_array_null(self):
        f = 36e9
        g = ArrayGeometry.planar_grid(4, 1, 0.5 * C0 / f, 0.0)
        assert rf_factor(g, f, math.asin(0.5)) < 1e-9

    def test_if_factor_wider_than_rf_factor(self):
        # the RF factor dips into its first null within a few degrees; the
        # IF factor of the same layout never even leaves its main lobe
        g = ArrayGeometry.planar_grid(4, 1, 0.032, 0.0)
        theta = np.radians(np.arange(0, 90.01, 0.05))
        af_rf = rf_array_factor_cut(g, 38.5e9, theta, 0.0)
        af_if = if_array_factor_cut(g, 38.5e9, 37.5e9, theta, 0.0)
        dips = np.nonzero((af_rf[1:-1] < af_rf[:-2])
                          & (af_rf[1:-1] < af_rf[2:]))[0] + 1
        first_dip = dips[0]
        assert af_rf[first_dip] < 0.1
        assert math.degrees(theta[first_dip]) < 10.0
        # never even drops 3 dB across the whole visible range
        assert af_if.min() > 1.0 / math.sqrt(2.0)


class TestKernel:
    @pytest.mark.parametrize("kind", ["if", "rf"])
    def test_chunked_cut_equals_single_directions(self, kind):
        # more than three blocks of FACTOR_BLOCK // 64 directions, ending in
        # a one-direction block: 64 elements summed one by one, and a
        # non-uniform 64 x 64 product layout with equal feed offsets, whose
        # 64-element sub-layouts are summed; the complex cut, with the feed
        # offsets as weights, keeps the bits of its real and imaginary parts
        rng = np.random.default_rng(5)
        summed = ArrayGeometry(random_geometry(rng, 64).element_positions,
                               rng.uniform(-math.pi, math.pi, 64))
        xs = np.cumsum(rng.uniform(0.01, 0.03, 64))
        ys = np.cumsum(rng.uniform(0.01, 0.03, 64))
        product = ArrayGeometry(np.column_stack([
            np.tile(xs, 64), np.repeat(ys, 64)]), np.full(64 * 64, 0.9))
        theta = np.linspace(-math.pi / 2, math.pi / 2,
                            3 * (FACTOR_BLOCK // 64) + 1)
        frequency = -1e9 if kind == "if" else 38.5e9
        for g in (summed, product):
            def cut(t):
                if kind == "if":
                    return if_array_factor_cut(g, 37.5e9, 38.5e9, t, 0.4)
                return rf_array_factor_cut(g, 38.5e9, t, 0.4)

            def complex_cut(t):
                return array_factor(g, frequency, t, 0.4,
                                    np.exp(1j * g.rf_phase_offsets))

            for route in (cut, complex_cut):
                full = route(theta)
                single = np.array([route(theta[i:i + 1])[0]
                                   for i in range(theta.size)])
                assert np.array_equal(full.real, single.real)
                assert np.array_equal(full.imag, single.imag)

    @pytest.mark.parametrize("frequency", [1e9, 38.5e9])
    def test_complex_factor_about_element_0(self, frequency):
        # product layouts whose element 0 is not the corner: the 4 x 2 grid
        # with its rows rolled, and a non-uniform 4 x 3 product with equal
        # nonzero feed offsets, with its element 0 inside
        grid = ArrayGeometry.planar_grid(4, 2, 0.032, 0.036)
        rolled = ArrayGeometry(np.roll(grid.element_positions, 4, axis=0))
        xs = np.array([0.030, 0.052, 0.0, 0.011])
        ys = np.array([0.017, 0.041, -0.02])
        offset = ArrayGeometry(np.column_stack([np.tile(xs, 3),
                                                np.repeat(ys, 4)]),
                               np.full(12, 0.7))
        theta = np.linspace(-math.pi / 2, math.pi / 2, 181)
        for g in (rolled, offset):
            for weights in (None, np.exp(1j * g.rf_phase_offsets)):
                for phi in (0.6, math.pi / 2, 2.5):
                    af = array_factor(g, frequency, theta, phi, weights)
                    direct = direct_array_factor(g, frequency, theta, phi,
                                                 weights)
                    assert np.max(np.abs(af - direct)) < 1e-12

    @pytest.mark.parametrize("layout", ["summed", "product"])
    def test_reordering_moves_the_reference(self, layout):
        # element 0 is the phase reference: a layout with its elements (and
        # weights) reordered has the factor times exp(j*k*(r_0 - r_0')*u)
        rng = np.random.default_rng(21)
        if layout == "summed":
            pos = rng.uniform(0.0, 0.3, size=(30, 2))
        else:
            pos = ArrayGeometry.planar_grid(6, 5, 0.032,
                                            0.036).element_positions
        weights = np.exp(1j * rng.uniform(-math.pi, math.pi, len(pos)))
        perm = rng.permutation(len(pos))
        assert perm[0] != 0
        theta = np.linspace(-math.pi / 2, math.pi / 2, 361)
        phi, f = 0.8, 38.5e9
        g, moved = ArrayGeometry(pos), ArrayGeometry(pos[perm])
        for w, w_moved in ((None, None), (weights, weights[perm])):
            af = array_factor(g, f, theta, phi, w)
            af_moved = array_factor(moved, f, theta, phi, w_moved)
            shift = (pos[0] - pos[perm[0]]) @ [math.cos(phi), math.sin(phi)]
            turn = np.exp(2j * math.pi * f / C0 * shift * np.sin(theta))
            assert np.max(np.abs(af_moved - af * turn)) < 1e-12

    def test_layout_one_short_of_a_product_is_summed(self):
        # a 4 x 4 grid less one element must not take the product route
        pos = ArrayGeometry.planar_grid(4, 4, 0.032, 0.036).element_positions
        g = ArrayGeometry(pos[:-1])
        theta = np.linspace(-math.pi / 2, math.pi / 2, 181)
        phi = 0.6
        for f, af in ((1e9, if_array_factor_cut(g, 37.5e9, 38.5e9, theta, phi)),
                      (38.5e9, rf_array_factor_cut(g, 38.5e9, theta, phi))):
            direct = np.abs(direct_array_factor(g, f, theta, phi, None))
            assert np.max(np.abs(af - direct)) < 1e-12

    @pytest.mark.parametrize("kind", ["if", "rf"])
    def test_bin_edges_and_endfire(self, kind):
        # directions on the edges s = (m + 1/2) h of the Taylor bins, where
        # every phase is FACTOR_RHO from its bin centre, and at s = +-1
        rng = np.random.default_rng(3)
        g = ArrayGeometry(rng.uniform(0.0, 0.6, size=(40, 2)),
                          rng.uniform(-math.pi, math.pi, 40))
        phi = 0.9
        f = 1e9 if kind == "if" else 38.5e9
        rel = g.element_positions - g.element_positions[0]
        a = 2 * math.pi * f / C0 * (rel @ [math.cos(phi), math.sin(phi)])
        h = 2 * FACTOR_RHO / np.max(np.abs(a))
        m = np.arange(-int(1 / h), int(1 / h))
        s = np.concatenate([(m + 0.5) * h, [-1.0, 1.0]])
        theta = np.arcsin(np.clip(s, -1.0, 1.0))
        if kind == "if":
            af = if_array_factor_cut(g, 38.5e9, 37.5e9, theta, phi)
            direct = np.abs(direct_array_factor(g, f, theta, phi, None))
        else:
            af = rf_array_factor_cut(g, f, theta, phi)
            direct = np.abs(direct_array_factor(
                g, f, theta, phi, np.exp(1j * g.rf_phase_offsets)))
        assert np.max(np.abs(af - direct)) < 1e-12

    def test_random_wide_apertures(self):
        rng = np.random.default_rng(2024)
        theta = np.radians(np.arange(-90.0, 90.0 + 1e-9, 0.1))
        for _ in range(20):
            n = int(rng.integers(2, 65))
            span = rng.uniform(0.5, 3.0)
            g = ArrayGeometry(rng.uniform(0.0, span, size=(n, 2)),
                              rng.uniform(-math.pi, math.pi, n))
            phi = rng.uniform(-math.pi, math.pi)
            af_if = if_array_factor_cut(g, 37.5e9, 38.5e9, theta, phi)
            af_rf = rf_array_factor_cut(g, 38.5e9, theta, phi)
            assert np.max(np.abs(af_if - np.abs(
                direct_array_factor(g, 1e9, theta, phi, None)))) < 1e-12
            assert np.max(np.abs(af_rf - np.abs(direct_array_factor(
                g, 38.5e9, theta, phi,
                np.exp(1j * g.rf_phase_offsets))))) < 1e-12

    @pytest.mark.parametrize("layout", ["summed", "product"])
    def test_broadside_exactly_one(self, layout):
        rng = np.random.default_rng(12)
        if layout == "summed":
            pos = rng.uniform(0.0, 2.0, size=(37, 2))
        else:
            pos = ArrayGeometry.planar_grid(7, 5, 0.3, 0.4).element_positions
        g = ArrayGeometry(pos, np.full(len(pos), 2.1))
        theta = np.array([-0.4, 0.0, 0.0, 1.3])
        for phi in (0.0, 0.7, math.pi / 2):
            assert if_array_factor_cut(g, 37.5e9, 38.5e9, theta, phi)[1] == 1.0
            assert rf_array_factor_cut(g, 38.5e9, theta, phi)[2] == 1.0

    def test_huge_aperture_bins_no_more_than_directions(self, monkeypatch):
        # about 8e6 bins span sin(theta) in [-1, 1]; only the occupied ones
        # are evaluated, so work and memory do not grow with the aperture
        bins = []
        moments = arrays._bin_moments

        def spy(centres, *args):
            bins.append(centres.size)
            return moments(centres, *args)

        monkeypatch.setattr(arrays, "_bin_moments", spy)
        g = ArrayGeometry([[0.0, 0.0], [1e4, 0.0]])
        theta = np.array([-0.7, 0.1, 1.2])
        af = rf_array_factor_cut(g, 38.5e9, theta, 0.3)
        assert bins and max(bins) <= theta.size
        # phases near 8e6 rad carry about 1e-9 of rounding on either route
        assert np.max(np.abs(af - np.abs(
            direct_array_factor(g, 38.5e9, theta, 0.3, None)))) < 1e-8

    def test_blocks_stay_within_factor_block(self, monkeypatch):
        # more elements than one chunk of Taylor terms holds, and more bins
        # than one block holds: every matrix stays within FACTOR_BLOCK
        entries = []
        phasors, terms = arrays._centre_phasors, arrays._taylor_terms

        def spy_phasors(centres, b):
            entries.append(centres.size * b.size)
            return phasors(centres, b)

        def spy_terms(b, weights):
            out = terms(b, weights)
            entries.append(out.size)
            return out

        monkeypatch.setattr(arrays, "_centre_phasors", spy_phasors)
        monkeypatch.setattr(arrays, "_taylor_terms", spy_terms)
        rng = np.random.default_rng(8)
        n = FACTOR_BLOCK // 16
        g = ArrayGeometry(rng.uniform(0.0, 0.5, size=(n, 2)),
                          rng.uniform(-math.pi, math.pi, n))
        theta = np.linspace(-math.pi / 2, math.pi / 2, 301)
        af = rf_array_factor_cut(g, 38.5e9, theta, 0.2)
        assert len(entries) > 4 and max(entries) <= FACTOR_BLOCK
        assert np.max(np.abs(af - np.abs(direct_array_factor(
            g, 38.5e9, theta, 0.2, np.exp(1j * g.rf_phase_offsets))))) < 1e-12

    def test_overflowing_slopes_raise_before_binning(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("binned a cut whose phases overflow")

        monkeypatch.setattr(arrays, "_phasor_mean", unreachable)
        g = ArrayGeometry([[0.0, 0.0], [1e308, 0.0], [0.5, 0.3]])
        with pytest.raises(ValueError, match="not finite"):
            rf_array_factor_cut(g, 38.5e9, [0.1, 0.2], 0.0)

    def test_phase_count_follows_the_route(self):
        grid = ArrayGeometry.planar_grid(16, 8, 0.032, 0.036)
        # the IF and the RF cut of the pair, in that order
        assert cut_phase_count(grid, 721) == 721 * ((16 + 8) + (16 + 8))
        # equal feed offsets keep the product route, unequal ones do not
        same = ArrayGeometry(grid.element_positions, np.full(128, 0.7))
        assert cut_phase_count(same, 721) == 721 * (24 + 24)
        mixed = ArrayGeometry(grid.element_positions, np.arange(128.0))
        assert cut_phase_count(mixed, 721) == 721 * (24 + 128)
        short = ArrayGeometry(grid.element_positions[:-1])
        assert cut_phase_count(short, 721) == 721 * (127 + 127)

    def test_empty_cut(self):
        g = ArrayGeometry.planar_grid(3, 1, 0.032, 0.0)
        assert if_array_factor_cut(g, 37.5e9, 38.5e9, [], 0.0).shape == (0,)


class TestEffectiveSpacing:
    def test_reference_values(self):
        assert effective_spacing(0.032, 1e9) == pytest.approx(0.1067, abs=1e-4)
        assert effective_spacing(0.032, 2.5e9) == pytest.approx(0.2668, abs=1e-4)

    def test_zero_spacing_for_zero_offset(self):
        assert effective_spacing(0.032, 0.0) == 0.0

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ValueError, match="d_element must be positive"):
            effective_spacing(0.0, 1e9)
        with pytest.raises(ValueError, match="d_element must be positive"):
            effective_spacing(-0.032, 1e9)
        with pytest.raises(ValueError, match="delta_f must be >= 0"):
            effective_spacing(0.032, -1e9)


class TestLimitingCaseCheck:
    def test_zero_factor_fails_without_raising(self, monkeypatch):
        # a dead cut floors its least gain at DB_FLOOR instead of log10(0)
        monkeypatch.setattr(arrays, "if_array_factor_cut",
                            lambda g, f1, f2, theta, phi_cut: np.zeros(
                                np.size(theta)))
        result = validation.check_limiting_case_array_gain()
        assert not result.passed
        assert "least 8-element array gain -190.9691 dB" in result.detail

    # each bound fails on its own: a flat AF of 0.9999985 is within the
    # 0.01 dB gain bound, and one of 1.002 is above the AF bound
    @pytest.mark.parametrize("minimum, least, passed", [
        (1.0, "9.0309", True),
        (0.5, "3.0103", False),
        (0.9999985, "9.0309", False),
        (1.002, "9.0483", False),
    ])
    def test_least_gain_reads_the_cut_minimum(self, monkeypatch, minimum,
                                              least, passed):
        monkeypatch.setattr(arrays, "if_array_factor_cut",
                            lambda g, f1, f2, theta, phi_cut: np.full(
                                np.size(theta), minimum))
        result = validation.check_limiting_case_array_gain()
        assert result.passed is passed
        assert f"least 8-element array gain {least} dB" in result.detail


def per_element_oracle(g, f1, f2, theta, phi, gains):
    """The time-domain array oracle one direction and one element at a time,
    through the ``signals`` functions: synthesis, squaring and DFT.
    Negative theta is |theta| at azimuth ``phi + pi``."""
    if_freq = abs(f1 - f2)
    rate, duration = plan_sampling([f1, f2, if_freq])
    rel = g.element_positions - g.element_positions[0]

    def if_tone(amplitudes, phases):
        w = synthesize_waveform(amplitudes, [f1, f2], phases, rate,
                                round(rate * duration))
        return complex(dft_spectrum(w * w)[round(if_freq * duration)])

    reference = if_tone([1.0, 0.5], 0.0)
    power_db = []
    for t, (c1, c2) in zip(theta.tolist(), gains):
        polar, az = (t, phi) if t >= 0.0 else (-t, phi + math.pi)
        az = (az + math.pi) % (2 * math.pi) - math.pi
        s = math.sin(polar)
        path = rel @ np.array([s * math.cos(az), s * math.sin(az)])
        total = 0.0 + 0.0j
        if c1 != 0.0 and c2 != 0.0:
            for k in range(g.element_count):
                total += if_tone([c1 * 1.0, c2 * 0.5], [
                    2 * math.pi * path[k] * f / C0 + g.rf_phase_offsets[k]
                    for f in (f1, f2)])
        ratio = abs(total / math.sqrt(g.element_count)) / abs(reference)
        power_db.append(max(DB_FLOOR, 20.0 * math.log10(ratio))
                        if ratio > 0.0 else DB_FLOOR)
    return power_db


def timedomain_db(g, theta, phi=0.0, gains=None, f2=38.5e9):
    return simulate_array_timedomain(g, 37.5e9, f2, theta, phi, gains)


class TestTimeDomainArray:
    @pytest.mark.parametrize("case", ["random", "grid"])
    def test_equals_per_element_route_bit_for_bit(self, case):
        rng = np.random.default_rng(5)
        theta = np.array([-1.2, -0.3, 0.0, 0.4, 1.5])
        if case == "random":
            # negative theta at phi = pi/2, RF feed offsets, per-direction
            # tone gains and a direction with zero gain at one tone
            g = ArrayGeometry(rng.uniform(-0.05, 0.05, size=(7, 2)),
                              rng.uniform(-math.pi, math.pi, 7))
            gains = rng.uniform(0.2, 2.0, size=(5, 2))
            gains[3, 1] = 0.0
            phi = math.pi / 2
        else:
            g = ArrayGeometry.planar_grid(4, 2, 0.032, 0.036)
            gains = np.ones((5, 2))
            phi = 0.0
        power = timedomain_db(g, theta, phi, gains)
        reference = per_element_oracle(g, 37.5e9, 38.5e9, theta, phi, gains)
        assert [v.hex() for v in power.tolist()] == [
            v.hex() for v in reference]
        if case == "random":
            assert power[3] == DB_FLOOR

    @pytest.mark.parametrize("f2", [38.5e9, 37.502e9])
    def test_each_cell_equals_the_one_direction_call(self, f2):
        # at 37.502 GHz a record has 2^17 samples, so the 10 rows of the
        # cut go through in blocks of 8, one of which splits a direction
        rng = np.random.default_rng(9)
        if f2 == 38.5e9:
            n, theta, planes = 5, np.linspace(-1.5, 1.5, 13), (0.0, 0.6, 1.5)
        else:
            n, theta, planes = 3, np.array([-0.9, 0.2, 1.1]), (0.6,)
        g = ArrayGeometry(rng.uniform(-0.05, 0.05, size=(n, 2)),
                          rng.uniform(-math.pi, math.pi, n))
        gains = rng.uniform(0.0, 2.0, size=(theta.size, 2))
        gains[1, 0] = 0.0
        for phi in planes:
            cut = timedomain_db(g, theta, phi, gains, f2)
            single = [timedomain_db(g, theta[i:i + 1], phi, gains[i:i + 1],
                                    f2)[0] for i in range(theta.size)]
            assert np.array_equal(cut, single)

    def test_negative_theta_is_the_opposite_azimuth(self):
        rng = np.random.default_rng(4)
        g = random_geometry(rng, 5)
        theta = np.array([0.2, 0.9, 1.4])
        assert np.array_equal(timedomain_db(g, -theta, 0.4),
                              timedomain_db(g, theta, 0.4 + math.pi))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_bad_gain_rejected(self, bad):
        g = ArrayGeometry.planar_grid(3, 1, 0.032, 0.0)
        gains = np.ones((2, 2))
        gains[1, 0] = bad
        with pytest.raises(ValueError, match="element gains"):
            timedomain_db(g, [0.2, -0.4], 0.0, gains)

    @pytest.mark.parametrize("f1, f2", [
        (37.5e9, 37.5e9), (0.0, 38.5e9), (37.5e9, -1e9), (math.nan, 38.5e9),
        (math.inf, 38.5e9)])
    def test_tone_frequencies_validated(self, f1, f2):
        g = ArrayGeometry.planar_grid(2, 1, 0.032, 0.0)
        with pytest.raises(ValueError, match="positive, finite, distinct"):
            simulate_array_timedomain(g, f1, f2, [0.1], 0.0)

    @pytest.mark.parametrize("case", ["unit", "gains", "offsets"])
    @pytest.mark.parametrize("f1, f2", [(1e9, 3e9), (3e9, 1e9)])
    def test_square_term_on_the_if_bin_refused(self, f1, f2, case):
        # 2 x 1 GHz is the 2 GHz IF. That square term goes as the lower
        # tone's gain squared and twice its feed phase, the IF product as
        # c1 * c2 and the phase difference, so under per-direction gains or
        # feed offsets the guard-free per-element route misreads the factor
        theta = np.array([0.0, 0.3, 0.7])
        g = ArrayGeometry.planar_grid(4, 1, 0.05, 0.0)
        gains = np.ones((3, 2))
        if case == "gains":
            gains = np.column_stack([np.cos(theta) ** 0.5, np.cos(theta) ** 2])
        elif case == "offsets":
            offsets = np.random.default_rng(3).uniform(-math.pi, math.pi, 4)
            g = ArrayGeometry(g.element_positions, offsets)
        with pytest.raises(ValueError, match="shares the IF bin"):
            simulate_array_timedomain(g, f1, f2, theta, 0.0, gains)
        if case != "unit":
            expected = 10 * math.log10(4) + 20 * np.log10(
                if_array_factor_cut(g, f1, f2, theta, 0.0) * gains.prod(axis=1))
            misread = per_element_oracle(g, f1, f2, theta, 0.0, gains)
            assert np.max(np.abs(misread - expected)) > 0.1  # dB

    @pytest.mark.parametrize("theta", [[3.2], [-3.2], [math.nan], [[0.1]]])
    def test_theta_outside_a_cut_rejected(self, theta):
        g = ArrayGeometry.planar_grid(2, 1, 0.032, 0.0)
        with pytest.raises(ValueError, match="theta_signed"):
            timedomain_db(g, theta)

    @pytest.mark.parametrize("positions", [
        [[0.0, 0.0], [1e300, 0.0]],  # the phase product overflows
        [[-1e308, 0.0], [1e308, 0.0]],  # so does the relative position
    ])
    def test_overflowing_phases_rejected(self, positions):
        g = ArrayGeometry(positions)
        with np.errstate(all="raise"):  # and nothing warns on the way
            with pytest.raises(ValueError, match="element phases overflow"):
                timedomain_db(g, [0.1, 0.3])

    def test_independent_of_array_factor_kernel(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the oracle called the fast path")

        monkeypatch.setattr(arrays, "array_factor", fail)
        monkeypatch.setattr(arrays, "_phasor_mean", fail)
        g = ArrayGeometry.planar_grid(4, 2, 0.032, 0.036)
        assert timedomain_db(g, [0.0])[0] == pytest.approx(
            10 * math.log10(8), abs=1e-9)

    def test_broadside_gain_is_element_count(self):
        g = ArrayGeometry.planar_grid(4, 2, 0.032, 0.036)
        power = timedomain_db(g, [0.0, 0.0], math.pi / 2)
        assert power == pytest.approx(10 * math.log10(8), abs=1e-9)

    def test_matches_if_array_factor(self):
        g = ArrayGeometry.planar_grid(2, 1, 0.032, 0.0)
        af = if_factor(g, 37.5e9, 38.5e9, EDGE_ON)
        assert timedomain_db(g, [EDGE_ON])[0] - 10 * math.log10(2) == (
            pytest.approx(20 * math.log10(af), abs=1e-9))

    def test_feed_rotation_cancels_in_self_mixing(self):
        # a 180 degree RF feed rotation applied at both tones leaves the
        # IF signal untouched
        g = ArrayGeometry([[0.0, 0.0]])
        g_flip = ArrayGeometry(g.element_positions, [math.pi])
        assert timedomain_db(g_flip, [0.4]) == pytest.approx(
            timedomain_db(g, [0.4]), abs=1e-9)

    def test_gain_shape_validated(self):
        # one gain pair per direction; per-element shapes are refused
        g = ArrayGeometry.planar_grid(2, 1, 0.032, 0.0)
        for gains in (np.ones(3), np.ones(1), np.ones((2, 2))):
            with pytest.raises(ValueError, match=r"shape \(1, 2\)"):
                timedomain_db(g, [0.0], 0.0, gains)
        assert timedomain_db(g, []).shape == (0,)
