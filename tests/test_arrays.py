import math

import numpy as np
import pytest

from selfmix import arrays
from selfmix.arrays import (
    FACTOR_BLOCK,
    FACTOR_RHO,
    ArrayGeometry,
    Direction,
    TwoToneIllumination,
    combine_elements,
    cut_direction,
    cut_phase_count,
    effective_spacing,
    if_array_factor_cut,
    parse_geometry,
    rf_array_factor_cut,
    simulate_array_timedomain,
)
from selfmix.errors import EmptyInput, NonPositiveInput
from selfmix.signals import (
    FilterSpec,
    ToneSpec,
    apply_filter,
    dft_spectrum,
    plan_sampling,
    square_law_mix,
    synthesize_waveform,
)
from selfmix.units import DB_FLOOR, SPEED_OF_LIGHT
from selfmix.validation import direct_array_factor

C0 = SPEED_OF_LIGHT
EDGE_ON = Direction(theta=math.pi / 2, phi=0.0)


def if_factor(g, f1, f2, d):
    """IF array factor in one direction: a one-element cut at d.phi."""
    return float(if_array_factor_cut(g, f1, f2, [d.theta], d.phi)[0])


def rf_factor(g, f_rf, d):
    return float(rf_array_factor_cut(g, f_rf, [d.theta], d.phi)[0])


def random_geometry(rng, n=None):
    n = n or int(rng.integers(2, 9))
    return ArrayGeometry(rng.uniform(-0.05, 0.05, size=(n, 2)))


class TestDirection:
    def test_theta_range_enforced(self):
        with pytest.raises(ValueError):
            Direction(theta=-0.1)
        with pytest.raises(ValueError):
            Direction(theta=3.2)

    def test_phi_normalized(self):
        assert Direction(0.1, phi=2 * math.pi + 0.3).phi == pytest.approx(0.3)

    def test_cut_direction_negative_theta(self):
        d = cut_direction(-0.4, phi_cut=0.0)
        assert d.theta == pytest.approx(0.4)
        u = d.in_plane_unit()
        assert u[0] == pytest.approx(math.sin(-0.4))


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

    def test_planar_grid_layout(self):
        g = ArrayGeometry.planar_grid(4, 2, 0.032, 0.036)
        assert g.element_count == 8
        assert g.element_positions[1][0] == pytest.approx(0.032)
        assert g.element_positions[4][1] == pytest.approx(0.036)

    def test_parse_table_with_offsets(self):
        g = parse_geometry("""
            # x_m   y_m    rf_phase_offset_deg
            0.0     0.0
            0.032,  0.0,   180
        """)
        assert g.element_count == 2
        assert g.rf_phase_offsets[1] == pytest.approx(math.pi)

    def test_parse_empty_rejected(self):
        with pytest.raises(EmptyInput):
            parse_geometry("# only a comment\n")


class TestPathPhase:
    def test_broadside_is_zero(self):
        rng = np.random.default_rng(2)
        g = random_geometry(rng)
        assert rf_factor(g, 38e9, Direction(0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_linear_array_anchor(self):
        # 32 mm element, edge-on arrival, 36 GHz (about 4 RF wavelengths):
        # the two-element factor is |cos(phase / 2)|
        g = ArrayGeometry.linear(2, 0.032)
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
        assert if_factor(g, 37.5e9, 38.5e9, Direction(0.0)) == pytest.approx(
            1.0, abs=1e-12)

    def test_edge_on_anchor(self):
        g = ArrayGeometry.linear(2, 0.032)
        ill = TwoToneIllumination(38.5e9, 37.5e9, (1.0, 1.0), EDGE_ON)
        phase = 2 * math.pi * 0.032 * 1e9 / C0
        assert if_factor(g, ill.f1, ill.f2, ill.direction) == pytest.approx(
            math.cos(phase / 2), rel=1e-9)
        assert ill.if_frequency == pytest.approx(1e9)

    def test_only_difference_frequency_matters(self):
        g = ArrayGeometry.linear(3, 0.032)
        theta = np.linspace(-1.5, 1.5, 31)
        assert np.array_equal(if_array_factor_cut(g, 37.5e9, 38.5e9, theta, 0.0),
                              if_array_factor_cut(g, 39.5e9, 40.5e9, theta, 0.0))


class TestIfArrayFactor:
    def test_broadside_unity_any_geometry(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            g = random_geometry(rng)
            assert if_factor(g, 37.5e9, 38.5e9, Direction(0.0)) == 1.0

    def test_two_element_edge_on(self):
        g = ArrayGeometry.linear(2, 0.032)
        expected = math.cos(math.pi * 0.032 * 1e9 / C0)
        assert if_factor(g, 38.5e9, 37.5e9, EDGE_ON) == pytest.approx(
            expected, rel=1e-12)
        assert expected == pytest.approx(0.9444, abs=5e-4)

    def test_vanishing_tone_spacing_keeps_full_gain(self):
        lam = C0 / 36e9
        g = ArrayGeometry.linear(8, 10 * lam)
        theta = np.radians(np.arange(-90, 90.01, 0.5))
        af = if_array_factor_cut(g, 36e9 + 1e3, 36e9, theta, 0.0)
        assert af.min() >= 0.999999

    def test_translation_invariance(self):
        rng = np.random.default_rng(21)
        g = random_geometry(rng, 5)
        g_shift = ArrayGeometry(g.element_positions + np.array([0.7, -0.3]))
        d = cut_direction(0.5, 0.9)
        assert if_factor(g, 37.5e9, 38.5e9, d) == pytest.approx(
            if_factor(g_shift, 37.5e9, 38.5e9, d), abs=1e-12)

    def test_common_frequency_offset_invariance(self):
        rng = np.random.default_rng(34)
        g = random_geometry(rng, 6)
        d = cut_direction(-0.8, 0.2)
        assert if_factor(g, 37.5e9, 38.5e9, d) == pytest.approx(
            if_factor(g, 39.5e9, 40.5e9, d), abs=1e-12)


class TestRfArrayFactor:
    def test_broadside_unity(self):
        g = ArrayGeometry.planar_grid(4, 2, 0.032, 0.036)
        assert rf_factor(g, 38.5e9, Direction(0.0)) == 1.0

    def test_grating_lobe_at_four_wavelength_spacing(self):
        f = 36e9
        g = ArrayGeometry.linear(2, 4 * C0 / f)
        d = Direction(theta=math.asin(0.25))
        assert rf_factor(g, f, d) == pytest.approx(1.0, abs=1e-12)
        assert math.degrees(d.theta) == pytest.approx(14.48, abs=0.01)

    def test_uniform_array_null(self):
        f = 36e9
        g = ArrayGeometry.linear(4, 0.5 * C0 / f)
        assert rf_factor(g, f, Direction(math.asin(0.5))) < 1e-9

    def test_if_factor_wider_than_rf_factor(self):
        # the RF factor dips into its first null within a few degrees; the
        # IF factor of the same layout never even leaves its main lobe
        g = ArrayGeometry.linear(4, 0.032)
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
        # 64-element sub-layouts are summed
        rng = np.random.default_rng(5)
        summed = random_geometry(rng, 64).with_rf_phase_offsets(
            rng.uniform(-math.pi, math.pi, 64))
        xs = np.cumsum(rng.uniform(0.01, 0.03, 64))
        ys = np.cumsum(rng.uniform(0.01, 0.03, 64))
        product = ArrayGeometry(np.column_stack([
            np.tile(xs, 64), np.repeat(ys, 64)]), np.full(64 * 64, 0.9))
        theta = np.linspace(-math.pi / 2, math.pi / 2,
                            3 * (FACTOR_BLOCK // 64) + 1)
        for g in (summed, product):
            def cut(t):
                if kind == "if":
                    return if_array_factor_cut(g, 37.5e9, 38.5e9, t, 0.4)
                return rf_array_factor_cut(g, 38.5e9, t, 0.4)

            full = cut(theta)
            single = np.array([cut(theta[i:i + 1])[0]
                               for i in range(theta.size)])
            assert np.array_equal(full, single)

    def test_layout_one_short_of_a_product_is_summed(self):
        # a 4 x 4 grid less one element must not take the product route
        pos = ArrayGeometry.planar_grid(4, 4, 0.032, 0.036).element_positions
        g = ArrayGeometry(pos[:-1])
        theta = np.linspace(-math.pi / 2, math.pi / 2, 181)
        phi = 0.6
        for f, af in ((1e9, if_array_factor_cut(g, 37.5e9, 38.5e9, theta, phi)),
                      (38.5e9, rf_array_factor_cut(g, 38.5e9, theta, phi))):
            direct = direct_array_factor(g, f, theta, phi)
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
            direct = direct_array_factor(g, f, theta, phi)
        else:
            af = rf_array_factor_cut(g, f, theta, phi)
            direct = direct_array_factor(g, f, theta, phi, g.rf_phase_offsets)
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
            assert np.max(np.abs(
                af_if - direct_array_factor(g, 1e9, theta, phi))) < 1e-12
            assert np.max(np.abs(af_rf - direct_array_factor(
                g, 38.5e9, theta, phi, g.rf_phase_offsets))) < 1e-12

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
        assert np.max(np.abs(
            af - direct_array_factor(g, 38.5e9, theta, 0.3))) < 1e-8

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
        assert np.max(np.abs(af - direct_array_factor(
            g, 38.5e9, theta, 0.2, g.rf_phase_offsets))) < 1e-12

    def test_overflowing_slopes_raise_before_binning(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("binned a cut whose phases overflow")

        monkeypatch.setattr(arrays, "_phasor_mean", unreachable)
        g = ArrayGeometry([[0.0, 0.0], [1e308, 0.0], [0.5, 0.3]])
        with pytest.raises(ValueError, match="not finite"):
            rf_array_factor_cut(g, 38.5e9, [0.1, 0.2], 0.0)

    def test_phase_count_follows_the_route(self):
        grid = ArrayGeometry.planar_grid(16, 8, 0.032, 0.036)
        assert cut_phase_count(grid, 721) == 721 * (16 + 8)
        # equal feed offsets keep the product route, unequal ones do not
        same = grid.with_rf_phase_offsets(np.full(128, 0.7))
        assert cut_phase_count(same, 721, same.rf_phase_offsets) == 721 * 24
        mixed = grid.with_rf_phase_offsets(np.arange(128.0))
        assert cut_phase_count(mixed, 721) == 721 * 24
        assert cut_phase_count(mixed, 721, mixed.rf_phase_offsets) == 721 * 128
        short = ArrayGeometry(grid.element_positions[:-1])
        assert cut_phase_count(short, 721) == 721 * 127

    def test_empty_cut(self):
        g = ArrayGeometry.linear(3, 0.032)
        assert if_array_factor_cut(g, 37.5e9, 38.5e9, [], 0.0).shape == (0,)


class TestEffectiveSpacing:
    def test_reference_values(self):
        assert effective_spacing(0.032, 1e9, 36e9) == pytest.approx(0.1067, abs=1e-4)
        assert effective_spacing(0.032, 2.5e9, 36e9) == pytest.approx(0.2668, abs=1e-4)

    def test_zero_spacing_for_zero_offset(self):
        assert effective_spacing(0.032, 0.0, 36e9) == 0.0

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(NonPositiveInput):
            effective_spacing(0.0, 1e9, 36e9)
        with pytest.raises(NonPositiveInput):
            effective_spacing(0.032, 1e9, 0.0)
        with pytest.raises(NonPositiveInput):
            effective_spacing(0.032, -1e9, 36e9)


class TestCombineElements:
    def test_eight_cophased(self):
        gain = combine_elements(np.ones(8), np.zeros(8))
        assert gain == pytest.approx(10 * math.log10(8), abs=1e-9)

    def test_antiphase_cancellation(self):
        assert combine_elements([1.0, 1.0], [0.0, math.pi]) == DB_FLOOR

    def test_loss_subtracts(self):
        gain = combine_elements(np.ones(8), np.zeros(8), combiner_loss_db=0.5)
        assert gain == pytest.approx(10 * math.log10(8) - 0.5, abs=1e-9)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            combine_elements([], [])

    def test_cophased_is_optimal(self):
        rng = np.random.default_rng(41)
        best = combine_elements(np.ones(6), np.zeros(6))
        for _ in range(50):
            perturbed = combine_elements(np.ones(6), rng.uniform(-1.0, 1.0, 6))
            assert perturbed <= best + 1e-12


def per_element_oracle(g, ill, gains):
    """The time-domain array oracle one element at a time, through the
    ``signals`` functions: synthesis, squaring, band-pass and DFT."""
    if_freq = ill.if_frequency
    rate, duration = plan_sampling([ill.f1, ill.f2, if_freq])
    band = FilterSpec.band_pass(0.5 * if_freq, 1.5 * if_freq)
    a1, a2 = ill.amplitudes
    phases1 = arrays.element_phases(g, ill.direction, ill.f1) + g.rf_phase_offsets
    phases2 = arrays.element_phases(g, ill.direction, ill.f2) + g.rf_phase_offsets

    def if_tone(tones):
        w = synthesize_waveform(tones, rate, duration)
        mixed = apply_filter(square_law_mix(w), band)
        return dft_spectrum(mixed).amplitude_at(if_freq)

    total = 0.0 + 0.0j
    for k in range(g.element_count):
        g1, g2 = gains[k, 0] * a1, gains[k, 1] * a2
        if g1 != 0.0 and g2 != 0.0:
            total += if_tone([ToneSpec(ill.f1, g1, phases1[k]),
                              ToneSpec(ill.f2, g2, phases2[k])])
    total /= math.sqrt(g.element_count)
    reference = if_tone([ToneSpec(ill.f1, a1), ToneSpec(ill.f2, a2)])
    relative = total / reference
    return (max(DB_FLOOR, 20.0 * math.log10(abs(total) / abs(reference))),
            math.atan2(relative.imag, relative.real))


class TestTimeDomainArray:
    @pytest.mark.parametrize("case", ["random", "grid"])
    def test_equals_per_element_route_bit_for_bit(self, case):
        rng = np.random.default_rng(5)
        if case == "random":
            # RF feed offsets and per-tone gains, one of them 0
            g = ArrayGeometry(rng.uniform(-0.05, 0.05, size=(7, 2)),
                              rng.uniform(-math.pi, math.pi, 7))
            gains = rng.uniform(0.2, 2.0, size=(7, 2))
            gains[3, 1] = 0.0
            directions = [Direction(float(rng.uniform(0.0, math.pi / 2)),
                                    float(rng.uniform(-math.pi, math.pi)))
                          for _ in range(3)]
        else:
            g = ArrayGeometry.planar_grid(4, 2, 0.032, 0.036)
            gains = np.ones((8, 2))
            directions = [Direction(0.0), Direction(0.3, 0.0),
                          cut_direction(-1.2, math.pi / 2)]
        for d in directions:
            ill = TwoToneIllumination(37.5e9, 38.5e9, (1.0, 0.5), d)
            r = simulate_array_timedomain(g, ill, gains)
            power, phase = per_element_oracle(g, ill, gains)
            assert r.if_power_rel_db.hex() == power.hex()
            assert r.if_phase.hex() == phase.hex()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_bad_gain_rejected(self, bad):
        g = ArrayGeometry.linear(3, 0.032)
        ill = TwoToneIllumination(37.5e9, 38.5e9, (1.0, 0.5), Direction(0.2))
        gains = np.ones((3, 2))
        gains[1, 0] = bad
        with pytest.raises(ValueError, match="element gains"):
            simulate_array_timedomain(g, ill, gains)

    @pytest.mark.parametrize("positions", [
        [[0.0, 0.0], [1e300, 0.0]],  # the phase product overflows
        [[-1e308, 0.0], [1e308, 0.0]],  # so does the relative position
    ])
    def test_overflowing_phases_rejected(self, positions):
        g = ArrayGeometry(positions)
        ill = TwoToneIllumination(37.5e9, 38.5e9, (1.0, 0.5),
                                  cut_direction(0.3, 0.0))
        with np.errstate(all="raise"):  # and nothing warns on the way
            with pytest.raises(ValueError, match="element phases overflow"):
                simulate_array_timedomain(g, ill)

    def test_independent_of_array_factor_kernel(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the oracle called the fast path")

        monkeypatch.setattr(arrays, "_array_factor", fail)
        monkeypatch.setattr(arrays, "_phasor_mean", fail)
        g = ArrayGeometry.planar_grid(4, 2, 0.032, 0.036)
        ill = TwoToneIllumination(37.5e9, 38.5e9, (1.0, 0.5), Direction(0.0))
        r = simulate_array_timedomain(g, ill)
        assert r.if_power_rel_db == pytest.approx(10 * math.log10(8), abs=1e-9)

    def test_broadside_gain_is_element_count(self):
        g = ArrayGeometry.planar_grid(4, 2, 0.032, 0.036)
        ill = TwoToneIllumination(37.5e9, 38.5e9, (1.0, 0.5), Direction(0.0))
        r = simulate_array_timedomain(g, ill)
        assert r.if_power_rel_db == pytest.approx(10 * math.log10(8), abs=1e-9)
        assert r.if_phase == pytest.approx(0.0, abs=1e-9)

    def test_matches_if_array_factor(self):
        g = ArrayGeometry.linear(2, 0.032)
        d = cut_direction(math.pi / 2, 0.0)
        ill = TwoToneIllumination(37.5e9, 38.5e9, (1.0, 0.5), d)
        r = simulate_array_timedomain(g, ill)
        af = if_factor(g, 37.5e9, 38.5e9, d)
        assert r.if_power_rel_db - 10 * math.log10(2) == pytest.approx(
            20 * math.log10(af), abs=0.05)

    def test_feed_rotation_cancels_in_self_mixing(self):
        # a 180 degree RF feed rotation applied at both tones leaves the
        # IF signal untouched
        g = ArrayGeometry([[0.0, 0.0]])
        g_flip = g.with_rf_phase_offsets([math.pi])
        ill = TwoToneIllumination(37.5e9, 38.5e9, (1.0, 0.5),
                                  cut_direction(0.4, 0.0))
        base = simulate_array_timedomain(g, ill)
        flip = simulate_array_timedomain(g_flip, ill)
        assert flip.if_power_rel_db == pytest.approx(base.if_power_rel_db,
                                                     abs=1e-9)
        assert flip.if_phase == pytest.approx(base.if_phase, abs=1e-9)

    def test_oracle_equivalence_with_element_patterns(self):
        rng = np.random.default_rng(77)
        theta = np.linspace(-math.pi / 2, math.pi / 2, 19)
        g = random_geometry(rng, 4)
        q1, q2 = 0.8, 1.3
        af_cut = if_array_factor_cut(g, 37.5e9, 38.5e9, theta, 0.0)
        for t, af in zip(theta, af_cut):
            d = cut_direction(float(t), 0.0)
            c1 = max(math.cos(t), 0.0) ** q1
            c2 = max(math.cos(t), 0.0) ** q2
            analytic = af * c1 * c2 * math.sqrt(4)
            if analytic < 1e-6:
                continue
            ill = TwoToneIllumination(37.5e9, 38.5e9, (1.0, 0.5), d)
            gains = np.tile([c1, c2], (4, 1))
            sim = simulate_array_timedomain(g, ill, gains)
            assert sim.if_power_rel_db == pytest.approx(
                20 * math.log10(analytic), abs=0.05)

    def test_gain_shape_validated(self):
        g = ArrayGeometry.linear(2, 0.032)
        ill = TwoToneIllumination(37.5e9, 38.5e9, (1.0, 1.0), Direction(0.0))
        with pytest.raises(ValueError):
            simulate_array_timedomain(g, ill, np.ones(3))
