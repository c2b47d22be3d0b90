import math

import numpy as np
import pytest

from selfmix.errors import (
    CutoffAboveNyquist,
    DegenerateEqualFrequencies,
    EmptyToneList,
    NyquistViolation,
    TooFewSamples,
)
from selfmix.signals import (
    FilterSpec,
    SampledWaveform,
    ToneSpec,
    analytic_two_tone_products,
    apply_filter,
    dft_spectrum,
    plan_sampling,
    spectrum_self_convolution,
    square_law_mix,
    synthesize_waveform,
)

F1 = 37.5e9
F2 = 38.5e9


def two_tone_waveform(a1=1.0, a2=1.0):
    rate, duration = plan_sampling([F1, F2, F2 - F1])
    return synthesize_waveform([ToneSpec(F1, a1), ToneSpec(F2, a2)],
                               rate, duration)


def random_tone_waveform(rng, max_tones=5, n=1024):
    count = int(rng.integers(1, max_tones + 1))
    bins = rng.choice(np.arange(4, n // 8), size=count, replace=False)
    tones = [ToneSpec(float(b), float(rng.uniform(0.1, 1.0)),
                      float(rng.uniform(-math.pi, math.pi))) for b in bins]
    return synthesize_waveform(tones, float(n), 1.0)


class TestToneSpec:
    def test_phase_normalized(self):
        assert ToneSpec(1.0, 1.0, 3 * math.pi).phase == pytest.approx(math.pi - 2 * math.pi)
        assert -math.pi <= ToneSpec(1.0, 1.0, -7.0).phase < math.pi

    def test_invariants(self):
        with pytest.raises(ValueError):
            ToneSpec(0.0, 1.0)
        with pytest.raises(ValueError):
            ToneSpec(1.0, -0.1)


class TestSynthesize:
    def test_quarter_period_of_unit_sine(self):
        w = synthesize_waveform([ToneSpec(1.0, 1.0)], 16.0, 1.0)
        # sample 4 sits a quarter period into the record
        assert w.samples[4] == pytest.approx(1.0, abs=1e-12)

    def test_two_tone_squares_to_difference_tone(self):
        w = two_tone_waveform()
        low = apply_filter(square_law_mix(w), FilterSpec.low_pass(5e9))
        spec = dft_spectrum(low)
        assert abs(spec.amplitude_at(1e9)) == pytest.approx(1.0, abs=1e-9)

    def test_empty_tone_list(self):
        with pytest.raises(EmptyToneList):
            synthesize_waveform([], 16.0, 1.0)

    def test_nyquist_violation(self):
        with pytest.raises(NyquistViolation):
            synthesize_waveform([ToneSpec(10.0, 1.0)], 20.0, 10.0)

    def test_record_below_one_period(self):
        with pytest.raises(ValueError):
            synthesize_waveform([ToneSpec(1.0, 1.0)], 64.0, 1.0 / 2.0)


class TestSquareLawMix:
    def test_zero_waveform(self):
        w = SampledWaveform(64.0, np.zeros(64))
        assert np.all(square_law_mix(w).samples == 0.0)

    def test_sine_squared_identity(self):
        w = synthesize_waveform([ToneSpec(4.0, 1.0)], 64.0, 1.0)
        spec = dft_spectrum(square_law_mix(w))
        assert abs(spec.amplitude_at(0.0)) == pytest.approx(0.5, abs=1e-12)
        assert abs(spec.amplitude_at(8.0)) == pytest.approx(0.5, abs=1e-12)

    def test_two_tone_products(self):
        spec = dft_spectrum(square_law_mix(two_tone_waveform(1.0, 0.5)))
        # cross term carries the full a1*a2 product
        assert abs(spec.amplitude_at(1e9)) == pytest.approx(0.5, abs=1e-9)
        assert abs(spec.amplitude_at(0.0)) == pytest.approx(0.625, abs=1e-9)

    def test_output_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            w = random_tone_waveform(rng)
            assert np.all(square_law_mix(w).samples >= 0.0)

    def test_rate_too_low_for_square(self):
        # tone at 3/8 of the rate: representable, but its square is not
        w = synthesize_waveform([ToneSpec(24.0, 1.0)], 64.0, 1.0)
        with pytest.raises(NyquistViolation):
            square_law_mix(w)


class TestApplyFilter:
    def test_passthrough_above_content(self):
        w = two_tone_waveform()
        out = apply_filter(w, FilterSpec.low_pass(100e9))
        rms = math.sqrt(np.mean((out.samples - w.samples) ** 2))
        assert rms < 1e-12

    def test_low_pass_keeps_dc_and_if(self):
        low = apply_filter(square_law_mix(two_tone_waveform()),
                           FilterSpec.low_pass(5e9))
        spec = dft_spectrum(low)
        mags = spec.magnitudes
        keep = np.zeros_like(mags, dtype=bool)
        keep[spec.bin_index(0.0)] = True
        keep[spec.bin_index(1e9)] = True
        assert np.all(mags[~keep] < 1e-12)
        assert mags[spec.bin_index(1e9)] == pytest.approx(1.0, abs=1e-9)

    def test_band_pass_removes_dc(self):
        band = apply_filter(square_law_mix(two_tone_waveform()),
                            FilterSpec.band_pass(0.5e9, 1.5e9))
        spec = dft_spectrum(band)
        assert abs(spec.amplitude_at(0.0)) < 1e-12
        assert abs(spec.amplitude_at(1e9)) == pytest.approx(1.0, abs=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        w = random_tone_waveform(rng)
        spec = FilterSpec.band_pass(10.0, 60.0)
        once = apply_filter(w, spec)
        twice = apply_filter(once, spec)
        rms = math.sqrt(np.mean((twice.samples - once.samples) ** 2))
        assert rms < 1e-12

    def test_cutoff_above_nyquist(self):
        w = SampledWaveform(64.0, np.zeros(64))
        with pytest.raises(CutoffAboveNyquist):
            apply_filter(w, FilterSpec.low_pass(40.0))

    def test_filter_spec_invariants(self):
        with pytest.raises(ValueError):
            FilterSpec.band_pass(5.0, 4.0)
        with pytest.raises(ValueError):
            FilterSpec("high_pass", 4.0)


class TestDftSpectrum:
    def test_unit_tone_exact_bin(self):
        w = synthesize_waveform([ToneSpec(5.0, 1.0)], 64.0, 1.0)
        spec = dft_spectrum(w)
        mags = spec.magnitudes
        k = spec.bin_index(5.0)
        assert mags[k] == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.delete(mags, k) < 1e-10)

    def test_dc_only(self):
        spec = dft_spectrum(SampledWaveform(64.0, np.full(64, 0.37)))
        assert abs(spec.amplitude_at(0.0)) == pytest.approx(0.37, abs=1e-12)

    def test_two_tone_linearity(self):
        w = synthesize_waveform([ToneSpec(3.0, 0.3), ToneSpec(7.0, 0.7)],
                                64.0, 1.0)
        spec = dft_spectrum(w)
        assert abs(spec.amplitude_at(3.0)) == pytest.approx(0.3, abs=1e-10)
        assert abs(spec.amplitude_at(7.0)) == pytest.approx(0.7, abs=1e-10)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            SampledWaveform(64.0, np.zeros(8))

    def test_parseval(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            w = random_tone_waveform(rng)
            spec = dft_spectrum(w)
            mags = spec.magnitudes
            spectral = (mags[0] ** 2 + 0.5 * np.sum(mags[1:-1] ** 2)
                        + mags[-1] ** 2)
            time = np.mean(w.samples ** 2)
            assert spectral == pytest.approx(time, rel=1e-9)


class TestSelfConvolution:
    def test_single_tone(self):
        w = synthesize_waveform([ToneSpec(5.0, 1.0)], 64.0, 1.0)
        out = spectrum_self_convolution(dft_spectrum(w))
        assert abs(out.amplitude_at(0.0)) == pytest.approx(0.5, abs=1e-12)
        assert abs(out.amplitude_at(10.0)) == pytest.approx(0.5, abs=1e-12)
        mags = out.magnitudes
        others = np.delete(mags, [out.bin_index(0.0), out.bin_index(10.0)])
        assert np.all(others < 1e-12)

    def test_carrier_plus_band_downconversion(self):
        # carrier at f1, information band in [(f1+f2)/2, f2]: the mixed
        # spectrum carries the band into [(f2-f1)/2, f2-f1]
        f1, f2 = 40.0, 60.0
        band = [51.0, 54.0, 57.0, 59.0]
        tones = [ToneSpec(f1, 1.0)] + [ToneSpec(f, 0.2) for f in band]
        w = synthesize_waveform(tones, 256.0, 1.0)
        out = spectrum_self_convolution(dft_spectrum(w))
        for f in band:
            assert (f2 - f1) / 2 <= f - f1 <= f2 - f1
            assert abs(out.amplitude_at(f - f1)) == pytest.approx(0.2, abs=1e-9)

    def test_matches_time_domain_squaring(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            w = random_tone_waveform(rng, max_tones=3)
            direct = dft_spectrum(square_law_mix(w))
            conv = spectrum_self_convolution(dft_spectrum(w))
            m = direct.complex_amplitudes.size
            scale = np.abs(direct.complex_amplitudes).max()
            assert np.allclose(conv.complex_amplitudes[:m],
                               direct.complex_amplitudes,
                               rtol=0.0, atol=1e-9 * scale)
            # nothing beyond the direct range either
            assert np.all(np.abs(conv.complex_amplitudes[m:]) < 1e-9 * scale)

    def test_bins_are_multiples_of_the_resolution(self):
        # DC first, then one resolution per bin, bit for bit
        w = two_tone_waveform()
        direct = dft_spectrum(w)
        conv = spectrum_self_convolution(direct)
        assert direct.resolution == w.sample_rate / w.size
        assert direct.complex_amplitudes.size == w.size // 2 + 1
        assert conv.complex_amplitudes.size == w.size + 1
        for s in (direct, conv):
            n = s.complex_amplitudes.size
            assert s.bin_frequencies.tobytes() == (
                np.arange(n) * s.resolution).tobytes()


class TestTwoToneProducts:
    def test_unit_amplitudes_dc(self):
        p = analytic_two_tone_products(ToneSpec(F1, 1.0), ToneSpec(F2, 1.0))
        assert p.dc == pytest.approx(1.0)

    def test_single_tone_degenerate_amplitude(self):
        p = analytic_two_tone_products(ToneSpec(F1, 1.0), ToneSpec(F2, 0.0))
        assert p.if_amplitude == 0.0
        assert p.dc == pytest.approx(0.5)

    def test_matches_time_domain(self):
        p = analytic_two_tone_products(ToneSpec(F1, 1.0), ToneSpec(F2, 0.5))
        spec = dft_spectrum(square_law_mix(two_tone_waveform(1.0, 0.5)))
        assert abs(spec.amplitude_at(p.if_frequency)) == pytest.approx(
            p.if_amplitude, abs=1e-9)
        assert abs(spec.amplitude_at(0.0)) == pytest.approx(p.dc, abs=1e-9)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            t1 = ToneSpec(float(rng.integers(1, 50)), float(rng.uniform(0, 2)),
                          float(rng.uniform(-3, 3)))
            t2 = ToneSpec(float(rng.integers(51, 99)), float(rng.uniform(0, 2)),
                          float(rng.uniform(-3, 3)))
            a = analytic_two_tone_products(t1, t2)
            b = analytic_two_tone_products(t2, t1)
            assert a.if_amplitude == pytest.approx(b.if_amplitude)
            assert a.if_frequency == b.if_frequency
            assert a.if_phase == pytest.approx(b.if_phase)

    def test_equal_frequencies_rejected(self):
        with pytest.raises(DegenerateEqualFrequencies):
            analytic_two_tone_products(ToneSpec(F1, 1.0), ToneSpec(F1, 1.0))

    def test_phase_carried_through(self):
        t1 = ToneSpec(10.0, 1.0, 0.7)
        t2 = ToneSpec(6.0, 1.0, 0.2)
        p = analytic_two_tone_products(t1, t2)
        w = synthesize_waveform([t1, t2], 128.0, 1.0)
        spec = dft_spectrum(square_law_mix(w))
        amp = spec.amplitude_at(4.0)
        # one-sided convention: a cosine tone's bin carries its phase directly
        assert math.cos(p.if_phase) == pytest.approx(
            amp.real / abs(amp), abs=1e-9)


def test_plan_sampling_covers_square():
    rate, duration = plan_sampling([F1, F2, 1e9])
    assert rate > 4 * F2
    for f in (F1, F2, 1e9):
        bins = f * duration
        assert bins == pytest.approx(round(bins), abs=1e-6)


@pytest.mark.parametrize("frequencies, common", [
    ([F1, F2, 1e9], 500_000_000),
    ([34e9, 35e9, 1e9], 1_000_000_000),
    ([37.5e9, 37.501e9, 1e6], 1_000_000),
    ([10.0, 6.0, 4.0], 2),
    ([7.0], 7),
    ([3.0, 5.0], 1),
])
def test_plan_sampling_is_one_common_period(frequencies, common):
    rate, duration = plan_sampling(frequencies)
    assert duration == 1.0 / common
    n = rate / common
    assert n == 2 ** round(math.log2(n)) and n >= 16
    # the smallest such length: half of it would sample too slowly
    assert rate > 4 * max(frequencies)
    assert n == 16 or rate / 2 <= 4 * max(frequencies)


def test_one_period_bins_equal_two_period_bins():
    # any memoryless function of a periodic record repeats with it, so the
    # DC and IF bins of one common period equal those of two
    rng = np.random.default_rng(61)
    for _ in range(40):
        freqs = rng.choice(np.arange(1, 600), size=int(rng.integers(2, 4)),
                           replace=False).astype(float)
        tones = [ToneSpec(f, float(rng.uniform(0.1, 1.0)),
                          float(rng.uniform(-math.pi, math.pi)))
                 for f in freqs]
        if_frequency = abs(freqs[1] - freqs[0])
        rate, duration = plan_sampling(list(freqs) + [if_frequency],
                                       oversample=24.0)
        for detector in (lambda x: x * x, np.expm1):
            bins = []
            for periods in (1, 2):
                w = synthesize_waveform(tones, rate, periods * duration)
                s = dft_spectrum(SampledWaveform(rate, detector(w.samples)))
                bins.append([s.amplitude_at(0.0), s.amplitude_at(if_frequency)])
            for one, two in zip(*bins):
                assert abs(one - two) <= 1e-12 * abs(two)


def test_plan_sampling_rejects_fractional_hz():
    with pytest.raises(NyquistViolation):
        plan_sampling([10.0, 10.5])
