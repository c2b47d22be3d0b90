import ast
import math
from pathlib import Path

import numpy as np
import pytest

import selfmix
from selfmix.signals import (
    check_tones,
    dft_spectrum,
    plan_sampling,
    synthesize_waveform,
)
from selfmix.validation import spectrum_self_convolution

F1 = 37.5e9
F2 = 38.5e9


def two_tone_record(a1=1.0, a2=1.0):
    """The F1 / F2 pair on its planned record, and the record's bin of the
    difference tone (bin k of a one-period record holds k / duration Hz)."""
    rate, duration = plan_sampling([F1, F2, F2 - F1])
    w = synthesize_waveform([a1, a2], [F1, F2], 0.0, rate,
                            round(rate * duration))
    return w, round((F2 - F1) * duration)


def random_tone_record(rng, max_tones=5, n=1024):
    count = int(rng.integers(1, max_tones + 1))
    bins = rng.choice(np.arange(4, n // 8), size=count, replace=False)
    amplitudes, phases = np.array([
        (rng.uniform(0.1, 1.0), rng.uniform(-math.pi, math.pi))
        for _ in bins]).T
    return synthesize_waveform(amplitudes, bins, phases, float(n), n)


class TestToneSpec:
    """The tone checks of synthesize_waveform (check_tones)."""

    def test_phase_normalized(self):
        assert check_tones([1.0], [1.0], 3 * math.pi)[2][0] == pytest.approx(
            math.pi - 2 * math.pi)
        assert -math.pi <= check_tones([1.0], [1.0], -7.0)[2][0] < math.pi
        # the record holds the sines of the wrapped phases
        wrapped = check_tones([1.0], [1.0], -7.0)[2]
        assert synthesize_waveform([1.0], [1.0], -7.0, 16.0, 16).tobytes() == (
            synthesize_waveform([1.0], [1.0], wrapped, 16.0, 16).tobytes())

    def test_invariants(self):
        for amplitudes, frequencies, phases, message in [
                ([1.0], [0.0], 0.0, "frequency must be positive"),
                ([1.0], [math.inf], 0.0, "frequency must be positive"),
                ([-0.1], [1.0], 0.0, "finite and >= 0"),
                ([math.nan], [1.0], 0.0, "finite and >= 0"),
                ([1.0], [1.0], math.inf, "phases must be finite"),
                ([1.0, 1.0], [1.0, 2.0], [0.0, 0.0, 0.0], "one phase per tone"),
                ([[1.0]], [1.0, 2.0], 0.0, r"shape \(\.\.\., 2\)")]:
            with pytest.raises(ValueError, match=message):
                synthesize_waveform(amplitudes, frequencies, phases, 16.0, 16)


class TestSynthesize:
    def test_quarter_period_of_unit_sine(self):
        w = synthesize_waveform([1.0], [1.0], 0.0, 16.0, 16)
        # sample 4 sits a quarter period into the record
        assert w[4] == pytest.approx(1.0, abs=1e-12)

    def test_two_tone_squares_to_difference_tone(self):
        w, k = two_tone_record()
        assert abs(dft_spectrum(w * w)[k]) == pytest.approx(1.0, abs=1e-9)

    def test_empty_tone_list(self):
        with pytest.raises(ValueError, match="need at least one tone"):
            synthesize_waveform([], [], 0.0, 16.0, 16)

    def test_nyquist_violation(self):
        # a 10 Hz tone sits on the Nyquist bin 100 at a 20 Hz rate, above
        # it at 19 Hz, and on no bin at a rate of 0, below 0 or NaN
        for rate in (20.0, 19.0, 0.0, -20.0, math.nan):
            with pytest.raises(ValueError, match=r"tone 10.0 Hz lies off the "
                                                 r"bins 1 \.\. 99 of 200"):
                synthesize_waveform([1.0], [10.0], 0.0, rate, 200)

    def test_record_below_one_period(self):
        # half a period: the tone lies below bin 1
        with pytest.raises(ValueError, match=r"tone 1.0 Hz lies off the bins "
                                             r"1 \.\. 15 of 32 samples"):
            synthesize_waveform([1.0], [1.0], 0.0, 64.0, 32)


class TestSquareLawMix:
    """Square-law mixing is the square of the record, ``w * w``."""

    def test_zero_waveform(self):
        w = synthesize_waveform([0.0, 0.0], [4.0, 8.0], 0.0, 64.0, 64)
        assert not w.any()
        assert not dft_spectrum(w * w).any()

    def test_sine_squared_identity(self):
        w = synthesize_waveform([1.0], [4.0], 0.0, 64.0, 64)
        dc, double = np.abs(dft_spectrum(w * w)[[0, 8]])
        assert dc == pytest.approx(0.5, abs=1e-12)
        assert double == pytest.approx(0.5, abs=1e-12)

    def test_two_tone_products(self):
        w, k = two_tone_record(1.0, 0.5)
        dc, difference = np.abs(dft_spectrum(w * w)[[0, k]])
        # cross term carries the full a1*a2 product
        assert difference == pytest.approx(0.5, abs=1e-9)
        assert dc == pytest.approx(0.625, abs=1e-9)

    def test_difference_tone_carries_the_phase_difference(self):
        # (sin(x + p1) + sin(y + p2))**2 holds cos(x - y + p1 - p2); the
        # one-sided bin of a cosine tone carries its phase directly
        w = synthesize_waveform([1.0, 1.0], [10.0, 6.0], [0.7, 0.2], 128.0,
                                128)
        amp = dft_spectrum(w * w)[4]
        assert amp == pytest.approx(complex(math.cos(0.5), math.sin(0.5)),
                                    abs=1e-9)

    def test_output_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            w = random_tone_record(rng)
            assert np.all(w * w >= 0.0)


class TestTwoToneProducts:
    def test_matches_time_domain(self):
        # (a1 sin(x + p1) + a2 sin(y + p2))**2 holds (a1**2 + a2**2) / 2 at
        # DC and a1*a2 cos(x - y + p1 - p2) at the difference tone;
        # f1 - f2 > 2 * f2 keeps that tone off every other product's bin
        rng = np.random.default_rng(5)
        for _ in range(20):
            f1 = float(rng.integers(76, 100))
            f2 = float(rng.integers(1, 25))
            a1, a2 = rng.uniform(0.0, 2.0, size=2)
            p1, p2 = rng.uniform(-3.0, 3.0, size=2)
            w = synthesize_waveform([a1, a2], [f1, f2], [p1, p2], 512.0, 512)
            dc, difference = dft_spectrum(w * w)[[0, round(f1 - f2)]]
            assert abs(dc) == pytest.approx((a1 * a1 + a2 * a2) / 2, abs=1e-9)
            assert difference == pytest.approx(
                a1 * a2 * complex(math.cos(p1 - p2), math.sin(p1 - p2)),
                abs=1e-9)


class TestDftSpectrum:
    def test_unit_tone_exact_bin(self):
        w = synthesize_waveform([1.0], [5.0], 0.0, 64.0, 64)
        mags = np.abs(dft_spectrum(w))
        assert mags[5] == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.delete(mags, 5) < 1e-10)

    def test_dc_only(self):
        dc = dft_spectrum(np.full(64, 0.37))[0]
        assert abs(dc) == pytest.approx(0.37, abs=1e-12)

    def test_two_tone_linearity(self):
        w = synthesize_waveform([0.3, 0.7], [3.0, 7.0], 0.0, 64.0, 64)
        low, high = np.abs(dft_spectrum(w)[[3, 7]])
        assert low == pytest.approx(0.3, abs=1e-10)
        assert high == pytest.approx(0.7, abs=1e-10)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="needs >= 16 samples"):
            synthesize_waveform([1.0], [1.0], 0.0, 8.0, 8)
        with pytest.raises(ValueError, match="needs >= 16 samples"):
            dft_spectrum(np.zeros(8))

    def test_too_many_samples(self):
        # refused before the record is allocated
        with pytest.raises(ValueError, match="needs <= 1048576 samples, "
                                             "got 1048577"):
            synthesize_waveform([1.0], [1.0], 0.0, 8.0, (1 << 20) + 1)

    def test_nyquist_bin_is_not_doubled(self):
        # (-1)**i is a cosine at the Nyquist rate, read with its amplitude
        w = np.cos(math.pi * np.arange(64))
        assert dft_spectrum(w)[32] == pytest.approx(1.0, abs=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            w = random_tone_record(rng)
            mags = np.abs(dft_spectrum(w))
            spectral = (mags[0] ** 2 + 0.5 * np.sum(mags[1:-1] ** 2)
                        + mags[-1] ** 2)
            time = np.mean(w ** 2)
            assert spectral == pytest.approx(time, rel=1e-9)


class TestSelfConvolution:
    def test_single_tone(self):
        w = synthesize_waveform([1.0], [5.0], 0.0, 64.0, 64)
        mags = np.abs(spectrum_self_convolution(dft_spectrum(w)))
        assert mags[0] == pytest.approx(0.5, abs=1e-12)
        assert mags[10] == pytest.approx(0.5, abs=1e-12)
        assert np.all(np.delete(mags, [0, 10]) < 1e-12)

    def test_carrier_plus_band_downconversion(self):
        # carrier at f1, information band in [(f1+f2)/2, f2]: the mixed
        # spectrum carries the band into [(f2-f1)/2, f2-f1]; on a 1 s
        # record bin k holds k Hz
        f1, f2 = 40.0, 60.0
        band = [51.0, 54.0, 57.0, 59.0]
        w = synthesize_waveform([1.0] + [0.2] * len(band), [f1] + band, 0.0,
                                256.0, 256)
        out = spectrum_self_convolution(dft_spectrum(w))
        for f in band:
            assert (f2 - f1) / 2 <= f - f1 <= f2 - f1
            assert abs(out[round(f - f1)]) == pytest.approx(0.2, abs=1e-9)

    def test_matches_time_domain_squaring(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            w = random_tone_record(rng, max_tones=3)
            direct = dft_spectrum(w * w)
            conv = spectrum_self_convolution(dft_spectrum(w))
            m = direct.size
            scale = np.abs(direct).max()
            assert np.allclose(conv[:m], direct, rtol=0.0, atol=1e-9 * scale)
            # nothing beyond the direct range either
            assert np.all(np.abs(conv[m:]) < 1e-9 * scale)

    def test_bins_are_multiples_of_the_resolution(self):
        # an n-sample record reads n // 2 + 1 bins from DC, its
        # self-convolution twice the range at the same resolution: F1 sits
        # at bin F1 * duration of both, its square term at twice that
        rate, duration = plan_sampling([F1, F2, F2 - F1])
        w, _ = two_tone_record()
        direct = dft_spectrum(w)
        conv = spectrum_self_convolution(direct)
        assert direct.size == w.size // 2 + 1
        assert conv.size == w.size + 1
        k = round(F1 * duration)
        assert abs(direct[k]) == pytest.approx(1.0, abs=1e-9)
        assert abs(conv[2 * k]) == pytest.approx(0.5, abs=1e-9)


def test_only_signals_transforms_records():
    # the one-sided bin convention lives in signals.dft_spectrum: no other
    # module of the package calls numpy's FFT
    users = []
    for path in sorted(Path(selfmix.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names]
                     if isinstance(node, (ast.Import, ast.ImportFrom)) else [])
            if isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            if ((isinstance(node, ast.Attribute) and node.attr == "fft")
                    or any(n.split(".")[-1] == "fft" for n in names)):
                users.append(path.name)
    assert set(users) == {"signals.py"}


def test_only_cli_imports_validation():
    # the reference routes live in validation beside their checks: a fast
    # path that imported them could end up checked against itself
    users = []
    for path in sorted(Path(selfmix.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module or ''}.{a.name}" for a in node.names]
            else:
                continue
            if any("validation" in n.split(".") for n in names):
                users.append(path.name)
    assert set(users) == {"cli.py"}


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
        amplitudes, phases = np.array([
            (rng.uniform(0.1, 1.0), rng.uniform(-math.pi, math.pi))
            for _ in freqs]).T
        if_frequency = abs(freqs[1] - freqs[0])
        rate, duration = plan_sampling(list(freqs) + [if_frequency])
        for detector in (lambda x: x * x, np.expm1):
            bins = []
            for periods in (1, 2):
                samples = round(periods * duration * rate)
                w = synthesize_waveform(amplitudes, freqs, phases, rate,
                                        samples)
                bins.append(dft_spectrum(detector(w))[
                    [0, round(if_frequency * periods * duration)]])
            for one, two in zip(*bins):
                assert abs(one - two) <= 1e-12 * abs(two)


def test_plan_sampling_rejects_fractional_hz():
    with pytest.raises(ValueError, match="not an integer number of hertz"):
        plan_sampling([10.0, 10.5])


def test_plan_sampling_refuses_a_tone_below_half_a_hertz():
    # 1e-10 Hz rounds to 0 Hz, which no record holds: refused and named,
    # not left out of the gcd
    with pytest.raises(ValueError, match=r"^frequency 1e-10 Hz is not an "
                       r"integer number of hertz >= 1;"):
        plan_sampling([5.0, 1e-10])


@pytest.mark.parametrize("frequencies, plan", [
    # one common period of the exact gcd 2^63 Hz, 16 samples
    ([2.0 ** 63, 3 * 2.0 ** 63], (2.0 ** 67, 2.0 ** -63)),
    ([2.0 ** 64, 2.0 ** 63], (2.0 ** 67, 2.0 ** -63)),
])
def test_plan_sampling_is_exact_past_int64(frequencies, plan):
    assert plan_sampling(frequencies) == plan


def test_plan_sampling_refuses_a_rate_past_the_float_range():
    with pytest.raises(ValueError, match=r"^a sample rate of 16 x the "
                                         r"2\.5e\+307 Hz common grid passes"):
        plan_sampling([2.5e307])


def test_plan_sampling_refuses_a_grid_past_int64_too_fine():
    # a 4096 Hz gcd of tones near 2^64 Hz needs 2^56 samples
    with pytest.raises(ValueError, match="share no common grid"):
        plan_sampling([2.0 ** 64, 2.0 ** 64 + 4096.0])


def test_plan_depends_on_the_whole_hertz_only():
    # a top tone just below its whole hertz plans as the whole hertz, so
    # its bin stays below Nyquist at the least oversampling
    tones = [7.0, 8.0 - 4e-9]
    assert plan_sampling(tones, 2.0) == plan_sampling([7.0, 8.0], 2.0)
    rate, duration = plan_sampling(tones, 2.0)
    synthesize_waveform([1.0, 1.0], tones, 0.0, rate, round(rate * duration))


@pytest.mark.parametrize("oversample", [1.9, 0.0, -4.0, math.nan, math.inf])
def test_plan_sampling_refuses_oversampling_below_two(oversample):
    # below 2 a tone could sit at or past the Nyquist bin of its plan
    with pytest.raises(ValueError, match="need a finite oversample >= 2"):
        plan_sampling([5.0, 7.0], oversample)


@pytest.mark.parametrize("bad", [-3.0, 0.0, math.nan, math.inf])
def test_plan_sampling_names_a_bad_frequency(bad):
    # a tone that is not positive and finite is refused, not dropped, and
    # the first one is named
    with pytest.raises(ValueError,
                       match=f"frequency {bad} Hz is not positive and finite"):
        plan_sampling([5.0, bad, -1.0])
