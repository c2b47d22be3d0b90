"""Multi-tone waveforms, square-law mixing and DFT tone extraction.

This module is the numerical ground truth for the rest of the package: the
closed-form mixer and array results elsewhere are all checked against
time-domain squaring plus DFT extraction performed here. No filter stands
between the two: on a record from :func:`plan_sampling` every mixing product
falls on an exact bin and leaks into no other, so each is read from its bin.

Spectral convention: one-sided amplitude spectrum, i.e. a sine tone of peak
amplitude ``a`` shows up in :func:`dft_spectrum` with ``|complex_amplitude|
== a`` at its bin, and a DC offset ``c`` shows up with magnitude ``c`` at the
DC bin. Energy therefore reads ``dc**2 + sum(|a_k|**2) / 2``. Tones that do
not fall on an exact DFT bin leak into neighbouring bins as usual; production
code accepts any frequency, but exact results are only guaranteed on-bin
(see :func:`plan_sampling`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

_TWO_PI = 2.0 * math.pi

MIN_SAMPLES = 16
"""Smallest waveform length a :class:`SampledWaveform` accepts."""

MAX_SAMPLES = 1 << 20
"""Longest record :func:`plan_sampling` chooses (and the longest the
``spectrum`` subcommand repeats one to)."""


def _norm_phase(phase: float) -> float:
    """Wrap a phase into [-pi, pi)."""
    return (phase + math.pi) % _TWO_PI - math.pi


@dataclass(frozen=True)
class ToneSpec:
    """A single sine tone: ``amplitude * sin(2*pi*frequency*t + phase)``."""

    frequency: float
    amplitude: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not (self.frequency > 0.0 and math.isfinite(self.frequency)):
            raise ValueError(f"tone frequency must be positive, got {self.frequency}")
        if not (self.amplitude >= 0.0 and math.isfinite(self.amplitude)):
            raise ValueError(f"tone amplitude must be >= 0, got {self.amplitude}")
        object.__setattr__(self, "phase", _norm_phase(self.phase))


@dataclass(frozen=True)
class SampledWaveform:
    """Uniformly sampled real voltage waveform."""

    sample_rate: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        if self.sample_rate <= 0.0:
            raise ValueError("sample_rate must be positive")
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if samples.size < MIN_SAMPLES:
            raise ValueError(
                f"waveform needs >= {MIN_SAMPLES} samples, got {samples.size}")
        samples = samples.copy()
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @property
    def size(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class Spectrum:
    """One-sided amplitude spectrum: bin ``k`` holds ``k * resolution``
    Hz, starting at DC."""

    complex_amplitudes: np.ndarray
    resolution: float

    def __post_init__(self) -> None:
        amps = np.asarray(self.complex_amplitudes, dtype=complex)
        if amps.ndim != 1:
            raise ValueError("complex_amplitudes must be a 1-D array")
        if amps.size < 2:
            raise ValueError("spectrum needs at least two bins")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "complex_amplitudes", amps)

    @property
    def bin_frequencies(self) -> np.ndarray:
        return np.arange(self.complex_amplitudes.size) * self.resolution

    @property
    def magnitudes(self) -> np.ndarray:
        return np.abs(self.complex_amplitudes)

    def bin_index(self, frequency: float) -> int:
        """Index of the bin holding ``frequency`` (must be on-grid)."""
        idx = frequency / self.resolution
        k = int(round(idx))
        if abs(idx - k) > 1e-6 or not (0 <= k < self.complex_amplitudes.size):
            raise ValueError(
                f"{frequency} Hz is not a bin of this spectrum "
                f"(resolution {self.resolution} Hz)")
        return k

    def amplitude_at(self, frequency: float) -> complex:
        return complex(self.complex_amplitudes[self.bin_index(frequency)])


def synthesize_waveform(tones: Sequence[ToneSpec], sample_rate: float,
                        duration: float) -> SampledWaveform:
    """Sum-of-sines synthesis on a uniform time grid.

    ``samples[i] = sum_k a_k * sin(2*pi*f_k*t_i + phi_k)`` with
    ``t_i = i / sample_rate``.

    Raises ``ValueError`` when no tones are given or when
    ``sample_rate <= 2 * max(f_k)``. The
    record must span at least one full period of the slowest tone; the
    one-common-period records that :func:`plan_sampling` produces put every
    tone and every mixing product of the tones on an exact bin.
    """
    tones = list(tones)
    if not tones:
        raise ValueError("need at least one tone")
    f_max = max(t.frequency for t in tones)
    f_min = min(t.frequency for t in tones)
    if sample_rate <= 2.0 * f_max:
        raise ValueError(
            f"sample rate {sample_rate} Hz cannot represent a {f_max} Hz tone")
    if duration * f_min < 1.0 - 1e-12:
        raise ValueError(
            f"duration {duration} s does not cover one period of the "
            f"{f_min} Hz tone")
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    samples = np.zeros(n)
    for tone in tones:
        samples += tone.amplitude * np.sin(_TWO_PI * tone.frequency * t + tone.phase)
    return SampledWaveform(sample_rate=sample_rate, samples=samples)


def square_law_mix(w: SampledWaveform) -> SampledWaveform:
    """Point-wise squaring, the ideal square-law detector.

    Content up to ``f_max`` squares to products up to ``2*f_max``, so the
    record must be sampled above ``4*f_max`` for no product to alias;
    :func:`plan_sampling`'s default oversampling guarantees this.
    """
    return SampledWaveform(sample_rate=w.sample_rate,
                           samples=w.samples * w.samples)


def dft_spectrum(w: SampledWaveform) -> Spectrum:
    """One-sided amplitude spectrum of a waveform.

    Scaled so that an on-bin tone of amplitude ``a`` gives a bin magnitude of
    exactly ``a`` and a DC level ``c`` gives DC-bin magnitude ``c``;
    ``resolution = sample_rate / len(samples)``.
    """
    n = w.samples.size
    amps = np.fft.rfft(w.samples) / n
    amps[1:] *= 2.0
    if n % 2 == 0:
        amps[-1] /= 2.0  # Nyquist bin is not mirrored
    return Spectrum(complex_amplitudes=amps, resolution=w.sample_rate / n)


def spectrum_self_convolution(s: Spectrum) -> Spectrum:
    """Spectrum of the squared signal, computed without leaving the
    frequency domain.

    Squaring in time is convolution of the two-sided voltage spectrum with
    itself; the one-sided input is expanded to its conjugate-symmetric
    two-sided form, convolved, and folded back. The output keeps the input
    resolution and doubles the bin range.
    """
    one_sided = s.complex_amplitudes
    m = one_sided.size - 1
    # two-sided line spectrum: index m is DC, a tone of amplitude a
    # contributes a/2 at +f and conj(a)/2 at -f
    lines = np.empty(2 * m + 1, dtype=complex)
    lines[m] = one_sided[0]
    lines[m + 1:] = one_sided[1:] / 2.0
    lines[:m] = np.conj(one_sided[1:])[::-1] / 2.0
    product = np.convolve(lines, lines)
    centre = 2 * m  # DC index of the full convolution
    out = np.empty(2 * m + 1, dtype=complex)
    out[0] = product[centre]
    out[1:] = 2.0 * product[centre + 1:]
    return Spectrum(complex_amplitudes=out, resolution=s.resolution)


def plan_sampling(frequencies: Iterable[float],
                  oversample: float = 4.0) -> tuple[float, float]:
    """Choose ``(sample_rate, duration)`` putting every frequency on an exact
    DFT bin with rate above ``oversample`` times the highest one.

    ``oversample`` defaults to the square-law minimum (content at ``f`` maps
    to ``2 f``, Nyquist needs another factor 2); stronger nonlinearities
    produce higher-order products that alias, and a larger factor pushes any
    alias landing on a low-frequency bin to correspondingly higher (weaker)
    product orders.

    Frequencies must be (near-)integer in Hz; the common grid is their gcd
    ``res`` and the record is one common period: ``(n * res, 1 / res)`` with
    ``n`` the smallest power of two that samples fast enough. Any periodic
    waveform over these frequencies, and any memoryless function of one,
    repeats after that period, so a longer record only repeats the samples
    and leaves every bin of the grid unchanged. Raises
    ``ValueError`` if ``n`` would exceed :data:`MAX_SAMPLES`
    (wildly incommensurate frequencies).
    """
    freqs = [float(f) for f in frequencies if f > 0.0]
    if not freqs:
        raise ValueError("need at least one positive frequency")
    as_int = []
    for f in freqs:
        k = round(f)
        if abs(f - k) > 1e-9 * max(f, 1.0):
            raise ValueError(
                f"frequency {f} Hz is not an integer number of hertz; "
                "no exact common sampling grid exists")
        as_int.append(int(k))
    resolution = math.gcd(*as_int) if len(as_int) > 1 else as_int[0]
    f_max = max(freqs)
    n = MIN_SAMPLES
    while n * resolution <= oversample * f_max:
        n *= 2
        if n > MAX_SAMPLES:
            raise ValueError(
                "frequencies share no common grid coarse enough to sample "
                f"with <= {MAX_SAMPLES} points")
    return float(n * resolution), 1.0 / resolution
