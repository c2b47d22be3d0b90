"""Multi-tone records, their one-sided DFT bins and sampling plans.

This module is the numerical ground truth for the rest of the package: the
checks of :mod:`selfmix.validation` test the closed forms elsewhere against
time-domain squaring (``w * w``) or the diode solve of a record that
:func:`synthesize_waveform` makes, read at its bins by :func:`dft_spectrum`.
No other module transforms a record. Planner and synthesizer share one
on-bin rule, :func:`_on_bin`, so every mixing product of a planned record
falls on an exact bin: no filter stands between squaring and reading.

Records are plain float arrays whose last axis is time; a batch of records
is an array of any leading shape. Bin ``k`` of an ``n``-sample record at
``sample_rate`` holds ``k * sample_rate / n`` Hz, starting at DC.

Spectral convention: one-sided amplitude spectrum, i.e. a sine tone of peak
amplitude ``a`` shows up in :func:`dft_spectrum` with ``|complex_amplitude|
== a`` at its bin, and a DC offset ``c`` shows up with magnitude ``c`` at the
DC bin. Energy therefore reads ``dc**2 + sum(|a_k|**2) / 2``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

MIN_SAMPLES = 16
"""Shortest record :func:`synthesize_waveform` makes and :func:`dft_spectrum`
reads."""

MAX_SAMPLES = 1 << 20
"""Longest record :func:`plan_sampling` chooses and
:func:`synthesize_waveform` makes."""


def check_tones(amplitudes, frequencies: Sequence[float], phases=0.0
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tone set ``(amplitudes, frequencies, phases)`` as float arrays,
    checked: at least one tone, every frequency positive and finite, every
    amplitude finite and >= 0, ``amplitudes`` of shape ``(..., tones)`` and
    ``phases`` either one value or one per tone, broadcast against the
    amplitudes and wrapped into [-pi, pi). Raises ``ValueError``
    otherwise."""
    freqs = np.asarray(frequencies, dtype=float)
    if freqs.ndim != 1 or freqs.size == 0:
        raise ValueError("need at least one tone")
    bad = freqs[~((freqs > 0.0) & (freqs < math.inf))]
    if bad.size:
        raise ValueError(f"tone frequency must be positive, got {bad[0]}")
    amps = np.asarray(amplitudes, dtype=float)
    if amps.shape[-1:] != freqs.shape:
        raise ValueError(f"tone amplitudes must have shape (..., "
                         f"{freqs.size}), got {amps.shape}")
    bad = amps[~((amps >= 0.0) & (amps < math.inf))]
    if bad.size:
        raise ValueError(
            f"tone amplitudes must be finite and >= 0, got {bad[0]}")
    if np.shape(phases)[-1:] not in ((), freqs.shape):
        raise ValueError("need one phase per tone frequency")
    with np.errstate(invalid="ignore"):  # a non-finite phase, checked below
        wrapped = (np.broadcast_to(phases, amps.shape) + math.pi) % math.tau
    wrapped -= math.pi
    if not np.all(np.isfinite(wrapped)):
        raise ValueError("tone phases must be finite")
    return amps, freqs, wrapped


def _on_bin(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one on-bin rule: ``k = rint(x)`` and whether each ``x`` (a tone
    in hertz, or a bin index) is within ``1e-9 * x`` of its ``k >= 1``."""
    k = np.rint(x)
    return k, (abs(x - k) <= 1e-9 * x) & (k >= 1)


def synthesize_waveform(amplitudes, frequencies: Sequence[float], phases,
                        sample_rate: float, samples: int) -> np.ndarray:
    """Sum-of-sines records on a uniform time grid, one per row of
    ``amplitudes`` (shape ``(..., tones)``; the result has shape
    ``(..., samples)``).

    ``w[..., i] = sum_k a[..., k] * sin(2*pi*f_k*t_i + phi[..., k])`` with
    ``t_i = i / sample_rate`` and the phases broadcast and wrapped by
    :func:`check_tones`, built as one unscaled (``norm="forward"``) inverse
    real FFT of bins that each hold the ``a/2 * exp(j(phi - pi/2))`` of
    their tones: O(n log n) for any tone count. Each row holds the bits of
    the one-row call.

    Raises ``ValueError`` on a tone set :func:`check_tones` refuses, on
    fewer than :data:`MIN_SAMPLES` or more than :data:`MAX_SAMPLES`
    samples, or on a tone whose bin index ``f * samples / sample_rate``
    fails :func:`_on_bin` or is not below ``samples / 2``: one that the
    record spans less than one period of, that the rate cannot represent,
    or that lies between bins.
    """
    amps, freqs, phases = check_tones(amplitudes, frequencies, phases)
    if samples < MIN_SAMPLES:
        raise ValueError(
            f"waveform needs >= {MIN_SAMPLES} samples, got {samples}")
    if samples > MAX_SAMPLES:
        raise ValueError(
            f"waveform needs <= {MAX_SAMPLES} samples, got {samples}")
    with np.errstate(all="ignore"):  # a rate <= 0 or NaN is refused here
        k, on = _on_bin(freqs * samples / sample_rate)
    on &= 2 * k < samples
    if not on.all():
        raise ValueError(f"tone {freqs[~on][0]} Hz lies off the bins 1 .. "
                         f"{(samples - 1) // 2} of {samples} samples at "
                         f"{sample_rate} Hz")
    spectrum = np.zeros(amps.shape[:-1] + (samples // 2 + 1,), dtype=complex)
    np.add.at(spectrum, (..., k.astype(int)),
              0.5 * amps * np.exp(1j * (phases - 0.5 * math.pi)))
    return np.fft.irfft(spectrum, samples, norm="forward")


def dft_spectrum(records) -> np.ndarray:
    """One-sided complex amplitudes of a batch of records (last axis time)
    at every bin ``0 .. n // 2`` of an ``n``-sample record; the result has
    shape ``(..., n // 2 + 1)``, and a caller indexes the bins it needs.

    Scaled so that an on-bin tone of amplitude ``a`` reads a magnitude of
    exactly ``a`` and a DC level ``c`` reads ``c``: every bin is divided by
    ``n`` and doubled but DC and, for even ``n``, the Nyquist bin, which
    are not mirrored.
    """
    records = np.asarray(records, dtype=float)
    n = records.shape[-1]
    if n < MIN_SAMPLES:
        raise ValueError(f"waveform needs >= {MIN_SAMPLES} samples, got {n}")
    amps = np.fft.rfft(records)
    amps /= n
    amps[..., 1:(n + 1) // 2] *= 2.0
    return amps


def plan_sampling(frequencies: Sequence[float],
                  oversample: float = 4.0) -> tuple[float, float]:
    """Choose ``(sample_rate, duration)`` putting every frequency on an exact
    DFT bin with rate above ``oversample`` times the highest one.

    ``oversample`` defaults to the square-law minimum (``f`` maps to ``2 f``
    and Nyquist needs another 2); a larger one pushes the aliases of a
    stronger nonlinearity's products to higher, weaker orders.

    Each frequency must be a whole number ``k >= 1`` of hertz by
    :func:`_on_bin`, which no tone below 0.5 Hz is. The record is one
    common period of the exact gcd ``res`` of the ``k``: ``(n * res,
    1 / res)`` with ``n`` the smallest power of two above ``oversample *
    max(k) / res``. Any memoryless function of a waveform over these
    frequencies repeats after that period, so a longer record leaves every
    bin of the grid unchanged. Raises ``ValueError`` on no frequency, on
    one that is not positive and finite or not whole (the first named), on
    an ``oversample`` that is not finite and >= 2, if ``n`` would exceed
    :data:`MAX_SAMPLES` (wildly incommensurate frequencies), or if the
    rate would pass the float range.
    """
    freqs = np.asarray(frequencies, dtype=float)
    if freqs.ndim != 1 or not freqs.size:
        raise ValueError("need at least one positive frequency")
    bad = freqs[~((freqs > 0.0) & (freqs < math.inf))]
    if bad.size:
        raise ValueError(f"frequency {bad[0]} Hz is not positive and finite")
    if not 2.0 <= oversample < math.inf:
        raise ValueError(f"need a finite oversample >= 2, got {oversample}")
    whole, on = _on_bin(freqs)
    if not on.all():
        raise ValueError(
            f"frequency {freqs[~on][0]} Hz is not an integer number of hertz "
            ">= 1; no exact common sampling grid exists")
    resolution = math.gcd(*map(int, whole.tolist()))  # exact past 2**63
    top = oversample * float(whole.max()) / resolution
    if not top < MAX_SAMPLES:
        raise ValueError("frequencies share no common grid coarse enough to "
                         f"sample with <= {MAX_SAMPLES} points")
    n = max(MIN_SAMPLES, 1 << math.floor(top).bit_length())
    try:
        return float(n * resolution), 1.0 / resolution
    except OverflowError:
        raise ValueError(f"a sample rate of {n} x the {resolution:g} Hz "
                         "common grid passes the float range") from None
