"""Multi-tone records, their one-sided DFT bins and sampling plans.

This module is the numerical ground truth for the rest of the package: the
checks of :mod:`selfmix.validation` test the closed forms elsewhere against
time-domain squaring (``w * w``) or the diode solve of a record that
:func:`synthesize_waveform` makes, read at its bins by :func:`dft_spectrum`.
No other module transforms a record. No filter stands between squaring and
reading: on a record from :func:`plan_sampling` every mixing product falls
on an exact bin and leaks into no other, so each is read from its bin.

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
from typing import Iterable, Sequence

import numpy as np

MIN_SAMPLES = 16
"""Shortest record :func:`synthesize_waveform` makes and :func:`dft_spectrum`
reads."""

MAX_SAMPLES = 1 << 20
"""Longest record :func:`plan_sampling` chooses (and the longest the
``spectrum`` subcommand repeats one to)."""


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
    fewer than :data:`MIN_SAMPLES` samples, or on a tone more than 1e-9 of
    its bin index, the tolerance of :func:`plan_sampling`, off the bins
    ``1 .. (samples - 1) // 2``: one that the record spans less than one
    period of, that the rate cannot represent, or that lies between bins.
    """
    amps, freqs, phases = check_tones(amplitudes, frequencies, phases)
    if samples < MIN_SAMPLES:
        raise ValueError(
            f"waveform needs >= {MIN_SAMPLES} samples, got {samples}")
    with np.errstate(all="ignore"):  # a rate <= 0 or NaN is refused here
        bins = freqs * samples / sample_rate
        k = np.rint(bins)
        on = (abs(bins - k) <= 1e-9 * bins) & (k >= 1) & (2 * k < samples)
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
    k = np.arange(n // 2 + 1)
    amps /= n
    amps *= np.where((k > 0) & (2 * k != n), 2.0, 1.0)
    return amps


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
    ``ValueError`` on no frequency, on one that is not positive and finite
    (named), or if ``n`` would exceed :data:`MAX_SAMPLES` (wildly
    incommensurate frequencies).
    """
    freqs = [float(f) for f in frequencies]
    if not freqs:
        raise ValueError("need at least one positive frequency")
    for f in freqs:
        if not 0.0 < f < math.inf:
            raise ValueError(f"frequency {f} Hz is not positive and finite")
    as_int = []
    for f in freqs:
        k = round(f)
        if abs(f - k) > 1e-9 * max(f, 1.0):
            raise ValueError(
                f"frequency {f} Hz is not an integer number of hertz; "
                "no exact common sampling grid exists")
        as_int.append(int(k))
    resolution = math.gcd(*as_int)
    f_max = max(freqs)
    n = MIN_SAMPLES
    while n * resolution <= oversample * f_max:
        n *= 2
        if n > MAX_SAMPLES:
            raise ValueError(
                "frequencies share no common grid coarse enough to sample "
                f"with <= {MAX_SAMPLES} points")
    return float(n * resolution), 1.0 / resolution
