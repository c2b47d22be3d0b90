#!/usr/bin/env python3
"""Square-law down-conversion of a carrier-plus-band signal.

A self-heterodyne transmitter sends a strong carrier next to its information
band. Squaring the received waveform convolves the spectrum with itself, so
a copy of the band lands at low frequency where cheap electronics can take
over; no local oscillator is involved. This script builds such a signal,
squares it, and shows where everything ends up, then cross-checks the
frequency-domain self-convolution against brute-force time-domain squaring.
"""

import numpy as np

from selfmix.signals import (
    dft_spectrum,
    plan_sampling,
    spectrum_self_convolution,
    synthesize_waveform,
)

CARRIER_HZ = 37.5e9
BAND_HZ = [38.1e9, 38.2e9, 38.3e9, 38.4e9, 38.5e9]

print("=" * 70)
print("SELF-MIXED SPECTRUM: carrier at 37.5 GHz, band at 38.1-38.5 GHz")
print("=" * 70)

frequencies = [CARRIER_HZ] + BAND_HZ
amplitudes = [1.0] + [0.25] * len(BAND_HZ)
rate, duration = plan_sampling(frequencies)
samples = round(rate * duration)
print(f"\nsampling: {rate / 1e9:.0f} GHz rate, {duration * 1e9:.1f} ns record "
      f"({int(rate * duration)} samples)")

# a record of one common period: bin k holds k / duration Hz
waveform = synthesize_waveform(amplitudes, frequencies, 0.0, rate, samples)
spectrum = dft_spectrum(waveform * waveform)
if_bins = [round((f - CARRIER_HZ) * duration) for f in BAND_HZ]

print("\ndown-converted products (difference tones carrier x band):")
print(f"  {'frequency':>12} {'amplitude':>10}")
for k in if_bins:
    print(f"  {k / duration / 1e9:9.1f} GHz {abs(spectrum[k]):10.4f}")
print(f"  {'DC':>12} {abs(spectrum[0]):10.4f}   (sum of squared amplitudes / 2)")

# the share of the energy in the 0.3-1.2 GHz bins of the squared spectrum
# that the carrier x band difference tones hold
freqs = np.arange(spectrum.size) * (rate / samples)
in_band = (freqs >= 0.3e9) & (freqs <= 1.2e9)
total_power = np.sum(np.abs(spectrum[in_band]) ** 2)
band_power = sum(abs(spectrum[k]) ** 2 for k in if_bins)
print(f"\nband-pass 0.3-1.2 GHz keeps {band_power / total_power:.6f} of the "
      "remaining energy in the five difference tones")

# sanity: the closed-form self-convolution agrees with squaring bin by bin
conv = spectrum_self_convolution(dft_spectrum(waveform))
err = np.max(np.abs(conv[:spectrum.size] - spectrum))
print(f"\nself-convolution vs time-domain squaring: max bin error {err:.2e} V")
print("done.")
