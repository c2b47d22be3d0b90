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
    ToneSpec,
    dft_spectrum,
    plan_sampling,
    spectrum_self_convolution,
    square_law_mix,
    synthesize_waveform,
)

CARRIER_HZ = 37.5e9
BAND_HZ = [38.1e9, 38.2e9, 38.3e9, 38.4e9, 38.5e9]

print("=" * 70)
print("SELF-MIXED SPECTRUM: carrier at 37.5 GHz, band at 38.1-38.5 GHz")
print("=" * 70)

tones = [ToneSpec(CARRIER_HZ, 1.0)]
tones += [ToneSpec(f, 0.25) for f in BAND_HZ]
rate, duration = plan_sampling([t.frequency for t in tones])
print(f"\nsampling: {rate / 1e9:.0f} GHz rate, {duration * 1e9:.1f} ns record "
      f"({int(rate * duration)} samples)")

waveform = synthesize_waveform(tones, rate, duration)
mixed = square_law_mix(waveform)
spectrum = dft_spectrum(mixed)

print("\ndown-converted products (difference tones carrier x band):")
print(f"  {'frequency':>12} {'amplitude':>10}")
for f in BAND_HZ:
    if_freq = f - CARRIER_HZ
    amp = abs(spectrum.amplitude_at(if_freq))
    print(f"  {if_freq / 1e9:9.1f} GHz {amp:10.4f}")
dc = abs(spectrum.amplitude_at(0.0))
print(f"  {'DC':>12} {dc:10.4f}   (sum of squared amplitudes / 2)")

# the share of the energy in the 0.3-1.2 GHz bins of the squared spectrum
# that the carrier x band difference tones hold
freqs = spectrum.bin_frequencies
in_band = (freqs >= 0.3e9) & (freqs <= 1.2e9)
total_power = np.sum(spectrum.magnitudes[in_band] ** 2)
band_power = sum(abs(spectrum.amplitude_at(f - CARRIER_HZ)) ** 2
                 for f in BAND_HZ)
print(f"\nband-pass 0.3-1.2 GHz keeps {band_power / total_power:.6f} of the "
      "remaining energy in the five difference tones")

# sanity: the closed-form self-convolution agrees with squaring bin by bin
conv = spectrum_self_convolution(dft_spectrum(waveform))
m = spectrum.complex_amplitudes.size
err = np.max(np.abs(conv.complex_amplitudes[:m] - spectrum.complex_amplitudes))
print(f"\nself-convolution vs time-domain squaring: max bin error {err:.2e} V")
print("done.")
