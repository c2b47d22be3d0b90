#!/usr/bin/env python3
"""Why a self-mixing array keeps its gain over a wide angular range.

A 4x2 array with 32 mm x 36 mm element pitch is four-plus wavelengths
sparse at 38.5 GHz: combined at RF it would be a forest of grating lobes.
Combined after per-element square-law mixing, the angle dependence rides on
the 1 GHz tone difference instead, and the electrical spacing shrinks to a
tenth of a wavelength. Saves a PNG comparison when matplotlib is available.
"""

import math

import numpy as np

from selfmix.arrays import (
    ArrayGeometry,
    effective_spacing,
    if_array_factor_cut,
    rf_array_factor_cut,
)
from selfmix.patterns import PatternGrid, beamwidth_3db, find_lobes
from selfmix.units import SPEED_OF_LIGHT

F1, F2 = 37.5e9, 38.5e9
RF = 38.5e9

geometry = ArrayGeometry.planar_grid(4, 2, 0.032, 0.036)
theta = np.radians(np.arange(-90.0, 90.01, 0.25))
phi_e_plane = math.pi / 2.0

print("=" * 70)
print("IF vs RF ARRAY FACTOR, 4x2 layout, E-plane cut")
print("=" * 70)

lam = SPEED_OF_LIGHT / 36e9
print(f"\nphysical pitch: 32 mm x 36 mm = {0.032 / lam:.1f} x "
      f"{0.036 / lam:.1f} wavelengths at 36 GHz")
print(f"effective IF spacing at 1.0 GHz: "
      f"{effective_spacing(0.032, 1e9):.4f} / "
      f"{effective_spacing(0.036, 1e9):.4f} wavelengths")
print(f"effective IF spacing at 2.5 GHz: "
      f"{effective_spacing(0.032, 2.5e9):.4f} / "
      f"{effective_spacing(0.036, 2.5e9):.4f} wavelengths")

af_if = if_array_factor_cut(geometry, F1, F2, theta, phi_e_plane)
af_rf = rf_array_factor_cut(geometry, RF, theta, phi_e_plane)

width_if, if_no_crossing = beamwidth_3db(PatternGrid(theta, af_if))
width_rf, _ = beamwidth_3db(PatternGrid(theta, af_rf))
if if_no_crossing:
    print("\nIF array factor never drops 3 dB anywhere in the cut "
          f"(minimum {af_if.min():.3f})")
print(f"RF array factor 3 dB width: {math.degrees(width_rf):.2f} deg")
print(f"width ratio IF/RF: {width_if / width_rf:.1f}")

floor = 1.0 / math.sqrt(2.0)
lobes = find_lobes(PatternGrid(theta, af_rf), floor)
print(f"\nRF grating lobes above -3 dB: "
      + ", ".join(f"{math.degrees(t):+.1f} deg" for t in lobes))

# N in-phase IF signals add to N times one element's power, scaled by the
# array factor's square off broadside
full = 10.0 * math.log10(geometry.element_count)
broadside = full + 20.0 * math.log10(af_if[np.argmin(np.abs(theta))])
least = full + 20.0 * math.log10(af_if.min())
print(f"\n{geometry.element_count}-element IF array gain: {broadside:.2f} dB "
      f"at broadside, {least:.2f} dB at least\nover the whole cut, thanks "
      "to the flat IF factor")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not available; skipping the plot")
else:
    fig, ax = plt.subplots(figsize=(8, 4.5))
    deg = np.degrees(theta)
    ax.plot(deg, 20 * np.log10(np.maximum(af_if, 1e-6)),
            label="IF array factor (1 GHz tone spacing)")
    ax.plot(deg, 20 * np.log10(np.maximum(af_rf, 1e-6)), alpha=0.8,
            label="RF array factor (38.5 GHz)")
    ax.axhline(-3, color="gray", ls=":", lw=1)
    ax.set_xlabel("theta [deg]")
    ax.set_ylabel("array factor [dB]")
    ax.set_ylim(-40, 2)
    ax.set_xlim(-90, 90)
    ax.legend(loc="lower center")
    ax.grid(alpha=0.3)
    fig.tight_layout()
    fig.savefig("if_vs_rf_array_factor.png", dpi=150)
    print("\nsaved if_vs_rf_array_factor.png")
print("done.")
