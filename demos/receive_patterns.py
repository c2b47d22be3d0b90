#!/usr/bin/env python3
"""Receive patterns of a self-mixing element and array.

The element's receive pattern under two-tone illumination is the product of
its radiation patterns at the two tone frequencies; the array pattern is
that product times the IF array factor. As a bonus, mechanically rotating
half the elements by 180 degrees (which flips their RF feed phase) does not
dent the IF pattern at all, while an RF-combined array would null out.
"""

import math

import numpy as np

from selfmix.arrays import (
    ArrayGeometry,
    Direction,
    TwoToneIllumination,
    if_array_factor_cut,
    rf_array_factor_cut,
    simulate_array_timedomain,
)
from selfmix.patterns import PatternGrid, beamwidth_3db, cos_q, self_mix_pattern

F1, F2 = 37.5e9, 38.5e9
theta = np.radians(np.arange(-90.0, 90.01, 0.25))

print("=" * 70)
print("SELF-MIXING RECEIVE PATTERNS")
print("=" * 70)

# element patterns at the two tones: slightly different beamwidths
c1 = cos_q(theta, 1.0)
c2 = cos_q(theta, 1.3)
sm = self_mix_pattern(c1, c2)
print()
for grid, name in ((c1, "element at 37.5 GHz"), (c2, "element at 38.5 GHz"),
                   (sm, "self-mixed product")):
    bw = beamwidth_3db(grid)
    print(f"  {name:22s} 3 dB width {math.degrees(bw.width):6.1f} deg")

# multiply in the array factor of the sparse 4x2 layout, cut at phi = 0
geometry = ArrayGeometry.planar_grid(4, 2, 0.032, 0.036)
total_if = PatternGrid(theta, sm.gains * if_array_factor_cut(
    geometry, F1, F2, theta, 0.0))
total_rf = PatternGrid(theta, sm.gains * rf_array_factor_cut(
    geometry, 38.5e9, theta, 0.0))
bw_if = beamwidth_3db(total_if)
bw_rf = beamwidth_3db(total_rf)
print(f"\ntotal pattern 3 dB width, IF combining: "
      f"{math.degrees(bw_if.width):6.1f} deg")
print(f"total pattern 3 dB width, RF combining: "
      f"{math.degrees(bw_rf.width):6.1f} deg")
print("the element pattern is what limits the IF-combined array, not the "
      "array factor")

# the rotated-row experiment, done with brute-force waveforms
offsets = np.zeros(8)
offsets[4:] = math.pi
flipped = geometry.with_rf_phase_offsets(offsets)
ill = TwoToneIllumination(F1, F2, (1.0, 0.5), Direction(0.3, 0.0))
base = simulate_array_timedomain(geometry, ill)
flip = simulate_array_timedomain(flipped, ill)
print(f"\n180 deg feed flip on the second row:")
print(f"  IF combined power change: "
      f"{abs(flip.if_power_rel_db - base.if_power_rel_db):.2e} dB")
rf_broadside = rf_array_factor_cut(flipped, 38.5e9, [0.0], 0.0)[0]
print(f"  RF combined broadside factor: {rf_broadside:.2e} "
      "(an RF array would go blind at broadside)")
print("done.")
