#!/usr/bin/env python3
"""Choosing the detector diode's operating point.

A Schottky diode mixes best where the curvature (second derivative) of its
I-V characteristic peaks. The static curve alone puts that point at one
voltage; once the diode sits in a 50 ohm chain, the source resistance
reshapes the effective curvature and the optimum moves lower. At strong
drive the diode rectifies hard no matter where it is biased and the choice
stops mattering. This script walks through all three regimes.
"""

import numpy as np

from selfmix.diode import (
    default_chain,
    default_diode,
    iv_derivatives,
    mix_cells,
    optimal_bias_static,
)
from selfmix.units import dbm_to_amplitude


def if_power_over_bias(chain, bias, p_dbm):
    """IF power (dBm) at each bias voltage under a two-tone drive of
    p_dbm and p_dbm - 5 dB at 37.5 and 38.5 GHz."""
    drive = [(dbm_to_amplitude(p_dbm), dbm_to_amplitude(p_dbm - 5.0))]
    return mix_cells(chain, bias, drive * len(bias), (37.5e9, 38.5e9))[0]


diode = default_diode()
print("=" * 70)
print("DIODE OPERATING POINT (fitted placeholder device)")
print("=" * 70)
print(f"\nI_s = {diode.saturation_current:.2e} A, n = {diode.ideality}, "
      f"R_s = {diode.series_resistance} ohm")

# 1. static analysis: curvature of the bare terminal I-V curve
v_opt, i_opt = optimal_bias_static(diode, (0.3, 1.0))
print(f"\nstatic optimum (bare diode):   {v_opt:.3f} V, "
      f"{i_opt * 1e3:.2f} mA")

grid = np.arange(0.55, 0.85, 0.01)
_, d2 = iv_derivatives(diode, grid)
print("\n  bias   d2i/dv2")
for v, c in zip(grid[::3], d2[::3]):
    bar = "#" * int(30 * c / d2.max())
    print(f"  {v:.2f} V {c:8.3f}  {bar}")

# 2. whole-chain analysis: sweep the bias under a weak two-tone drive
chain = default_chain()
bias = np.round(np.arange(0.45, 0.8001, 0.025), 10)
vals = if_power_over_bias(chain, bias, -40.0)
best = bias[int(np.argmax(vals))]
print(f"\nwhole-chain optimum at -40 dBm input: {best:.3f} V "
      f"(IF {vals.max():.1f} dBm)")
print("the 50 ohm source in the conduction loop moves the optimum well below")
print("the static value, and the IF comes back out near the input level:")
print("the LNA gain roughly cancels the conversion loss here")

# 3. strong drive: the bias hardly matters any more
hot = default_chain(lna_gain_db=35.0)
for p in (-50.0, -35.0, -20.0):
    v = if_power_over_bias(hot, np.round(np.arange(0.0, 0.8001, 0.1), 10), p)
    print(f"IF spread across 0..0.8 V bias at {p:+.0f} dBm input: "
          f"{v.max() - v.min():7.2f} dB")
print("done.")
