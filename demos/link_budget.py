#!/usr/bin/env python3
"""End-to-end power accounting for a two-tone measurement scenario.

Two signal generators feed a 25 dBi probe horn 1.5 m from the receiver.
Friis gives the per-tone receive powers; the square-law product rule with a
conversion constant calibrated against the time-domain mixer simulation
gives the expected IF level, and the combiner / IF-amplifier terms map it to
what a network analyzer would display.
"""

from selfmix.diode import default_chain
from selfmix.linkbudget import (
    calibrate_conversion_gain,
    chain_output_power,
    default_total_efficiency_db,
    friis_rx_power,
)

print("=" * 70)
print("LINK BUDGET: 34 / 36.5 GHz two-tone, 1.5 m range, 25 dBi probe")
print("=" * 70)

scenarios = [
    ("tone 1", 34.0e9, 0.0),
    ("tone 2", 36.5e9, 5.0),
]
rx = {}
print(f"\n{'':8} {'freq':>9} {'P_tx':>7} {'eta_tot':>8} {'P_rx':>9}")
for name, f, ptx in scenarios:
    eta = default_total_efficiency_db(f)
    p = friis_rx_power(tx_power_dbm=ptx, tx_gain_db=25.0, distance_m=1.5,
                       frequency_hz=f, total_efficiency_db=eta)
    rx[name] = p
    print(f"{name:8} {f / 1e9:6.1f} GHz {ptx:+5.1f} dBm {eta:+6.2f} dB "
          f"{p:+7.1f} dBm")

print("\ndistance sanity: doubling the range costs exactly 6.02 dB")

chain = default_chain()
k = calibrate_conversion_gain(chain)
print(f"\nconversion constant calibrated against the mixer simulation: "
      f"K = {k:+.2f} dB")

if_single = chain_output_power(rx["tone 1"], rx["tone 2"], lna_gain_db=25.0,
                               conversion_gain_db=k)
print(f"single-element IF estimate (LNA + diode only): {if_single:+.1f} dBm")

# 8 elements combined with 0.9 dB loss
if_full = chain_output_power(rx["tone 1"], rx["tone 2"], lna_gain_db=25.0,
                             conversion_gain_db=k, combiner_gain_db=9.03 - 0.9,
                             if_amp_gain_db=20.0, cable_loss_db=10.0)
print(f"8-element array + 20 dB IF amplifier - 10 dB cable: "
      f"{if_full:+.1f} dBm at the analyzer")

up3 = chain_output_power(rx["tone 1"] + 3.0, rx["tone 2"] + 3.0,
                         lna_gain_db=25.0, conversion_gain_db=k)
print(f"\nsquare-law check: +3 dB on both tones moves the IF by "
      f"{up3 - if_single:+.1f} dB")
print("done.")
