"""Unit conversions between SI quantities and the dB domain.

All internal computation uses SI units (Hz, V, A, s, m); dB/dBm values only
appear at module boundaries that are inherently logarithmic (mixer output
power, link budgets, CLI columns).

Power/amplitude conventions:

* tone amplitudes are one-sided peak voltages, so a tone of amplitude ``a``
  into impedance ``z`` carries ``a**2 / (2 * z)`` watts;
* dB values that would be ``-inf`` are floored at ``DB_FLOOR`` so tables and
  comparisons stay finite.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
"""Free-space speed of light in m/s (exact SI value)."""

DB_FLOOR = -200.0
"""Reported floor for quantities whose exact value would be -inf dB."""


def dbm_to_amplitude(p_dbm: float, impedance: float) -> float:
    """Peak voltage of a sine tone carrying ``p_dbm`` into ``impedance``."""
    try:
        watts = 1e-3 * 10.0 ** (p_dbm / 10.0)
    except OverflowError:
        raise OverflowError(
            f"{p_dbm} dBm overflows the float range in watts") from None
    return math.sqrt(2.0 * impedance * watts)


def db_to_amplitude_ratio(gain_db: float) -> float:
    """Power gain in dB -> multiplicative amplitude factor."""
    try:
        return 10.0 ** (gain_db / 20.0)
    except OverflowError:
        raise OverflowError(f"a gain of {gain_db} dB overflows the float "
                            "range as an amplitude ratio") from None


def amplitude_ratio_to_db(ratio: np.ndarray | Sequence[float] | float
                          ) -> np.ndarray:
    """Amplitude ratios -> power dB, element by element: :data:`DB_FLOOR`
    where ``ratio <= 0``, else ``max(20*log10(ratio), DB_FLOOR)``; a NaN
    stays NaN."""
    ratio = np.asarray(ratio, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        db = np.maximum(20.0 * np.log10(ratio), DB_FLOOR)
    return np.where(ratio <= 0.0, DB_FLOOR, db)
