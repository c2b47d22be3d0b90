"""Antenna pattern cuts, self-mixing pattern multiplication and beam metrics.

Pattern values are linear *field amplitudes* (dimensionless, >= 0) tabulated
over a theta cut; a square-law receiver observing a two-tone signal sees
the product of the element's amplitude patterns at the two tone
frequencies, so the self-mixed receive pattern is the point-wise product of
the two cuts. A pattern file is a ``theta_deg,gain_db`` table, whose
``gain_db`` is power dB of the field quantity, i.e. ``20*log10(amplitude)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .tables import data_lines, split_fields
from .units import db_to_amplitude_ratio

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class PatternGrid:
    """Linear-amplitude gain cut over a uniform theta grid."""

    theta_samples: np.ndarray
    gains: np.ndarray

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta_samples, dtype=float)
        gains = np.asarray(self.gains, dtype=float)
        if theta.ndim != 1 or gains.ndim != 1 or theta.size != gains.size:
            raise ValueError("theta_samples and gains must be 1-D arrays of "
                             "equal length")
        if theta.size < 3:
            raise ValueError("pattern cut needs at least 3 samples")
        steps = np.diff(theta)
        if not np.all(steps > 0.0):
            raise ValueError("theta grid must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-15):
            raise ValueError("theta grid must be uniform")
        tol = 1e-9
        if theta[0] < -_HALF_PI - tol or theta[-1] > _HALF_PI + tol:
            raise ValueError("theta grid must lie within [-pi/2, pi/2]")
        if not np.all(np.isfinite(gains)) or np.any(gains < 0.0):
            raise ValueError("gains must be finite and >= 0")
        theta = theta.copy()
        gains = gains.copy()
        theta.flags.writeable = False
        gains.flags.writeable = False
        object.__setattr__(self, "theta_samples", theta)
        object.__setattr__(self, "gains", gains)

    def normalized(self) -> "PatternGrid":
        peak = self.gains.max()
        if peak <= 0.0:
            raise ValueError("cannot normalize an all-zero pattern")
        return PatternGrid(self.theta_samples, self.gains / peak)


def cos_q(theta: np.ndarray | Sequence[float], q: float) -> PatternGrid:
    """``max(cos(theta), 0) ** q`` on a theta grid; ``q`` steers the
    beamwidth, and ``q = 0`` is the isotropic element."""
    if not q >= 0.0:
        raise ValueError("cos_q pattern needs q >= 0")
    theta = np.asarray(theta, dtype=float)
    return PatternGrid(theta, np.clip(np.cos(theta), 0.0, None) ** q)


def two_beam(theta: np.ndarray | Sequence[float], tilt: float,
             width: float) -> PatternGrid:
    """Sum of two Gaussian beams tilted to ``+/-tilt`` with 1-sigma
    ``width``, divided by its peak on the grid (a radiator whose broadside
    interferes destructively, leaving two off-axis main beams)."""
    if not 0.0 < tilt < _HALF_PI:
        raise ValueError("two_beam pattern needs 0 < tilt < pi/2")
    try:
        spread = 2.0 * width ** 2
    except OverflowError:  # an infinitely wide beam: the flat pattern
        spread = math.inf
    if not (width > 0.0 and spread > 0.0):  # nor may the square underflow
        raise ValueError("two_beam pattern needs width > 0")
    theta = np.asarray(theta, dtype=float)
    with np.errstate(over="ignore"):  # far from a narrow beam: exp(-inf) = 0
        gains = (np.exp(-((theta - tilt) ** 2) / spread)
                 + np.exp(-((theta + tilt) ** 2) / spread))
    return PatternGrid(theta, gains).normalized()


def self_mix_pattern(c1: PatternGrid, c2: PatternGrid) -> PatternGrid:
    """Receive pattern of one self-mixing element: point-wise product of the
    element's amplitude patterns at the two tone frequencies."""
    if c1.theta_samples.shape != c2.theta_samples.shape or not np.array_equal(
            c1.theta_samples, c2.theta_samples):
        raise ValueError("pattern grids have different theta samples")
    with np.errstate(over="ignore"):  # PatternGrid rejects an infinite gain
        gains = c1.gains * c2.gains
    return PatternGrid(c1.theta_samples, gains)


def beamwidth_3db(p: PatternGrid) -> tuple[float, bool]:
    """``(width, no_crossing)``: the width between the first crossings of
    ``peak / sqrt(2)`` on either side of the peak (amplitude convention,
    linear interpolation).

    Ties for the peak are broken toward theta = 0. If the pattern never
    drops 3 dB on both sides within the cut the full cut width is returned
    with ``no_crossing`` true.
    """
    gains = p.gains
    theta = p.theta_samples
    peak = gains.max()
    if peak <= 0.0:
        raise ValueError("pattern has no positive peak")
    candidates = np.nonzero(gains == peak)[0]
    k = int(candidates[np.argmin(np.abs(theta[candidates]))])
    threshold = peak / math.sqrt(2.0)
    below = np.flatnonzero(gains < threshold)
    # the first samples below the threshold left and right of the peak (the
    # peak itself is not below), and their neighbours toward the peak
    split = int(np.searchsorted(below, k))
    if split == 0 or split == below.size:
        return float(theta[-1] - theta[0]), True
    i = below[[split - 1, split]]
    prev = i + (1, -1)
    frac = (gains[prev] - threshold) / (gains[prev] - gains[i])
    left, right = (theta[prev] + frac * (theta[i] - theta[prev])).tolist()
    return right - left, False


def find_lobes(p: PatternGrid, min_amplitude: float) -> list[float]:
    """Theta positions of local maxima with amplitude >= ``min_amplitude``
    (grid endpoints excluded)."""
    g = p.gains
    inner = g[1:-1]
    mask = (inner >= min_amplitude) & (inner > g[:-2]) & (inner >= g[2:])
    return p.theta_samples[1:-1][mask].tolist()


def read_pattern_csv(source: str | Path, max_rows: int) -> PatternGrid:
    """Load a measured cut from the table at ``source``: a header
    ``theta_deg,gain_db``, then one row of the two per line, gain_db
    converted to linear amplitude via ``10**(db/20)``. The rows are counted
    in a first pass that keeps none, and more than ``max_rows`` raise
    ``ValueError`` before any is parsed."""
    rows = sum(1 for _ in data_lines(source)) - 1
    if rows > max_rows:
        raise ValueError(f"pattern grid would have {rows} points; "
                         f"the limit is {max_rows}")
    lines = data_lines(source)
    where, header = next(lines, (source, ""))
    if not header or (split_fields(where, header)
                      != ["theta_deg", "gain_db"]):
        raise ValueError(f"{where}: pattern file must start with header "
                         "'theta_deg,gain_db'")
    theta, gains = [], []
    for where, text in lines:
        row = split_fields(where, text)
        if len(row) != 2:
            raise ValueError(
                f"{where}: expected theta_deg,gain_db, got {row!r}")
        try:
            theta.append(math.radians(float(row[0])))
            gains.append(db_to_amplitude_ratio(float(row[1])))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
        except OverflowError:
            raise ValueError(f"{where}: gain_db {row[1]} is past the float "
                             "range") from None
    return PatternGrid(np.asarray(theta), np.asarray(gains))
