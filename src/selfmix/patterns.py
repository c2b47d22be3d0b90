"""Antenna pattern cuts, self-mixing pattern multiplication and beam metrics.

Pattern values are linear *field amplitudes* (dimensionless, >= 0) tabulated
over a theta cut; a square-law receiver observing a two-tone signal sees
the product of the element's amplitude patterns at the two tone
frequencies, so the self-mixed receive pattern is the point-wise product of
the two cuts. The ``gain_db`` column of a pattern file is power dB of the
field quantity, i.e. ``20*log10(amplitude)``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import GridMismatch, InvalidGrid

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
            raise InvalidGrid("theta_samples and gains must be 1-D arrays of "
                              "equal length")
        if theta.size < 3:
            raise InvalidGrid("pattern cut needs at least 3 samples")
        steps = np.diff(theta)
        if not np.all(steps > 0.0):
            raise InvalidGrid("theta grid must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-15):
            raise InvalidGrid("theta grid must be uniform")
        tol = 1e-9
        if theta[0] < -_HALF_PI - tol or theta[-1] > _HALF_PI + tol:
            raise InvalidGrid("theta grid must lie within [-pi/2, pi/2]")
        if not np.all(np.isfinite(gains)) or np.any(gains < 0.0):
            raise InvalidGrid("gains must be finite and >= 0")
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
        raise GridMismatch("pattern grids have different theta samples")
    return PatternGrid(c1.theta_samples, c1.gains * c2.gains)


@dataclass(frozen=True)
class BeamwidthResult:
    width: float
    no_crossing: bool


def beamwidth_3db(p: PatternGrid) -> BeamwidthResult:
    """Width between the first crossings of ``peak / sqrt(2)`` on either
    side of the peak (amplitude convention, linear interpolation).

    Ties for the peak are broken toward theta = 0. If the pattern never
    drops 3 dB on both sides within the cut the full cut width is returned
    with ``no_crossing`` set.
    """
    gains = p.gains
    theta = p.theta_samples
    peak = gains.max()
    if peak <= 0.0:
        raise ValueError("pattern has no positive peak")
    candidates = np.nonzero(gains == peak)[0]
    k = int(candidates[np.argmin(np.abs(theta[candidates]))])
    threshold = peak / math.sqrt(2.0)

    def cross(indices) -> float | None:
        prev = k
        for i in indices:
            if gains[i] < threshold:
                g0, g1 = gains[prev], gains[i]
                frac = (g0 - threshold) / (g0 - g1)
                return float(theta[prev] + frac * (theta[i] - theta[prev]))
            prev = i
        return None

    left = cross(range(k - 1, -1, -1))
    right = cross(range(k + 1, theta.size))
    if left is None or right is None:
        return BeamwidthResult(width=float(theta[-1] - theta[0]),
                               no_crossing=True)
    return BeamwidthResult(width=right - left, no_crossing=False)


def find_lobes(p: PatternGrid, min_amplitude: float) -> list[float]:
    """Theta positions of local maxima with amplitude >= ``min_amplitude``
    (grid endpoints excluded)."""
    gains = p.gains
    theta = p.theta_samples
    lobes = []
    for i in range(1, gains.size - 1):
        if gains[i] < min_amplitude:
            continue
        if gains[i] > gains[i - 1] and gains[i] >= gains[i + 1]:
            lobes.append(float(theta[i]))
    return lobes


def read_pattern_csv(source: str | Path) -> PatternGrid:
    """Load a measured cut from CSV with header ``theta_deg,gain_db``;
    gain_db is converted to linear amplitude via ``10**(db/20)``. A row
    that is not two numbers raises ``ValueError`` naming its file and
    line."""
    text = Path(source).read_text(encoding="utf-8")
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header[:2]] != ["theta_deg", "gain_db"]:
        raise ValueError("pattern CSV must start with header 'theta_deg,gain_db'")
    theta = []
    gains = []
    for row in reader:
        if not row or not row[0].strip():
            continue
        where = f"{source}:{reader.line_num}"
        if len(row) < 2:
            raise ValueError(f"{where}: expected theta_deg,gain_db, got {row!r}")
        try:
            theta.append(math.radians(float(row[0])))
            gains.append(10.0 ** (float(row[1]) / 20.0))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
        except OverflowError:
            raise ValueError(f"{where}: gain_db {row[1].strip()} is past the "
                             "float range") from None
    return PatternGrid(np.asarray(theta), np.asarray(gains))
