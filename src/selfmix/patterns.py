"""Antenna pattern cuts, self-mixing pattern multiplication and beam metrics.

Pattern values are linear *field amplitudes* (dimensionless, >= 0) tabulated
over a theta cut at fixed phi; a square-law receiver observing a two-tone
signal sees the product of the element's amplitude patterns at the two tone
frequencies, so the self-mixed receive pattern is the point-wise product of
the two cuts. dB columns written by the I/O helpers are power dB of the
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
from .tables import Table
from .units import DB_FLOOR, amplitude_ratio_to_db

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class PatternGrid:
    """Linear-amplitude gain cut over a uniform theta grid at fixed phi."""

    theta_samples: np.ndarray
    phi_cut: float
    gains: np.ndarray
    frequency: float

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
        return PatternGrid(self.theta_samples, self.phi_cut,
                           self.gains / peak, self.frequency)

    def gains_db(self, floor: float = DB_FLOOR) -> np.ndarray:
        return amplitude_ratio_to_db(self.gains, floor)


@dataclass(frozen=True)
class AnalyticPattern:
    """Closed-form element pattern stand-ins.

    * ``isotropic`` -- unity everywhere.
    * ``cos_q`` -- ``max(cos(theta), 0) ** q``; ``q`` steers the beamwidth.
    * ``two_beam`` -- normalized sum of two Gaussian beams tilted to
      ``+/-tilt`` with 1-sigma ``width`` (models a radiator whose broadside
      interferes destructively, leaving two off-axis main beams).
    """

    kind: str
    frequency: float
    q: float | None = None
    tilt: float | None = None
    width: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "isotropic":
            pass
        elif self.kind == "cos_q":
            if self.q is None or self.q < 0.0:
                raise ValueError("cos_q pattern needs q >= 0")
        elif self.kind == "two_beam":
            if self.tilt is None or not 0.0 < self.tilt < _HALF_PI:
                raise ValueError("two_beam pattern needs 0 < tilt < pi/2")
            if self.width is None or self.width <= 0.0:
                raise ValueError("two_beam pattern needs width > 0")
        else:
            raise ValueError(f"unknown pattern kind {self.kind!r}")

    @classmethod
    def isotropic(cls, frequency: float) -> "AnalyticPattern":
        return cls(kind="isotropic", frequency=frequency)

    @classmethod
    def cos_q(cls, q: float, frequency: float) -> "AnalyticPattern":
        return cls(kind="cos_q", frequency=frequency, q=q)

    @classmethod
    def two_beam(cls, tilt: float, width: float,
                 frequency: float) -> "AnalyticPattern":
        return cls(kind="two_beam", frequency=frequency, tilt=tilt, width=width)


def sample_pattern(pattern: AnalyticPattern,
                   theta_grid: np.ndarray | Sequence[float],
                   phi_cut: float = 0.0) -> PatternGrid:
    """Evaluate an analytic pattern on a theta grid (peak-normalized for
    ``two_beam``)."""
    theta = np.asarray(theta_grid, dtype=float)
    if pattern.kind == "isotropic":
        gains = np.ones_like(theta)
    elif pattern.kind == "cos_q":
        gains = np.clip(np.cos(theta), 0.0, None) ** pattern.q
    else:
        gains = (np.exp(-((theta - pattern.tilt) ** 2) / (2.0 * pattern.width ** 2))
                 + np.exp(-((theta + pattern.tilt) ** 2) / (2.0 * pattern.width ** 2)))
        gains = gains / gains.max()
    return PatternGrid(theta_samples=theta, phi_cut=phi_cut, gains=gains,
                       frequency=pattern.frequency)


def _check_same_grid(a: PatternGrid, b: PatternGrid) -> None:
    if a.theta_samples.shape != b.theta_samples.shape or not np.array_equal(
            a.theta_samples, b.theta_samples):
        raise GridMismatch("pattern grids have different theta samples")
    if a.phi_cut != b.phi_cut:
        raise GridMismatch("pattern grids have different phi cuts")


def self_mix_pattern(c1: PatternGrid, c2: PatternGrid) -> PatternGrid:
    """Receive pattern of one self-mixing element: point-wise product of the
    element's amplitude patterns at the two tone frequencies. The result is
    tagged with the difference frequency."""
    _check_same_grid(c1, c2)
    return PatternGrid(theta_samples=c1.theta_samples, phi_cut=c1.phi_cut,
                       gains=c1.gains * c2.gains,
                       frequency=abs(c1.frequency - c2.frequency))


def total_pattern(sm: PatternGrid,
                  array_factor: np.ndarray | Sequence[float]) -> PatternGrid:
    """Total array receive pattern: array factor times the element
    self-mixing pattern. ``array_factor`` holds the factor at each of
    ``sm.theta_samples``, e.g. from ``selfmix.arrays.if_array_factor_cut``."""
    af = np.asarray(array_factor, dtype=float)
    if af.shape != sm.theta_samples.shape:
        raise ValueError(f"array factor has shape {af.shape}, the cut has "
                         f"{sm.theta_samples.shape}")
    if np.any(af < 0.0) or not np.all(np.isfinite(af)):
        raise ValueError("array factor must be finite and >= 0")
    return PatternGrid(theta_samples=sm.theta_samples, phi_cut=sm.phi_cut,
                       gains=af * sm.gains, frequency=sm.frequency)


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


def read_pattern_csv(source: str | Path, frequency: float,
                     phi_cut: float = 0.0) -> PatternGrid:
    """Load a measured cut from CSV with header ``theta_deg,gain_db``;
    gain_db is converted to linear amplitude via ``10**(db/20)``."""
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
        theta.append(math.radians(float(row[0])))
        gains.append(10.0 ** (float(row[1]) / 20.0))
    return PatternGrid(theta_samples=np.asarray(theta), phi_cut=phi_cut,
                       gains=np.asarray(gains), frequency=frequency)


def write_pattern_csv(p: PatternGrid, target: str | Path) -> None:
    """Write a cut as CSV with header ``theta_deg,gain_db``."""
    Table(columns=["theta_deg", "gain_db"],
          rows=np.column_stack([np.degrees(p.theta_samples),
                                p.gains_db()]).tolist()).write(target)
