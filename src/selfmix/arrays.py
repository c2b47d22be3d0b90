"""Array geometry, plane-wave phases and the IF / RF array factors.

The central result implemented here: when every array element square-law
mixes a two-tone signal and the IF outputs are combined in phase, the
per-element IF phase is governed by the tone *difference* frequency only,

    phase_k(IF) = 2*pi * (r_k . u) * (f1 - f2) / c0,

whereas a conventional RF combiner sees ``2*pi * (r_k . u) * f_rf / c0``.
The IF array factor therefore varies slowly with angle even for element
spacings of many RF wavelengths, while the equivalent RF array factor shows
grating lobes. In the limit of vanishing tone spacing the IF factor
approaches 1 at every angle and an N-element array contributes a full
factor-N power gain over the whole angular range.

A per-element RF phase offset (e.g. a 180-degree feed rotation of one
antenna row) enters both tones identically and cancels in the self-mixed
IF signal; the same offset applied to an RF-combined array nulls the
broadside response. :func:`simulate_array_timedomain` demonstrates both
effects with brute-force waveform synthesis rather than phasor algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateEqualFrequencies,
    EmptyInput,
    InvalidGrid,
    NonPositiveInput,
)
from .signals import MAX_SAMPLES, plan_sampling
from .units import DB_FLOOR, SPEED_OF_LIGHT

_TWO_PI = 2.0 * math.pi
# entries of each matrix of the array-factor kernel (bins x elements and
# elements x Taylor terms): memory stays bounded for any cut length and
# element count, and a block stays within the CPU caches
FACTOR_BLOCK = 1 << 16
# Taylor radius and order of the array-factor kernel: within a direction bin
# every element phase moves by at most FACTOR_RHO about the bin centre, and
# FACTOR_RHO**(P+1) / (P+1)! * e**FACTOR_RHO = 1.1e-18 <= 1e-17 bounds the
# truncation error of the factor (19 is the least order meeting 1e-17)
FACTOR_RHO = 1.0
FACTOR_ORDER = 19
# rows of each BLAS product of the kernel (see _bin_moments)
_GEMM_ROWS = 16
_ORDERS = np.arange(1.0, FACTOR_ORDER + 1)
_POWERS_OF_J = np.array([1j ** m for m in range(FACTOR_ORDER + 1)])


@dataclass(frozen=True)
class Direction:
    """Arrival direction: ``theta`` polar from the +z broadside normal,
    ``phi`` azimuth from +x, both in radians."""

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        object.__setattr__(self, "phi",
                           (self.phi + math.pi) % _TWO_PI - math.pi)

    def in_plane_unit(self) -> np.ndarray:
        """Projection of the arrival unit vector onto the array plane."""
        s = math.sin(self.theta)
        return np.array([s * math.cos(self.phi), s * math.sin(self.phi)])


def cut_direction(theta_signed: float, phi_cut: float) -> Direction:
    """Direction for a signed-theta pattern cut: negative theta maps to the
    opposite azimuth half-plane."""
    if theta_signed >= 0.0:
        return Direction(theta=theta_signed, phi=phi_cut)
    return Direction(theta=-theta_signed, phi=phi_cut + math.pi)


@dataclass(frozen=True)
class ArrayGeometry:
    """Element positions in the z = 0 plane, metres, plus optional static RF
    feed phase offsets (applied at both tones, e.g. a rotated antenna row).
    """

    element_positions: np.ndarray
    rf_phase_offsets: np.ndarray | None = None

    def __post_init__(self) -> None:
        pos = np.asarray(self.element_positions, dtype=float)
        if pos.ndim == 1:
            pos = pos.reshape(-1, 2) if pos.size == 2 else pos
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ValueError("element_positions must have shape (N, 2), "
                             "N >= 1")
        if not np.all(np.isfinite(pos)):
            raise ValueError("element positions must be finite")
        # no two elements may coincide: after a stable sort equal rows are
        # adjacent (the sort, like ==, takes -0.0 and 0.0 as equal)
        order = np.lexsort((pos[:, 1], pos[:, 0]))
        ranked = pos[order]
        same = np.all(ranked[1:] == ranked[:-1], axis=1)
        if same.any():
            k = int(np.argmax(same))
            raise ValueError(f"elements {order[k]} and {order[k + 1]} coincide")
        offsets = self.rf_phase_offsets
        if offsets is None:
            offsets = np.zeros(pos.shape[0])
        offsets = np.asarray(offsets, dtype=float)
        if offsets.shape != (pos.shape[0],):
            raise ValueError("rf_phase_offsets must have one entry per element")
        if not np.all(np.isfinite(offsets)):
            raise ValueError("rf_phase_offsets must be finite")
        pos = pos.copy()
        offsets = offsets.copy()
        pos.flags.writeable = False
        offsets.flags.writeable = False
        object.__setattr__(self, "element_positions", pos)
        object.__setattr__(self, "rf_phase_offsets", offsets)

    @property
    def element_count(self) -> int:
        return self.element_positions.shape[0]

    @classmethod
    def linear(cls, count: int, spacing: float) -> "ArrayGeometry":
        """Uniform linear array along x with the given element spacing."""
        x = np.arange(count) * spacing
        return cls(np.column_stack([x, np.zeros(count)]))

    @classmethod
    def planar_grid(cls, nx: int, ny: int, dx: float, dy: float) -> "ArrayGeometry":
        """Rectangular nx-by-ny grid (x-major ordering)."""
        if nx < 1 or ny < 1:  # no elements, whatever the other axis asks
            return cls(np.empty((0, 2)))
        with np.errstate(over="ignore"):  # an infinite position is rejected
            x, y = np.arange(nx) * dx, np.arange(ny) * dy
        return cls(np.column_stack([np.tile(x, ny), np.repeat(y, nx)]))

    def with_rf_phase_offsets(self, offsets: Sequence[float]) -> "ArrayGeometry":
        return replace(self, rf_phase_offsets=np.asarray(offsets, dtype=float))


def load_geometry(source: str | Path,
                  max_elements: int | None = None) -> ArrayGeometry:
    """Read a geometry table: one element per line, whitespace- or
    comma-separated columns ``x_m  y_m  [rf_phase_offset_deg]``; ``#`` starts
    a comment."""
    path = Path(source)
    return parse_geometry(path.read_text(encoding="utf-8"), max_elements)


def parse_geometry(text: str, max_elements: int | None = None) -> ArrayGeometry:
    """Parse a geometry table (see :func:`load_geometry`). A table of more
    than ``max_elements`` element lines is rejected with
    :class:`InvalidGrid` before any line is parsed."""
    rows = [(lineno, raw, line)
            for lineno, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.split("#", 1)[0].strip())]
    if max_elements is not None and len(rows) > max_elements:
        raise InvalidGrid(f"element grid would have {len(rows)} points; "
                          f"the limit is {max_elements}")
    positions = []
    offsets = []
    for lineno, raw, line in rows:
        parts = line.replace(",", " ").split()
        if len(parts) not in (2, 3):
            raise ValueError(
                f"geometry line {lineno}: expected 'x_m y_m "
                f"[rf_phase_offset_deg]', got {raw!r}")
        x, y = float(parts[0]), float(parts[1])
        off_deg = float(parts[2]) if len(parts) == 3 else 0.0
        positions.append((x, y))
        offsets.append(math.radians(off_deg))
    if not positions:
        raise EmptyInput("geometry table contains no elements")
    return ArrayGeometry(np.asarray(positions), np.asarray(offsets))


@dataclass(frozen=True)
class TwoToneIllumination:
    """Plane-wave two-tone illumination of the array."""

    f1: float
    f2: float
    amplitudes: tuple[float, float]
    direction: Direction

    def __post_init__(self) -> None:
        if self.f1 <= 0.0 or self.f2 <= 0.0:
            raise ValueError("tone frequencies must be positive")
        if self.f1 == self.f2:
            raise DegenerateEqualFrequencies(
                "two-tone illumination needs distinct frequencies")
        a1, a2 = self.amplitudes
        if a1 < 0.0 or a2 < 0.0:
            raise ValueError("amplitudes must be >= 0")
        object.__setattr__(self, "amplitudes", (float(a1), float(a2)))

    @property
    def if_frequency(self) -> float:
        return abs(self.f1 - self.f2)


@dataclass(frozen=True)
class ArrayIfResult:
    """IF output of the combined array relative to one isotropic element."""

    if_power_rel_db: float
    if_phase: float


def element_phases(g: ArrayGeometry, d: Direction, frequency: float) -> np.ndarray:
    """Plane-wave phase of every element relative to element 0 at the given
    frequency: ``2*pi * (r_k . u) * f / c0`` (the time-domain oracle's own
    route, independent of the array-factor kernel). Phases that overflow
    raise :class:`ValueError`."""
    u = d.in_plane_unit()
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        rel = g.element_positions - g.element_positions[0]
        phases = _TWO_PI * (rel @ u) * frequency / SPEED_OF_LIGHT
    if not np.all(np.isfinite(phases)):
        raise ValueError("element phases overflow")
    return phases


def if_array_factor_cut(g: ArrayGeometry, f1: float, f2: float,
                        theta_signed: np.ndarray | Sequence[float],
                        phi_cut: float) -> np.ndarray:
    """Normalized IF array factor ``|sum_k exp(j*dphi_k)| / N`` along a
    signed-theta cut; ``dphi_k`` is set by ``f1 - f2`` only, and static RF
    feed offsets cancel. A :class:`Direction` ``d`` is the one-element cut
    ``theta_signed = [d.theta]`` at ``phi_cut = d.phi``."""
    return _array_factor(g, f1 - f2, np.asarray(theta_signed, dtype=float),
                         phi_cut, offsets=None)


def rf_array_factor_cut(g: ArrayGeometry, f_rf: float,
                        theta_signed: np.ndarray | Sequence[float],
                        phi_cut: float) -> np.ndarray:
    """Normalized RF array factor along a signed-theta cut; static feed
    offsets do enter here."""
    return _array_factor(g, f_rf, np.asarray(theta_signed, dtype=float),
                         phi_cut, offsets=g.rf_phase_offsets)


def cut_phase_count(g: ArrayGeometry, directions: int,
                    offsets: np.ndarray | None = None) -> int:
    """Nominal work of a cut of ``directions`` directions (``offsets`` as
    the cut passes them: None for the IF cut, ``g.rf_phase_offsets`` for the
    RF cut): ``directions * (|X| + |Y|)`` for a factorised product layout,
    ``directions * N`` otherwise. It bounds the (direction, element) pairs
    of a direct sum; the kernel itself evaluates one exponential per
    (direction bin, element) and a Taylor polynomial per direction."""
    return directions * sum(p.shape[0] for p, _ in _cut_layouts(g, offsets))


def _cut_layouts(g: ArrayGeometry, offsets: np.ndarray | None
                 ) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Sub-layouts and their offsets whose phasor means multiply to the cut.

    A product layout, whose distinct x values X and y values Y give
    ``|X| * |Y| = N`` (exact, as no two elements coincide), with no or equal
    feed offsets factorises into the sub-layouts (X, 0) and (0, Y). Every
    other layout is one sub-layout of all elements. A common feed phase
    drops out of the magnitude, so equal offsets are passed as None."""
    pos = g.element_positions
    if offsets is not None and np.all(offsets == offsets[0]):
        offsets = None
    xs, ys = np.unique(pos[:, 0]), np.unique(pos[:, 1])
    if xs.size * ys.size == pos.shape[0] and offsets is None:
        return [(np.column_stack([xs, np.zeros(xs.size)]), None),
                (np.column_stack([np.zeros(ys.size), ys]), None)]
    return [(pos, offsets)]


def _array_factor(g: ArrayGeometry, frequency: float, theta: np.ndarray,
                  phi_cut: float, offsets: np.ndarray | None) -> np.ndarray:
    """``|mean_k exp(j*phase_k)|`` per direction, the product over the
    sub-layouts of :func:`_cut_layouts`. Element phases that overflow raise
    :class:`ValueError` before any direction is evaluated."""
    # signed theta at fixed phi is |theta| at phi or phi + pi: along the cut
    # every phase is a_k * sin(theta) + offset_k, a_k the phase per unit
    # sin(theta) of element k relative to element 0
    along = np.array([math.cos(phi_cut), math.sin(phi_cut)])
    wavenumber = _TWO_PI * frequency / SPEED_OF_LIGHT
    layouts = []
    for pos, off in _cut_layouts(g, offsets):
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            slopes = wavenumber * ((pos - pos[0]) @ along)
        if not np.all(np.isfinite(slopes)):
            raise ValueError("array factor is not finite: the element "
                             "phases overflow")
        layouts.append((slopes, None if off is None else np.exp(1j * off)))
    s = np.sin(theta)
    return math.prod(_phasor_mean(s, slopes, weights)
                     for slopes, weights in layouts)


def _phasor_mean(s: np.ndarray, slopes: np.ndarray,
                 weights: np.ndarray | None) -> np.ndarray:
    """``|mean_k w_k exp(j*a_k*s)|`` for each ``s = sin(theta)``, with
    ``a_k = slopes`` (finite) and ``w_k = weights`` (None: all 1).

    A blocked Taylor expansion in ``s`` (Anderson & Dahleh, "Rapid
    computation of the discrete Fourier transform", SIAM J. Sci. Comput.
    17(4), 1996): the directions are binned by ``s`` into bins of width
    ``h = 2*FACTOR_RHO / max|a_k|`` centred on integer multiples ``c`` of
    ``h``, and only occupied bins are kept, so there are no more bins than
    directions. With ``t = 2*(s - c)/h`` in [-1, 1] and
    ``b_k = a_k*h/2`` in [-FACTOR_RHO, FACTOR_RHO],

        sum_k w_k exp(j*a_k*s) = sum_m t**m * G_m,
        G_m = sum_k w_k exp(j*a_k*c) * (j*b_k)**m / m!,

    truncated after m = :data:`FACTOR_ORDER`. Each bin takes one
    exponential per element and a matrix product for its moments ``G_m``;
    each direction takes a Horner pass in ``t``. Bins go through in blocks
    and elements in chunks, so that no matrix exceeds :data:`FACTOR_BLOCK`
    entries."""
    amax = float(np.max(np.abs(slopes)))
    b = (slopes / amax * FACTOR_RHO if amax > 0.0
         else np.zeros(slopes.size))
    x = s * (0.5 * amax / FACTOR_RHO)  # s in units of h
    centre = np.rint(x)
    t = 2.0 * (x - centre)  # exact
    order = np.argsort(centre, kind="stable")
    bins, first, counts = np.unique(centre[order], return_index=True,
                                    return_counts=True)
    bin_of = np.repeat(np.arange(bins.size), counts)  # per sorted direction
    first = np.append(first, s.size)
    chunk = min(slopes.size, FACTOR_BLOCK // (FACTOR_ORDER + 1))
    per_block = FACTOR_BLOCK // chunk // _GEMM_ROWS * _GEMM_ROWS
    af = np.empty(s.size)
    for lo in range(0, bins.size, per_block):
        hi = min(lo + per_block, bins.size)
        coeffs = _bin_moments(bins[lo:hi], b, weights, chunk).T.copy()
        span = slice(first[lo], first[hi])
        local, tt = bin_of[span] - lo, t[order[span]]
        acc = coeffs[FACTOR_ORDER][local]
        for m in range(FACTOR_ORDER - 1, -1, -1):
            acc *= tt
            acc += coeffs[m][local]
        af[order[span]] = np.abs(acc) / slopes.size
    return af


def _bin_moments(centres: np.ndarray, b: np.ndarray,
                 weights: np.ndarray | None, chunk: int) -> np.ndarray:
    """The moments ``G_m`` (one row per bin) of :func:`_phasor_mean`, summed
    over chunks of ``chunk`` elements.

    The bins go through BLAS as a stack of :data:`_GEMM_ROWS`-row products,
    the last one padded with zero rows: OpenBLAS runs such a product on one
    thread, and one row's result does not depend on the other rows. (A
    taller product is split over threads, whose wake-up can cost
    milliseconds on a busy host and whose split changes the rounding; a
    one-row product goes to a matrix-vector routine that rounds
    differently.)"""
    rows = -(-centres.size // _GEMM_ROWS) * _GEMM_ROWS
    padded = np.zeros(rows)
    padded[:centres.size] = centres
    moments = np.zeros((rows, FACTOR_ORDER + 1), dtype=complex)
    for k in range(0, b.size, chunk):
        phasors = _centre_phasors(padded, b[k:k + chunk])
        terms = _taylor_terms(b[k:k + chunk],
                              None if weights is None else weights[k:k + chunk])
        moments += (phasors.reshape(-1, _GEMM_ROWS, phasors.shape[1])
                    @ terms).reshape(rows, -1)
    return moments[:centres.size]


def _centre_phasors(centres: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``exp(j*a_k*c)`` for bin centres ``c = centres * h``: ``a_k*h`` is
    ``2*b_k``, so no phase exceeds ``max|a_k|`` (plus ``FACTOR_RHO``) and
    every phase of finite slopes is finite."""
    phase = np.outer(centres, 2.0 * b)
    phasors = np.empty(phase.shape, dtype=complex)
    phasors.real = np.cos(phase)
    phasors.imag = np.sin(phase)
    return phasors


def _taylor_terms(b: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    """``w_k * (j*b_k)**m / m!`` for m = 0 .. :data:`FACTOR_ORDER`."""
    ratios = np.empty((b.size, FACTOR_ORDER + 1))
    ratios[:, 0] = 1.0
    ratios[:, 1:] = b[:, None] / _ORDERS
    terms = np.cumprod(ratios, axis=1) * _POWERS_OF_J  # b**m / m! * j**m
    return terms if weights is None else terms * weights[:, None]


def effective_spacing(d_element: float, delta_f: float, f_ref: float) -> float:
    """Electrical element spacing governing the IF array factor:
    ``d * delta_f / c0`` (dimensionless).

    ``f_ref`` is the RF used for comparison reporting (``d * f_ref / c0`` is
    the conventional electrical spacing); it must be positive but does not
    enter this value. ``delta_f = 0`` is allowed and gives 0.
    """
    if d_element <= 0.0:
        raise NonPositiveInput("d_element must be positive")
    if f_ref <= 0.0:
        raise NonPositiveInput("f_ref must be positive")
    if delta_f < 0.0:
        raise NonPositiveInput("delta_f must be >= 0")
    return d_element * delta_f / SPEED_OF_LIGHT


def combine_elements(amplitudes: Sequence[float], phases: Sequence[float],
                     combiner_loss_db: float = 0.0) -> float:
    """Power gain in dB of an ideal matched N-to-1 combiner with scalar
    loss.

    Output amplitude is ``sum(phasors) / sqrt(N)``; the power gain is
    referred to the first element's power, so N equal co-phased inputs
    give ``10*log10(N) - loss``. Full cancellation reports the -200 dB
    floor.
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    phases = np.asarray(phases, dtype=float)
    if amplitudes.size == 0:
        raise EmptyInput("combiner needs at least one input")
    if amplitudes.shape != phases.shape:
        raise ValueError("amplitudes and phases must have the same length")
    if combiner_loss_db < 0.0:
        raise ValueError("combiner_loss_db must be >= 0")
    if amplitudes[0] == 0.0:
        raise ValueError("reference element amplitude must be non-zero")
    n = amplitudes.size
    total = np.sum(amplitudes * np.exp(1j * phases))
    ratio = abs(total) / (math.sqrt(n) * abs(amplitudes[0]))
    if ratio <= 0.0:
        return DB_FLOOR
    return max(DB_FLOOR, 20.0 * math.log10(ratio) - combiner_loss_db)


def simulate_array_timedomain(g: ArrayGeometry, ill: TwoToneIllumination,
                              element_gains: np.ndarray | Sequence | None = None
                              ) -> ArrayIfResult:
    """Brute-force array oracle: one time-domain pass over an (N+1)-row
    array, one row per element and a last row for a single isotropic element
    at the origin. Along its row each waveform goes through the steps of
    ``signals.synthesize_waveform`` (the delayed and feed-shifted two-tone
    sum), ``square_law_mix``, ``apply_filter`` (a band-pass around the IF)
    and ``dft_spectrum`` (the IF tone); the element tones are summed
    coherently with ``1/sqrt(N)`` combiner normalization.

    ``element_gains`` may be one amplitude gain per element or an (N, 2)
    array with separate gains at the two tones. The result is the IF power
    in dB relative to a single isotropic element under the same
    illumination, so broadside with unit gains gives ``10*log10(N)``.
    """
    n = g.element_count
    a1, a2 = ill.amplitudes
    if not (0.0 < a1 < math.inf and 0.0 < a2 < math.inf):
        raise ValueError("illumination amplitudes must be positive and finite")
    if element_gains is None:
        gains = np.ones((n, 2))
    else:
        gains = np.asarray(element_gains, dtype=float)
        if gains.shape == (n,):
            gains = np.column_stack([gains, gains])
        if gains.shape != (n, 2):
            raise ValueError(f"element_gains must have shape ({n},) or ({n}, 2)")
    with np.errstate(over="ignore"):  # an overflowing amplitude is rejected
        amps = np.vstack([gains * (a1, a2), (a1, a2)])
    if not np.all((amps >= 0.0) & (amps < math.inf)):  # NaN fails both
        raise ValueError("element gains must be >= 0 and give finite tone "
                         "amplitudes")

    # the planned rate exceeds 4 * max(f1, f2) >= 4 * IF, so the squared
    # waveform and the band edge 1.5 * IF lie below Nyquist, and the record
    # spans a whole period of every tone
    if_freq = ill.if_frequency
    rate, duration = plan_sampling([ill.f1, ill.f2, if_freq])
    samples = int(round(duration * rate))
    t = np.arange(samples) / rate
    phases = np.zeros((n + 1, 2))
    for col, f in enumerate((ill.f1, ill.f2)):
        phases[:n, col] = (element_phases(g, ill.direction, f)
                           + g.rf_phase_offsets)
    phases = (phases + math.pi) % _TWO_PI - math.pi  # wrapped as ToneSpec does
    freqs = np.arange(samples // 2 + 1) * rate / samples
    drop = ~((freqs >= 0.5 * if_freq) & (freqs <= 1.5 * if_freq))
    k = round(if_freq / (rate / samples))

    # rows go through in blocks of at most MAX_SAMPLES samples, the memory
    # of one element's longest record
    tones = np.empty(n + 1, dtype=complex)
    rows = max(1, MAX_SAMPLES // samples)
    for lo in range(0, n + 1, rows):
        block = slice(lo, lo + rows)
        w = np.zeros((len(amps[block]), samples))
        for col, f in enumerate((ill.f1, ill.f2)):
            w += amps[block, col, None] * np.sin(_TWO_PI * f * t
                                                 + phases[block, col, None])
        w *= w  # square-law mix
        bins = np.fft.rfft(w, axis=1)
        bins[:, drop] = 0.0
        mixed = np.fft.irfft(bins, n=samples, axis=1)
        tones[block] = np.fft.rfft(mixed, axis=1)[:, k] / samples * 2.0
    tones[:n][np.any(amps[:n] == 0.0, axis=1)] = 0.0  # a dead element

    total = sum(tones[:n].tolist()) / math.sqrt(n)
    reference = complex(tones[n])
    ratio = abs(total) / abs(reference)
    if ratio <= 0.0:
        return ArrayIfResult(if_power_rel_db=DB_FLOOR, if_phase=0.0)
    phase = math.atan2((total / reference).imag, (total / reference).real)
    # scalar dB kept apart from units.amplitude_ratio_to_db: the oracle
    # shares no kernel with the fast path it checks
    return ArrayIfResult(if_power_rel_db=max(DB_FLOOR,
                                             20.0 * math.log10(ratio)),
                         if_phase=phase)
