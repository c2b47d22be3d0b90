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
broadside response. :mod:`selfmix.validation` checks both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .tables import data_lines, split_fields
from .units import SPEED_OF_LIGHT

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
class ArrayGeometry:
    """Element positions in the z = 0 plane, metres, plus optional static RF
    feed phase offsets (applied at both tones, e.g. a rotated antenna row).
    """

    element_positions: np.ndarray
    rf_phase_offsets: np.ndarray | None = None

    def __post_init__(self) -> None:
        pos = np.asarray(self.element_positions, dtype=float)
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
    def planar_grid(cls, nx: int, ny: int, dx: float, dy: float) -> "ArrayGeometry":
        """Rectangular nx-by-ny grid (x-major ordering); ``ny = 1, dy = 0``
        is the uniform linear array along x."""
        if nx < 1 or ny < 1:  # no elements, whatever the other axis asks
            return cls(np.empty((0, 2)))
        with np.errstate(over="ignore"):  # an infinite position is rejected
            x, y = np.arange(nx) * dx, np.arange(ny) * dy
        return cls(np.column_stack([np.tile(x, ny), np.repeat(y, nx)]))


def parse_geometry(path: str | Path, max_elements: int) -> ArrayGeometry:
    """The layout in the table at ``path``: one element per line, columns
    ``x_m y_m [rf_phase_offset_deg]``. The lines are counted in a first
    pass that keeps none, and more than ``max_elements`` raise
    ``ValueError`` before any is parsed."""
    count = sum(1 for _ in data_lines(path))
    if count > max_elements:
        raise ValueError(f"element grid would have {count} points; "
                         f"the limit is {max_elements}")
    rows = []
    for where, text in data_lines(path):
        parts = split_fields(where, text)
        if len(parts) not in (2, 3):
            raise ValueError(f"{where}: expected 'x_m y_m "
                             f"[rf_phase_offset_deg]', got {text!r}")
        try:
            rows.append([float(part) for part in parts]
                        + [0.0] * (3 - len(parts)))  # no offset: 0 deg
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
    if not rows:
        raise ValueError(f"geometry table {path} contains no elements")
    table = np.array(rows)
    return ArrayGeometry(table[:, :2], np.radians(table[:, 2]))


def if_array_factor_cut(g: ArrayGeometry, f1: float, f2: float,
                        theta_signed: np.ndarray | Sequence[float],
                        phi_cut: float) -> np.ndarray:
    """Normalized IF array factor ``|sum_k exp(j*dphi_k)| / N`` along a
    signed-theta cut; ``dphi_k`` is set by ``f1 - f2`` only, and static RF
    feed offsets cancel."""
    return _array_factor(g, f1 - f2, np.asarray(theta_signed, dtype=float),
                         phi_cut, offsets=None)


def rf_array_factor_cut(g: ArrayGeometry, f_rf: float,
                        theta_signed: np.ndarray | Sequence[float],
                        phi_cut: float) -> np.ndarray:
    """Normalized RF array factor along a signed-theta cut; static feed
    offsets do enter here."""
    return _array_factor(g, f_rf, np.asarray(theta_signed, dtype=float),
                         phi_cut, offsets=g.rf_phase_offsets)


def cut_phase_count(g: ArrayGeometry, directions: int) -> int:
    """Nominal work of the IF and RF cut pair of ``directions`` directions
    each: per cut, ``directions * (|X| + |Y|)`` for a factorised product
    layout, ``directions * N`` otherwise (the IF cut passes no feed offsets,
    the RF cut ``g.rf_phase_offsets``). It bounds the (direction, element)
    pairs of a direct sum; the kernel itself evaluates one exponential per
    (direction bin, element) and a Taylor polynomial per direction."""
    return directions * sum(p.shape[0]
                            for offsets in (None, g.rf_phase_offsets)
                            for p, _ in _cut_layouts(g, offsets))


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values in ascending order, as ``np.unique`` gives them,
    by sort and adjacent compare; ``np.unique`` with no ``return_*`` flag
    would import ``numpy.ma``."""
    s = np.sort(values)
    return s[np.append(True, s[1:] != s[:-1])]


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
    xs, ys = _distinct(pos[:, 0]), _distinct(pos[:, 1])
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


def effective_spacing(d_element: float, delta_f: float) -> float:
    """Electrical element spacing governing the IF array factor:
    ``d * delta_f / c0`` (dimensionless; at an RF ``f`` the conventional
    electrical spacing is ``d * f / c0``). ``delta_f = 0`` is allowed and
    gives 0.
    """
    if d_element <= 0.0:
        raise ValueError("d_element must be positive")
    if delta_f < 0.0:
        raise ValueError("delta_f must be >= 0")
    return d_element * delta_f / SPEED_OF_LIGHT
