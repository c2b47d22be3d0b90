"""Deterministic tables of floats (CSV / JSON) for the CLI, and the one
reader of its input files (:func:`data_lines`, :func:`split_fields`).

Floats are formatted to 9 significant digits, exactly as ``"%.9g" % v``;
identical inputs therefore produce byte-identical files. CSV is RFC-4180
with LF line endings and a header row whose column names carry the units
(``theta_deg``, ``if_power_dbm`` and so on).

A table holds its rows as one 2-D float ``ndarray``, and
:func:`format_floats` writes it as whole arrays, in blocks of
:data:`FORMAT_BLOCK` cells. A cell's decimal exponent ``e`` is
``floor(log10(|v|))`` and its 9-digit mantissa ``rint(|v| * 10^(8 - e))``,
the scaling one IEEE multiply or divide by an exact power of ten
(``10^k``, ``|k| <= 22``). That one operation lands within half an ulp of
the exact scaled value, so ``rint`` rounds as the correctly rounded
conversion behind ``%`` does except next to a tie (Clinger, "How to Read
Floating Point Numbers Accurately", PLDI 1990). Each cell becomes a record
of four 8-byte words: per-exponent templates lay out ``%g``'s fixed and
exponential forms, a lookup of 4-digit groups supplies the digits and
drops trailing zeros, and one ``bytes.translate`` compacts the records. A
cell the kernel cannot prove exact (+-0, NaN, +-inf, ``e`` outside
[-14, 30], a scaled mantissa within 1e-6 of a rounding tie or outside
[1e8, 1e9), as where ``log10`` misses by one next to a power of ten) is
formatted by CPython's own ``"%.9g" % v``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np


# Cells per block of format_floats. Its temporaries take 8 bytes a cell
# (32 for the records); on 18 001 x 6 tables, 2^13 and 2^14 cells time best,
# and blocks of 2^16 and more take up to twice as long.
FORMAT_BLOCK = 1 << 13

# Decimal exponents the kernel formats: 10^(8 - e) is an exact double.
_E_MIN, _E_MAX = -14, 30
_EXPONENTS = np.arange(_E_MIN, _E_MAX + 1)

# A cell's record is four 8-byte words; a 0 byte is dropped when compacting.
#   word 0: sign, "0.", the three zeros after "0.", (unused), digit 0
#   word 1: point, digit 1, point, digit 2, point, digit 3, point, digit 4
#   word 2: point, digit 5, ..., point, digit 8
#   word 3: "e", exponent sign, two exponent digits, separator, (unused)
# The point slot before digit j holds the point that follows digit j - 1.
# Words are only and-ed and or-ed, which acts bytewise on either byte order.


def _words(octets: np.ndarray) -> np.ndarray:
    """(..., 8) bytes as (...) 8-byte words."""
    return np.ascontiguousarray(octets, dtype=np.uint8).view(np.uint64)[..., 0]


def _exponent_words() -> tuple[np.ndarray, ...]:
    """What the exponent e fixes, per e: word 0 for each (sign, digit 0);
    the and-mask of words 1 and 2 (0xFF at digit slots, the point at the
    slot that shows it); their or-mask (a "0" at the integer digits of the
    fixed form, which show even as trailing zeros); word 3."""
    e = _EXPONENTS[:, None]
    fixed = (e >= -4) & (e < 9)
    small = fixed & (e < 0)  # "0.000ddd"
    whole = fixed & (e >= 0)
    lead = np.zeros((_EXPONENTS.size, 2, 10, 8), dtype=np.uint8)
    lead[:, 1, :, 0] = ord("-")
    lead[..., 1:3] = np.where(small, np.frombuffer(b"0.", np.uint8),
                              0)[:, None, None]
    lead[..., 3:6] = np.where(small & (np.arange(3) < -e - 1), ord("0"),
                              0)[:, None, None]
    lead[..., 7] = ord("0") + np.arange(10)
    digit = np.repeat(np.arange(1, 9), 2)  # the digit each slot of 1-2 serves
    is_point = np.arange(16) % 2 == 0
    point = np.where(whole, e, 0)  # the digit the point follows
    keep = np.where(is_point, np.where(~small & (digit == point + 1),
                                       ord("."), 0), 0xFF)
    show = np.where(~is_point & whole & (digit <= e), ord("0"), 0)
    tail = np.zeros((_EXPONENTS.size, 8), dtype=np.uint8)
    tail[:, 0] = ord("e")
    tail[:, 1] = np.where(_EXPONENTS < 0, ord("-"), ord("+"))
    tail[:, 2] = ord("0") + abs(_EXPONENTS) // 10
    tail[:, 3] = ord("0") + abs(_EXPONENTS) % 10
    tail[:, :4] *= ~fixed
    by_word = (lambda masks: np.ascontiguousarray(
        _words(masks.reshape(-1, 2, 8)).T))
    return _words(lead).ravel(), by_word(keep), by_word(show), _words(tail)


def _group_words() -> np.ndarray:
    """Words 1 and 2 of the 4-digit groups 0000..9999, each built from two
    digit pairs: every ASCII digit with a 0xFF mask for the point slot
    before it. Entries 10000 on leave out (as 0 bytes) the group's trailing
    zeros and the point slots before them."""
    pairs = np.arange(100)[:, None]
    full = np.full((100, 4), 0xFF, dtype=np.uint8)
    full[:, 1::2] = ord("0") + pairs // np.array([10, 1]) % 10
    trimmed = full * np.repeat(pairs % np.array([100, 10]) != 0, 2, axis=1)
    octets = np.empty((2, 100, 100, 8), dtype=np.uint8)  # (trim, high, low)
    octets[0, ..., :4] = full[:, None]
    octets[1, ..., :4] = np.where((pairs.T == 0)[..., None], trimmed[:, None],
                                  full[:, None])
    octets[..., 4:] = np.stack([full, trimmed])[:, None]
    return _words(octets).ravel()


_LEAD, _KEEP, _SHOW, _TAIL = _exponent_words()
_GROUPS = _group_words()
# a * _SCALE_UP[e - _E_MIN] / _SCALE_DOWN[e - _E_MIN] is a * 10^(8 - e):
# one exact power of ten on one side, 1 on the other
_SCALE_UP = np.array([float(10 ** max(8 - e, 0))
                      for e in range(_E_MIN, _E_MAX + 1)])
_SCALE_DOWN = np.array([float(10 ** max(e - 8, 0))
                        for e in range(_E_MIN, _E_MAX + 1)])


def _format_block(values: np.ndarray, separators: np.ndarray) -> bytes:
    """The cells of a (rows, columns) block, each followed by the byte its
    column's word of ``separators`` holds."""
    v = values.ravel()
    usable = np.isfinite(v) & (v != 0.0)
    a = np.where(usable, np.abs(v), 1.0)
    row = (np.clip(np.floor(np.log10(a)), _E_MIN, _E_MAX).astype(np.int64)
           - _E_MIN)
    scaled = a * _SCALE_UP.take(row) / _SCALE_DOWN.take(row)  # rounded once
    mantissa = np.rint(scaled)
    # a cell whose scaled value does not round to 9 digits (an exponent
    # outside [-14, 30], log10 one off next to a power of ten, rounding up
    # into the next decade) or lies within 1e-6 of a tie is left to the
    # fallback
    exact = (usable & (scaled >= 1e8) & (mantissa < 1e9)
             & (np.abs(scaled - mantissa) <= 0.5 - 1e-6))
    # 9 digits fit in int32, whose floor division is much faster than
    # int64 divmod
    digits = np.where(exact, mantissa, 1e8).astype(np.int32)
    first = digits // 100_000_000
    rest = digits - first * 100_000_000
    high = rest // 10_000
    low = rest - high * 10_000
    words = np.empty((v.size, 4), dtype=np.uint64)
    words[:, 0] = _LEAD.take(row * 20 + (v < 0.0) * 10 + first)
    words[:, 1] = (_KEEP[0].take(row)
                   & _GROUPS.take(high + (low == 0) * 10_000)
                   | _SHOW[0].take(row))
    words[:, 2] = (_KEEP[1].take(row) & _GROUPS.take(low + 10_000)
                   | _SHOW[1].take(row))
    words[:, 3] = _TAIL.take(row)
    words.reshape(values.shape + (4,))[..., 3] |= separators
    records = words.view(np.uint8).reshape(-1, 32)
    slow = np.flatnonzero(~exact)
    if slow.size:  # "%.9g" of any float fits before the separator
        text = ("%-28.9g" * slow.size) % tuple(v[slow].tolist())
        records[slow, :28] = np.frombuffer(text.encode("ascii"),
                                           np.uint8).reshape(-1, 28)
    return records.tobytes().translate(None, b"\0 ")


def format_floats(rows: np.ndarray) -> str:
    """CSV body of a 2-D float array: every cell as ``"%.9g" % v``,
    separated by commas, every row ended by a newline."""
    rows = np.asarray(rows, dtype=np.float64)
    width = rows.shape[1]
    separators = np.zeros((width, 8), dtype=np.uint8)
    separators[:, 4] = ord(",")
    separators[-1:, 4] = ord("\n")
    step = max(1, FORMAT_BLOCK // width)
    return b"".join(_format_block(rows[lo:lo + step], _words(separators))
                    for lo in range(0, rows.shape[0], step)).decode("ascii")


def json_document(columns: list[str], rows: list[list]) -> str:
    """``{"columns": ..., "rows": ...}`` as indented, newline-ended JSON."""
    return json.dumps({"columns": columns, "rows": rows}, indent=2) + "\n"


@dataclass
class Table:
    """Named columns over one 2-D float ``ndarray``, one row per line.
    Column names are plain identifiers, written as they are."""

    columns: list[str]
    rows: np.ndarray

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.columns):
            raise ValueError(f"rows of shape {self.rows.shape}, expected "
                             f"(rows, {len(self.columns)})")

    def to_csv(self) -> str:
        return ",".join(self.columns) + "\n" + format_floats(self.rows)

    def to_json(self) -> str:
        # each cell is read back from its CSV text, so JSON and CSV agree
        return json_document(self.columns, [
            [float(cell) for cell in line.split(",")]
            for line in format_floats(self.rows).splitlines()])

    def write(self, path: str | Path, fmt: str) -> None:
        text = self.to_csv() if fmt == "csv" else self.to_json()
        Path(path).write_text(text, encoding="utf-8", newline="")


# Characters of an input line before its newline: far above any line the
# input formats need, a 4096-byte PATH_MAX included.
MAX_LINE = 1 << 16


def data_lines(path: str | Path) -> Iterator[tuple[str, str]]:
    """``(where, text)`` for each line of the UTF-8 file at ``path`` that
    holds more than a ``#`` comment: ``text`` stripped of the comment and
    whitespace, ``where`` as ``"PATH:N"``. Bad UTF-8, or a line of more
    than :data:`MAX_LINE` characters (never held whole), raises
    ``ValueError``."""
    try:
        with open(path, encoding="utf-8") as lines:
            # MAX_LINE characters and their newline come back whole
            for lineno, raw in enumerate(
                    iter(lambda: lines.readline(MAX_LINE + 1), ""), start=1):
                if len(raw) > MAX_LINE and raw[-1] != "\n":
                    raise ValueError(f"{path}:{lineno}: line longer than "
                                     f"{MAX_LINE} characters")
                text = raw.split("#", 1)[0].strip()
                if text:
                    yield f"{path}:{lineno}", text
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text") from exc


def split_fields(where: str, text: str) -> list[str]:
    """The fields of a table line, separated by a comma and/or whitespace;
    an empty field raises ``ValueError`` naming ``where``."""
    if any(not field.strip() for field in text.split(",")):
        raise ValueError(f"{where}: empty field in {text!r}")
    return text.replace(",", " ").split()
