"""Deterministic tabular output (CSV / JSON) shared by sweeps and the CLI.

Floats are formatted to 9 significant digits; identical inputs therefore
produce byte-identical files. CSV is RFC-4180 with LF line endings and a
header row whose column names carry the units (``theta_deg``, ``if_power_dbm``
and so on).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence


def format_value(value: Any) -> str:
    """Render one cell: floats at 9 significant digits, the rest via str()."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _json_value(value: Any):
    if isinstance(value, float):
        # round-trip through the 9-digit form so JSON and CSV agree
        return float(f"{value:.9g}")
    return value


@dataclass
class Table:
    columns: list[str]
    rows: list[Sequence[Any]] = field(default_factory=list)

    def append(self, row: Sequence[Any]) -> None:
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(self.columns)}")
        self.rows.append(tuple(row))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        # a table of full rows of floats is written a row per %-format: a
        # formatted float never needs quoting, and "%.9g" renders a float
        # exactly as format_value does
        width = len(self.columns)
        cells = itertools.chain.from_iterable(self.rows)
        if (set(map(len, self.rows)) <= {width}
                and set(map(type, cells)) <= {float}):
            float_row = ",".join(["%.9g"] * width) + "\n"
            buf.writelines(map(float_row.__mod__, map(tuple, self.rows)))
        else:
            for row in self.rows:
                writer.writerow([format_value(v) for v in row])
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {
            "columns": list(self.columns),
            "rows": [[_json_value(v) for v in row] for row in self.rows],
        }
        return json.dumps(payload, indent=2) + "\n"

    def write(self, path: str | Path, fmt: str = "csv") -> None:
        text = self.to_csv() if fmt == "csv" else self.to_json()
        Path(path).write_text(text, encoding="utf-8", newline="")
