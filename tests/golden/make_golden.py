"""Golden outputs: the bytes that the CLI must keep for unchanged configs.

Each case of :data:`CASES` runs ``selfmix.cli.main`` in process, in a fresh
working directory that holds the input files of ``inputs/``, with a relative
``--out``, so that the "wrote N rows to X" line it prints is the same on
every run. A case yields its output and what it printed:

- the output is the file it wrote, except for ``--help``, whose output is
  its text (argparse wraps it to ``COLUMNS``, pinned to 80), and for
  ``validate``, whose report is kept to its status and name columns (the
  residuals in its detail column move in the last digit across SIMD code
  paths; the checks themselves guard accuracy);
- each output is kept here as a file of the case's name, except the large
  cuts of :data:`HASHED`, which ``MANIFEST.json`` keeps as a SHA-256 and a
  row count;
- what each case printed is kept in ``MANIFEST.json`` (empty under
  ``--quiet``).

``tests/test_golden.py`` compares every case with these files. Only a change
that moves output digits on purpose rewrites them, by running, from the root
of the repository,

    PYTHONPATH=src python tests/golden/make_golden.py

and it names every moved 9-digit string in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import NamedTuple

from selfmix import cli

GOLDEN = Path(__file__).resolve().parent
INPUTS = GOLDEN / "inputs"
MANIFEST = GOLDEN / "MANIFEST.json"


class Case(NamedTuple):
    """One CLI run: ``name`` is the ``--out`` file (and the golden file's
    name), ``argv`` what follows ``selfmix``, ``config`` the text of the
    ``--config`` file, if any."""

    name: str
    argv: tuple[str, ...]
    config: str


def _table(command: str, name: str, config: str = "") -> list[Case]:
    """``command`` as CSV, printing its summary, and as JSON under
    ``--quiet``; ``name`` stems both file names."""
    return [Case(f"{name}.csv", (command, "--out", f"{name}.csv"), config),
            Case(f"{name}.json", (command, "--quiet", "--format", "json",
                                  "--out", f"{name}.json"), config)]


# the grid of the benchmark's sweep workload
BENCHMARK_GRID = ("bias_start_v = 0\nbias_stop_v = 0.8\nbias_step_v = 0.05\n"
                  "power_start_dbm = -60\npower_stop_dbm = 5\n"
                  "power_step_dbm = 5\n")
# 34/35 GHz sit on the even and odd bins 34 and 35 of their 1 GHz grid, so
# the mixer solves every sample of the record instead of half
MIXED_PARITY = "f1_hz = 34e9\nf2_hz = 35e9\n"
# 24 x 105 = 2 520 cells on steps that are not whole numbers of units
IRREGULAR_GRID = ("bias_start_v = 0.013\nbias_stop_v = 0.9\n"
                  "bias_step_v = 0.0371\npower_start_dbm = -73.3\n"
                  "power_stop_dbm = 7.1\npower_step_dbm = 0.77\n"
                  "weaker_tone_offset_db = -3.3\n")
# inputs/layout.txt: comma and whitespace columns, a comment and feed offsets
LAYOUT = "geometry_file = layout.txt\n"
CUTS = "pattern_file_1 = cut1.csv\npattern_file_2 = cut2.csv\n"
GRID_16 = "nx = 16\nny = 16\n"

CASES: list[Case] = [
    *(case for command in ("spectrum", "diode-iv", "bias-sweep",
                           "array-factor", "pattern", "link-budget")
      for case in _table(command, command)),
    Case("bias-sweep-benchmark-grid.csv",
         ("bias-sweep", "--out", "bias-sweep-benchmark-grid.csv"),
         BENCHMARK_GRID),
    *_table("bias-sweep", "bias-sweep-34-35ghz", BENCHMARK_GRID + MIXED_PARITY),
    Case("bias-sweep-irregular.csv",
         ("bias-sweep", "--out", "bias-sweep-irregular.csv"), IRREGULAR_GRID),
    *_table("array-factor", "array-factor-layout", LAYOUT),
    *_table("pattern", "pattern-layout", LAYOUT),
    *_table("pattern", "pattern-cuts", CUTS),
    Case("array-factor-16x16.csv",
         ("array-factor", "--out", "array-factor-16x16.csv"),
         GRID_16 + "theta_step_deg = 0.01\n"),
    Case("pattern-16x16-two-beam.csv",
         ("pattern", "--out", "pattern-16x16-two-beam.csv"),
         GRID_16 + "theta_step_deg = 0.05\nelement_kind = two_beam\n"),
    Case("help.txt", ("--help",), ""),
    Case("validate.csv", ("validate", "--quiet", "--out", "validate.csv"), ""),
]
# cuts of 18 001 and 3 601 rows (1.05 and 0.26 MB): a hash, not a file
HASHED = {"array-factor-16x16.csv", "pattern-16x16-two-beam.csv"}


def run_case(case: Case, workdir: Path) -> tuple[bytes, str]:
    """Run ``case`` in the empty directory ``workdir``; returns its output
    and what it printed. A status other than 0 raises ``AssertionError``."""
    for source in INPUTS.iterdir():
        shutil.copyfile(source, workdir / source.name)
    argv = list(case.argv)
    if case.config:
        (workdir / "case.cfg").write_text(case.config, encoding="utf-8")
        argv += ["--config", "case.cfg"]
    printed = io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(printed):
            try:
                status = cli.main(argv)
            except SystemExit as exc:  # argparse ends --help by exiting
                status = exc.code
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    if status != 0:
        raise AssertionError(f"golden case {case.name}: exit status {status}")
    if case.argv == ("--help",):
        return printed.getvalue().encode("utf-8"), ""
    output = (workdir / case.name).read_bytes()
    if case.argv[0] == "validate":
        report = csv.reader(io.StringIO(output.decode("utf-8")))
        kept = io.StringIO()
        csv.writer(kept, lineterminator="\n").writerows(
            row[:2] for row in report)
        output = kept.getvalue().encode("utf-8")
    return output, printed.getvalue()


def digest(output: bytes) -> dict:
    """The manifest's record of a hashed output: SHA-256 and data rows."""
    return {"sha256": hashlib.sha256(output).hexdigest(),
            "rows": output.count(b"\n") - 1}


def main() -> None:
    manifest = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            output, printed = run_case(case, Path(tmp))
        manifest[case.name] = {"stdout": printed}
        if case.name in HASHED:
            manifest[case.name].update(digest(output))
        else:
            (GOLDEN / case.name).write_bytes(output)
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    main()
