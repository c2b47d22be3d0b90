"""Every golden case keeps its committed bytes (``tests/golden/``): the
output file, or its SHA-256 and row count for a large cut, and what it
printed. The cases and the files both come from ``make_golden.py``; only a
change that moves output digits on purpose runs it again."""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("make_golden",
                                               GOLDEN / "make_golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

MANIFEST = json.loads(golden.MANIFEST.read_text(encoding="utf-8"))
SHOWN = 5  # differing lines printed per mismatch


def differing_lines(name: str, expected: str, got: str) -> str:
    """The mismatch of ``got`` against ``expected``, named by ``name``:
    how many lines differ and the first :data:`SHOWN` of them."""
    want, have = expected.splitlines(), got.splitlines()
    total = max(len(want), len(have))
    moved = [k for k in range(total)
             if k >= len(want) or k >= len(have) or want[k] != have[k]]
    report = [f"{name}: {len(moved)} of {total} lines differ"]
    for k in moved[:SHOWN]:
        for label, lines in (("expected", want), ("got     ", have)):
            text = repr(lines[k]) if k < len(lines) else "(no line)"
            report.append(f"  line {k + 1} {label} {text}")
    return "\n".join(report)


@pytest.mark.parametrize("case", golden.CASES, ids=lambda case: case.name)
def test_golden_case(case, tmp_path):
    output, printed = golden.run_case(case, tmp_path)
    expected = MANIFEST[case.name]
    assert printed == expected["stdout"], differing_lines(
        f"{case.name} stdout", expected["stdout"], printed)
    if case.name in golden.HASHED:
        got = golden.digest(output)
        assert got == {k: expected[k] for k in got}, (
            f"{case.name}: sha256 {got['sha256']} over {got['rows']} rows, "
            f"expected {expected['sha256']} over {expected['rows']} rows")
    else:
        stored = (GOLDEN / case.name).read_bytes()
        assert output == stored, differing_lines(
            case.name, stored.decode("utf-8"), output.decode("utf-8"))


def test_golden_files_are_the_cases():
    # no stale golden file and no case without one
    names = [case.name for case in golden.CASES]
    assert len(set(names)) == len(names)
    assert sorted(MANIFEST) == sorted(names)
    stored = {path.name for path in GOLDEN.iterdir() if path.is_file()}
    assert stored - {"make_golden.py", "MANIFEST.json"} == (
        set(names) - golden.HASHED)
