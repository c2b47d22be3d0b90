"""Self-test of the benchmark's traced run.

Run from the root of a source checkout::

    python3 bench/selftest.py

For each workload it makes two short ``--trace 1`` runs with the same seed
and checks that

1. traced outputs are byte-identical to untraced ones (each traced run
   compares them pass by pass and reports ``correct: false`` otherwise),
2. every count metric (unit ``count`` or ``B``) repeats exactly across the
   two runs.

Exits 0 when both hold for every workload, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def traced_run(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    failures = []
    for workload in ("sweep", "array", "validate"):
        first, second = traced_run(workload), traced_run(workload)
        for i, run in enumerate((first, second), start=1):
            if not run["correct"]:
                failures.append(f"{workload}: traced run {i} not correct "
                                "(traced output differs or a check failed)")
        counts = [k for k, m in first["metrics"].items()
                  if m["unit"] in ("count", "B")]
        for name in counts:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                failures.append(f"{workload}: {name} is {a} then {b}")
        print(f"{workload}: {len(counts)} count metrics compared, "
              f"correct {first['correct']} / {second['correct']}")
    for failure in failures:
        print("FAIL " + failure)
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
