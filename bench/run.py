"""selfmix benchmark: run a workload through the CLI, check it, time it.

Usage, from the root of a source checkout (``src/selfmix`` must exist)::

    python3 bench/run.py --workload sweep|array|validate|all \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics. It times fresh
``import selfmix.cli`` processes (``setup_s``), then alternates an
in-process pass through ``selfmix.cli.main(argv)`` (``wall_s``) with a pass
that runs each invocation as a fresh Python process (``cold_s``,
``peak_rss_mb``) until ``--seconds`` are used, and reports medians.
``--trace 1`` alternates untraced and traced in-process passes and reports
the per-layer metrics of :mod:`tracing`. Every pass's outputs are checked.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
give each metric by name with its unit, the failed fraction and the
environment. The full record, and on traced runs the spans, go to
``.bench_out/`` in the checkout. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import tracing
import workloads

WORKLOADS = ("sweep", "array", "validate")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60.0
CLI_CODE = "import sys; from selfmix.cli import main; sys.exit(main(sys.argv[1:]))"
END_TO_END_UNITS = {"wall_s": "s", "cold_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "selfmix" / "cli.py").is_file():
        print("bench: src/selfmix/cli.py not found; run from the root of a "
              "selfmix source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    env = environment(root)
    print("env " + json.dumps(env))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = Run(root, name, args.seed, args.seconds,
                            bool(args.trace)).execute(env)
        report(results[name])
    if len(names) == 1:
        final = {k: results[names[0]][k]
                 for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


class Run:
    """One run of one workload: set-up, passes until the time is used,
    checks and metrics."""

    def __init__(self, root: Path, name: str, seed: int, seconds: float,
                 trace: bool):
        self.root, self.name, self.seed = root, name, seed
        self.seconds, self.trace = seconds, trace
        self.workdir = root / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
        self.outdir = root / ".bench_out"
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        pythonpath = os.environ.get("PYTHONPATH")
        self.child_env = dict(os.environ, PYTHONPATH=str(root / "src") + (
            os.pathsep + pythonpath if pythonpath else ""))

    def execute(self, env: dict) -> dict:
        try:
            self.workload = workloads.prepare(self.name, self.seed, self.workdir)
            import selfmix.cli  # noqa: F401  warm imports for in-process passes
            self.check(self.inprocess_pass()[1])  # warm-up, also checked
            samples = self.traced() if self.trace else self.end_to_end()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        record = {"workload": self.name, "seed": self.seed,
                  "trace": int(self.trace), "correct": not self.problems,
                  "attempted": self.attempted, "failed": self.failed,
                  "metrics": samples.pop("metrics"), "samples": samples,
                  "problems": self.problems[:50], "env": env}
        self.outdir.mkdir(exist_ok=True)
        (self.outdir / f"{self.name}-seed{self.seed}-trace{int(self.trace)}"
         ".json").write_text(json.dumps(record, indent=1) + "\n")
        return record

    # -- measurement loops -------------------------------------------------

    def end_to_end(self) -> dict:
        setup = [self.child([sys.executable, "-c", "import selfmix.cli"],
                            "setup")[0] for _ in range(SETUP_REPEATS)]
        wall, cold, rss = [], [], []
        for _ in self.until_deadline():
            elapsed, codes = self.inprocess_pass()
            wall.append(elapsed)
            self.check(codes)
            elapsed, codes, peak_kb = self.cold_pass()
            cold.append(elapsed)
            rss.append(peak_kb / 1024.0)
            self.check(codes)
        values = {"wall_s": wall, "cold_s": cold, "setup_s": setup,
                  "peak_rss_mb": rss}
        return {"metrics": {k: {"value": statistics.median(v),
                                "unit": END_TO_END_UNITS[k]}
                            for k, v in values.items()}, **values}

    def traced(self) -> dict:
        spans_file = self.outdir / f"{self.name}-seed{self.seed}.spans.jsonl"
        self.outdir.mkdir(exist_ok=True)
        spans_file.unlink(missing_ok=True)
        untraced_wall, traced_wall, layers, tracers = [], [], [], []
        for index in self.until_deadline(minimum=2):
            elapsed, codes = self.inprocess_pass()
            untraced_wall.append(elapsed)
            self.check(codes)
            plain = self.output_bytes()
            tracer = tracing.Tracer()
            tracer.install()
            try:
                elapsed, codes = self.inprocess_pass(tracer, index)
            finally:
                tracer.uninstall()
            traced_wall.append(elapsed)
            self.check(codes)
            if (self.output_bytes() != plain and "traced outputs differ"
                    not in self.problems):
                self.problems.append("traced outputs differ")
            layers.append(tracing.layer_metrics(tracer))
            tracers.append(tracer)
        for index, tracer in enumerate(tracers):  # spans are written at the end
            tracer.dump(spans_file, index)
        for name in tracing.COUNTS:
            if len({m[name] for m in layers}) > 1:
                self.problems.append(f"count {name} differs between traced "
                                     f"passes: {[m[name] for m in layers]}")
        metrics = {}
        for name in layers[0]:
            unit = ("count" if name in tracing.COUNTS else
                    "B" if name.endswith(".bytes") else
                    "ns" if ".ns_per_" in name else "s")
            metrics[name] = {"value": statistics.median(m[name] for m in layers),
                             "unit": unit}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_wall)
            - statistics.median(untraced_wall), "unit": "s"}
        return {"metrics": dict(sorted(metrics.items())),
                "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall}

    def until_deadline(self, minimum: int = 1):
        """Yield pass indices while the next round is expected to end
        before ``--seconds`` run out (at least ``minimum`` rounds)."""
        start = time.perf_counter()
        index, longest = 0, 0.0
        while index < minimum or (time.perf_counter() - start + longest
                                  <= self.seconds):
            began = time.perf_counter()
            yield index
            longest = max(longest, time.perf_counter() - began)
            index += 1

    # -- passes --------------------------------------------------------------

    def clear_outputs(self) -> None:
        for inv in self.workload.invocations:
            inv.output.parent.mkdir(parents=True, exist_ok=True)
            inv.output.unlink(missing_ok=True)

    def output_bytes(self) -> list[bytes | None]:
        return [inv.output.read_bytes() if inv.output.is_file() else None
                for inv in self.workload.invocations]

    def inprocess_pass(self, tracer: tracing.Tracer | None = None,
                       index: int = 0) -> tuple[float, dict]:
        from selfmix.cli import main as cli_main  # the wrapper when traced
        self.clear_outputs()
        codes, sink = {}, io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for inv in self.workload.invocations:
                if tracer is not None:
                    tracer.request = f"{index}:{inv.label}"
                try:
                    codes[inv.label] = cli_main(list(inv.argv))
                except SystemExit as exc:
                    codes[inv.label] = exc.code
                except Exception:  # an uncaught traceback is a failed operation
                    codes[inv.label] = 1
                    self.problems.append(f"{inv.label}: "
                                         + traceback.format_exc(limit=3))
        return time.perf_counter() - start, codes

    def cold_pass(self) -> tuple[float, dict, int]:
        self.clear_outputs()
        codes, peak_kb = {}, 0
        start = time.perf_counter()
        for inv in self.workload.invocations:
            _, codes[inv.label], rss_kb = self.child(
                [sys.executable, "-c", CLI_CODE, *inv.argv], inv.label)
            peak_kb = max(peak_kb, rss_kb)
        return time.perf_counter() - start, codes, peak_kb

    def child(self, argv: list[str], label: str) -> tuple[float, int, int]:
        """Run one process to completion; return its wall time, exit code
        and peak RSS in KiB (``ru_maxrss`` of that child alone)."""
        with open(self.workdir / f"{label}.stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.child_env, cwd=self.root,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: end the child before leaving
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.problems.append(f"{label}: exit {proc.returncode}: " + (
                self.workdir / f"{label}.stderr").read_text()[-500:])
        return elapsed, proc.returncode, usage.ru_maxrss

    def check(self, codes: dict) -> None:
        verdict = self.workload.check(codes)
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        self.problems.extend(p for p in verdict.problems
                             if p not in self.problems)


# --------------------------------------------------------------------------


def report(result: dict) -> None:
    name = result["workload"]
    for metric, m in result["metrics"].items():
        print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
    print(f"{name} failed_frac = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(f"{name} correct = {str(not result['problems']).lower()}")
    for problem in result["problems"][:10]:
        print(f"{name} problem: {problem}")


def environment(root: Path) -> dict:
    import numpy
    nproc = len(os.sched_getaffinity(0))
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read_lines("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    blas_version, blas_threads = _openblas()
    source = hashlib.sha256()
    for path in sorted((root / "src" / "selfmix").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "openblas": blas_version,
            "blas_threads": min(blas_threads, nproc) if blas_threads else None,
            "commit": _commit(root), "source_sha256": source.hexdigest()}


def _read_lines(path: str) -> list[str]:
    try:
        return Path(path).read_text().splitlines()
    except OSError:
        return []


def _openblas() -> tuple[str | None, int | None]:
    """Version string and thread count of the OpenBLAS that numpy loaded,
    queried from the library itself."""
    import ctypes
    libs = {line.split()[-1] for line in _read_lines("/proc/self/maps")
            if "openblas" in line.rsplit("/", 1)[-1]}
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    return config().decode(), threads()
    return None, None


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


if __name__ == "__main__":
    sys.exit(main())
