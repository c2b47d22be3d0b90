"""In-memory spans around the calls into each ``selfmix`` layer.

The wrappers live in the benchmark, not in the program: :meth:`Tracer.install`
replaces each traced function in every ``selfmix`` namespace that binds it
(``diode`` and ``arrays`` import ``plan_sampling``, ``synthesize_waveform``
and ``dft_spectrum`` by name, ``linkbudget`` imports ``simulate_mixing``), so
patching only the defining module would miss those calls. Counts are taken
at the same boundaries. :meth:`Tracer.uninstall` restores the originals.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

VALIDATION_CHECKS = (
    "signal_oracle_equivalence", "parseval", "limiting_case_array_gain",
    "if_vs_rf_beamwidth", "effective_spacing", "array_oracle_equivalence",
    "row_rotation_compensation", "square_law_slope", "bias_optimum",
    "friis_anchors", "bias_insensitivity",
)
CLI_COMMANDS = ("spectrum", "diode_iv", "bias_sweep", "freq_sweep",
                "array_factor", "pattern", "link_budget", "validate")


# counters take (tracer, bound arguments, result); result is None on error
def _samples(tracer, a, result):
    if result is not None:
        rate, duration = result
        n = int(round(rate * duration))
        tracer.count("signals.plan_sampling.samples_total", n)
        tracer.peak("signals.plan_sampling.samples_max", n)


def _voltages(tracer, a, result):
    tracer.count("diode.terminal_current.samples", int(np.size(a["v_terminal"])))


def _cell(tracer, a, result):
    tracer.count("diode.simulate_mixing.cells", 1)


def _sweep_cells(tracer, a, result):
    if result is not None:
        cells = [c for row in result.cells for c in row]
        tracer.count("diode.cells", len(cells))
        tracer.count("diode.cells_failed",
                     sum(type(c).__name__ == "SweepCellError" for c in cells))


def _geometry(tracer, a, result):
    tracer.count("arrays.geometry.elements", a["self"].element_count)


def _dir_elems(tracer, a, result):
    tracer.count("arrays.factor_cut.dir_elems",
                 int(np.size(a["theta_signed"])) * a["g"].element_count)


def _timedomain(tracer, a, result):
    tracer.count("arrays.timedomain.elements", a["g"].element_count)


def _rows(tracer, a, result):
    tracer.count("tables.rows", len(a["self"].rows))


# (module, attribute, span, counter); "Class.method" patches the class
TARGETS = [
    ("selfmix.cli", "main", "cli.main", None),
    *[("selfmix.cli", f"cmd_{c}", "cli.compute", None) for c in CLI_COMMANDS],
    ("selfmix.tables", "Table.write", "tables.write", _rows),
    ("selfmix.signals", "plan_sampling", "signals.plan_sampling", _samples),
    ("selfmix.signals", "synthesize_waveform", "signals.synthesize", None),
    ("selfmix.signals", "dft_spectrum", "signals.dft", None),
    ("selfmix.signals", "square_law_mix", "signals.square_filter", None),
    ("selfmix.signals", "apply_filter", "signals.square_filter", None),
    ("selfmix.diode", "terminal_current", "diode.terminal_current", _voltages),
    ("selfmix.diode", "simulate_mixing", "diode.simulate_mixing", _cell),
    ("selfmix.diode", "bias_power_sweep", "diode.sweep", _sweep_cells),
    ("selfmix.diode", "bias_frequency_sweep", "diode.sweep", _sweep_cells),
    ("selfmix.diode", "iv_derivatives", "diode.iv_derivatives", None),
    ("selfmix.arrays", "ArrayGeometry.__init__", "arrays.geometry", _geometry),
    ("selfmix.arrays", "if_array_factor_cut", "arrays.factor_cut", _dir_elems),
    ("selfmix.arrays", "rf_array_factor_cut", "arrays.factor_cut", _dir_elems),
    ("selfmix.arrays", "simulate_array_timedomain", "arrays.timedomain",
     _timedomain),
    *[("selfmix.patterns", f, "patterns", None) for f in (
        "sample_pattern", "self_mix_pattern", "total_pattern", "beamwidth_3db",
        "find_lobes", "read_pattern_csv")],
    ("selfmix.linkbudget", "calibrate_conversion_gain", "linkbudget.calibrate",
     None),
    *[("selfmix.validation", f"check_{c}", f"validation.{c}", None)
      for c in VALIDATION_CHECKS],
]
SPAN_NAMES = sorted({t[2] for t in TARGETS})
# spans whose callees are traced too; for the others self time equals total
# time, and the self time of cli.main is reported as cli.overhead_s
NESTING_SPANS = ["cli.compute", "diode.simulate_mixing", "diode.sweep",
                 "diode.iv_derivatives", "arrays.timedomain",
                 "linkbudget.calibrate",
                 *[f"validation.{c}" for c in VALIDATION_CHECKS]]
COUNTS = ["tables.rows", "signals.plan_sampling.samples_total",
          "signals.plan_sampling.samples_max", "diode.terminal_current.samples",
          "diode.simulate_mixing.cells", "diode.cells", "diode.cells_failed",
          "arrays.geometry.elements", "arrays.factor_cut.dir_elems",
          "arrays.timedomain.elements"]


def time_metric(span: str) -> str:
    return f"{span}_s" if "." in span else f"{span}.s"


@dataclass
class Tracer:
    """Spans are ``[name, start, end, parent index, request]``; all of one
    pass's spans are kept in memory and written by :meth:`dump`."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    request: str = ""
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name: str, n: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), n)

    def wrap(self, span: str, fn, counter):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append([span, time.perf_counter(), 0.0, parent,
                                 tracer.request])
            tracer._stack.append(index)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.spans[index][2] = time.perf_counter()
                tracer._stack.pop()
                if counter is not None:
                    counter(tracer, signature.bind(*args, **kwargs).arguments,
                            result)
        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "selfmix"
                                         or name.startswith("selfmix."))]
        for module_name, attr, span, counter in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:  # method: patch the class, which every caller uses
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self.wrap(span, original, counter))
                self._patched.append((cls, method, original))
                continue
            original = getattr(owner, attr, None)
            if original is None:  # removed by a later version: reads as 0
                continue
            wrapped = self.wrap(span, original, counter)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)
                        self._patched.append((module, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def layer_times(self) -> tuple[dict, dict]:
        """Total and self time per span name. Self time is a span's
        duration minus that of its direct children (calls are sequential,
        so children never overlap)."""
        total = dict.fromkeys(SPAN_NAMES, 0.0)
        own = dict.fromkeys(SPAN_NAMES, 0.0)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return total, own

    def dump(self, path: Path, pass_index: int) -> None:
        with path.open("a", encoding="utf-8") as fh:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({
                    "pass": pass_index, "id": i, "name": name, "start": start,
                    "end": end, "parent": parent, "request": request}) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (everything except
    ``trace.overhead_s``, which needs an untraced pass to compare with)."""
    total, own = tracer.layer_times()
    c = {name: tracer.counts.get(name, 0) for name in COUNTS}
    m: dict[str, float] = {}
    for span in SPAN_NAMES:
        m[time_metric(span)] = total[span]
    for span in NESTING_SPANS:
        m[f"{span}.self_s"] = own[span]
    m.update(c)
    m["cli.overhead_s"] = own["cli.main"]
    m["arrays.factor_cut.bytes"] = 16 * c["arrays.factor_cut.dir_elems"]
    m["diode.terminal_current.ns_per_sample"] = _ratio(
        1e9 * total["diode.terminal_current"], c["diode.terminal_current.samples"])
    m["diode.simulate_mixing.s_per_cell"] = _ratio(
        total["diode.simulate_mixing"], c["diode.simulate_mixing.cells"])
    m["arrays.factor_cut.ns_per_dir_elem"] = _ratio(
        1e9 * total["arrays.factor_cut"], c["arrays.factor_cut.dir_elems"])
    return m


def _ratio(num: float, den: int) -> float:
    return num / den if den else 0.0
