"""Call tracing for the benchmark's traced run, installed from outside the program.

``Tracer.install()`` looks up every name in ``TARGETS`` at run time in the
loaded ``treeot`` modules and replaces each binding of that function (module
globals, module-level dicts such as a suite registry, class attributes for
``Class.method`` names) with a wrapper that records a span. A name that no
longer exists is recorded in ``absent`` instead of failing, so the benchmark
keeps running while the program's API moves. ``uninstall()`` puts the
originals back. End-to-end runs never install the wrappers.

Spans are ``(name, start, end, parent, op)`` tuples kept in memory and written
out when the run ends. Spans are named by the metric stem they feed: the
self time of every span named ``tree.unique_flow`` adds to
``tree.unique_flow_s``. Counts are taken when a wrapped call returns, inside
a ``trace.count`` span so the counting cost is not billed to any layer.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import weakref
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: (span name, name the callers use). ``Class.method`` patches the class.
TARGETS = (
    ("cli.self", "main"),
    ("instances.load_instance", "load_instance"),
    ("tree.validate_tree", "validate_tree"),
    ("tree.assignment_from", "assignment_from"),
    ("tree.unique_flow", "unique_flow"),
    ("tree.flow_cost", "flow_cost"),
    ("tree.good_potential", "good_potential"),
    ("tree.potential_value", "potential_value"),
    ("tree.w1_tree", "w1_tree"),
    ("lp.from_tree", "FiniteGraph.from_tree"),
    ("lp.w1_lp", "w1_lp"),
    ("lp.verify_duality", "verify_duality"),
    ("regular.build_truncated_tree", "build_truncated_tree"),
    ("regular.radial_measure", "radial_measure"),
    ("regular.w1_radial_formula", "w1_radial_formula"),
    ("regular.w1_radial_flow_formula", "w1_radial_flow_formula"),
    ("families.srw_g_table", "srw_g_table"),
    ("families.bundle_from_table", "bundle_from_table"),
    ("families.srw_closed_form", "srw_closed_form"),
    ("families.ball_gf", "ball_gf"),
    ("series.mul", "Series.__mul__"),
    ("series.mul", "Series.__rmul__"),
    ("series.truediv", "Series.__truediv__"),
    ("series.truediv", "Series.__rtruediv__"),
    ("series.sqrt", "Series.sqrt"),
    ("asymptotics.AB", "srw_AB"),
    ("asymptotics.AB", "sphere_AB"),
    ("asymptotics.AB", "ball_AB"),
    ("asymptotics.verify_inequalities", "verify_inequalities"),
    ("asymptotics.gamma_asymptotic", "gamma_asymptotic"),
    ("suites.duality", "suite_duality"),
    ("suites.triple", "suite_triple"),
    ("suites.series", "suite_series"),
    ("suites.inequalities", "suite_inequalities"),
    ("suites.oeis", "suite_oeis"),
    ("suites.gamma", "suite_gamma"),
    ("rational.render", "format_rational"),
    ("rational.render", "decimal_string"),
)

SPAN_NAMES = tuple(dict.fromkeys(span for span, _ in TARGETS))

#: Counts summed over the traced ops, then divided by the op count.
SUM_COUNTS = {"instances.json_bytes": "bytes", "tree.vertices": "count",
              "tree.support": "count", "lp.distance_entries": "count",
              "regular.truncation_vertices": "count", "suites.cases": "count"}
#: Largest value seen within each op, averaged over the traced ops.
MAX_COUNTS = {"tree.L_bits": "bits", "series.order": "count"}

#: Every per-layer metric, in report order, with its unit.
LAYER_METRICS = (
    *((f"{span}_s", "s") for span in SPAN_NAMES),
    *SUM_COUNTS.items(),
    *MAX_COUNTS.items(),
    ("lp.w1_lp_calls", "count"),
    ("lp.useful_ratio", "ratio"),
    ("trace.overhead_s", "s"),
)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span are disjoint and lie
    inside it; their summed duration is the part of the span they cover.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _mass_lcm_bits(rho) -> int:
    return math.lcm(*(c.denominator for c in rho.charges.values())).bit_length()


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.sums: dict[str, float] = defaultdict(float)
        self.peaks: dict[tuple[str, int], float] = {}
        self.graphs_built = 0
        self.graphs_solved = 0
        self._graphs: dict[int, weakref.ref] = {}
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []
        self._counters = {
            "instances.load_instance": self._count_load,
            "tree.unique_flow": self._count_flow,
            "lp.from_tree": self._count_graph,
            "lp.w1_lp": self._count_lp,
            "regular.build_truncated_tree": self._count_truncation,
            "series.mul": self._count_series_operand,
            "series.truediv": self._count_series_operand,
            "series.sqrt": self._count_series_operand,
            "families.srw_g_table": self._count_series_result,
            "families.bundle_from_table": self._count_series_result,
            "families.srw_closed_form": self._count_series_result,
            "families.ball_gf": self._count_series_result,
            **{span: self._count_cases for span in SPAN_NAMES if span.startswith("suites.")},
        }

    # -- spans -----------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        """Trace everything called inside the block as one op."""
        self._op = op_id
        self.enabled = True
        idx = self._open("op")
        try:
            yield
        finally:
            self._close(idx)
            self.enabled = False

    # -- counts ----------------------------------------------------------
    def _peak(self, name: str, value: float) -> None:
        key = (name, self._op)
        self.peaks[key] = max(self.peaks.get(key, value), value)

    def _count_load(self, args, result) -> None:
        self.sums["instances.json_bytes"] += os.path.getsize(args[0])

    def _count_flow(self, args, result) -> None:
        tree, rho = args[0], args[1]
        self.sums["tree.vertices"] += tree.num_vertices
        self.sums["tree.support"] += len(rho.charges)
        self._peak("tree.L_bits", _mass_lcm_bits(rho))

    def _count_graph(self, args, result) -> None:
        self.sums["lp.distance_entries"] += result.num_vertices ** 2  # computed, not observed
        self.graphs_built += 1
        self._graphs[id(result)] = weakref.ref(result)

    def _count_lp(self, args, result) -> None:
        graph = args[0]
        ref = self._graphs.pop(id(graph), None)
        if ref is not None and ref() is graph:
            self.graphs_solved += 1

    def _count_truncation(self, args, result) -> None:
        self.sums["regular.truncation_vertices"] += result.tree.num_vertices

    def _count_series_operand(self, args, result) -> None:
        self._peak("series.order", args[0].order)

    def _count_series_result(self, args, result) -> None:
        self._peak("series.order", result.order)

    def _count_cases(self, args, result) -> None:
        self.sums["suites.cases"] += len(result.records)

    def _count(self, span: str, args, result) -> None:
        idx = self._open("trace.count")
        try:
            self._counters[span](args, result)
        except Exception as exc:  # a moved attribute must not stop the run
            note = f"{span} counter: {type(exc).__name__}: {exc}"
            if note not in self.absent:
                self.absent.append(note)
        finally:
            self._close(idx)

    # -- wrappers --------------------------------------------------------
    def _wrap(self, span: str, fn):
        tracer = self
        counted = span in self._counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counted:
                tracer._count(span, args, result)
            return result

        traced.bench_span = span
        return traced

    def _set(self, container, key: str, value) -> None:
        if isinstance(container, dict):
            self._undo.append((container, key, container[key]))
            container[key] = value
        else:
            self._undo.append((container, key, vars(container)[key]))
            setattr(container, key, value)

    def install(self) -> None:
        """Wrap every target found in the loaded ``treeot`` modules."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "treeot" or name.startswith("treeot."))]
        wrappers: dict[int, object] = {}  # id of an original function -> its wrapper
        for span, name in TARGETS:
            found = False
            if "." in name:
                cls_name, attr = name.split(".", 1)
                classes = {id(v): v for m in modules for v in vars(m).values()
                           if isinstance(v, type) and v.__name__ == cls_name}
                for cls in classes.values():
                    raw = vars(cls).get(attr)
                    if isinstance(raw, classmethod):
                        self._set(cls, attr, classmethod(self._wrap(span, raw.__func__)))
                    elif callable(raw):
                        self._set(cls, attr, self._wrap(span, raw))
                    else:
                        continue
                    found = True
            else:
                for m in modules:
                    fn = vars(m).get(name)
                    if callable(fn) and not hasattr(fn, "bench_span") and id(fn) not in wrappers:
                        wrappers[id(fn)] = self._wrap(span, fn)
                    found = found or callable(fn)
            if not found and name not in self.absent:
                self.absent.append(name)
        for m in modules:
            for key, value in list(vars(m).items()):
                if id(value) in wrappers:
                    self._set(m, key, wrappers[id(value)])
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if id(dvalue) in wrappers:
                            self._set(value, dkey, wrappers[id(dvalue)])

    def uninstall(self) -> None:
        while self._undo:
            container, key, original = self._undo.pop()
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)

    # -- results ---------------------------------------------------------
    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op self seconds of every span name plus the per-op counts."""
        ops = max(ops, 1)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for span, own in zip(self.spans, self_times(self.spans)):
            self_s[span[0]] += own
            calls[span[0]] += 1
        out = {f"{span}_s": self_s[span] / ops for span in SPAN_NAMES}
        out.update({name: self.sums[name] / ops for name in SUM_COUNTS})
        for name in MAX_COUNTS:
            out[name] = sum(v for (n, _), v in self.peaks.items() if n == name) / ops
        out["lp.w1_lp_calls"] = calls["lp.w1_lp"] / ops
        out["lp.useful_ratio"] = (self.graphs_solved / self.graphs_built
                                  if self.graphs_built else 0.0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
