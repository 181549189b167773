"""Span tracing for the benchmark, applied from outside the package.

During a traced pass every function listed in SPANS is rebound, in every
loaded `flowpoly` module namespace that holds it, to a wrapper that records
a span; the originals are put back afterwards. A span's self time is its
duration minus the time covered by the spans it directly contains; spans
are aggregated online per metric, so a pass with a few hundred thousand
calls needs no span storage.

A separate memory pass uses the same rebinding with `tracemalloc` wrappers
for the functions listed in MEMORY.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager


def _one(result) -> int:
    return 1


def _terms(result) -> int:
    return len(result.poly.terms)


def _length(result) -> int:
    return len(result)


# module -> function -> (self-time metric, ((count metric, measure), ...))
SPANS = {
    "quotient": {
        "flow_polynomial_normal_form": (
            "quotient.nf_s",
            (("quotient.nf_calls", _one), ("quotient.nf_terms", _terms)),
        ),
        "conformal_normal_form": ("quotient.conformal_s", ()),
        "flow_poly_eval": ("quotient.eval_s", (("quotient.eval_points", _one),)),
        "surplus_eval": ("quotient.eval_s", ()),
    },
    "fourflow": {
        "four_flow_polynomial_normal_form": (
            "fourflow.nf_s",
            (("fourflow.nf_calls", _one), ("fourflow.nf_terms", _terms)),
        ),
        "conformal_pair_normal_form": ("fourflow.conformal_s", ()),
        "four_flow_coefficient_table": (
            "fourflow.table_s",
            (("fourflow.table_calls", _one),),
        ),
        "find_nz_four_flow": ("fourflow.brute_s", ()),
        "enumerate_klein_circulations": ("fourflow.brute_s", ()),
    },
    "flows": {
        "coefficient_table": ("flows.table_s", (("flows.table_keys", _length),)),
        "flow_conformal_table": ("flows.table_s", (("flows.table_keys", _length),)),
        "enumerate_flows": ("flows.enum_s", (("flows.states", _length),)),
        "enumerate_dual_flows": ("flows.enum_s", (("flows.states", _length),)),
        "count_conformal_dual_flows": ("flows.counts_s", ()),
        "count_conformal_flows": ("flows.counts_s", ()),
        "find_nz_flow": ("flows.brute_s", ()),
        "is_p_colorable": ("flows.color_s", ()),
    },
    "structure": {
        "check_coloring_correspondence": ("structure.coloring_s", ()),
        "check_planar_duality": ("structure.planar_s", ()),
        "chordal_orientation": ("structure.chordal_s", ()),
    },
    "embedding": {
        "plane_dual": ("embedding.dual_s", ()),
        "trace_faces": ("embedding.dual_s", ()),
    },
    "formats": {
        name: ("formats.parse_s", ())
        for name in ("parse_graph_text", "load_graph", "parse_zp_map")
    }
    | {
        name: ("formats.emit_s", ())
        for name in (
            "dump_json",
            "graph_to_text",
            "quotient_poly_to_json",
            "quotient_poly_to_text",
            "pair_poly_to_json",
            "pair_poly_to_text",
            "zp_map_to_json",
            "zp_map_to_text",
            "klein_map_to_json",
        )
    },
    "graphs": {
        name: ("graphs.self_s", (("graphs.calls", _one),))
        for name in (
            "connected_components",
            "kappa",
            "cyclomatic_number",
            "orient",
            "reverse_arcs",
            "contract",
            "bridges",
            "is_bridgeless",
            "is_chordal",
            "circuits",
            "find_small_circuit",
        )
    },
    "cli": {"main": ("cli.self_s", ())},
}

# Folds and tables: a second call with the same graph and modulus within
# one item is counted in cli.repeat_calls.
ARTIFACTS = frozenset(
    {
        "quotient.flow_polynomial_normal_form",
        "fourflow.four_flow_polynomial_normal_form",
        "flows.coefficient_table",
        "flows.flow_conformal_table",
        "fourflow.four_flow_coefficient_table",
    }
)

# peak metric -> the (module, function) spans it covers
MEMORY = {
    "quotient.nf_peak_kib": (("quotient", "flow_polynomial_normal_form"),),
    "fourflow.nf_peak_kib": (("fourflow", "four_flow_polynomial_normal_form"),),
    "flows.peak_kib": tuple(("flows", name) for name in SPANS["flows"]),
}

TIME_METRICS = tuple(
    sorted({metric for funcs in SPANS.values() for metric, _ in funcs.values()})
)
COUNT_METRICS = tuple(
    sorted(
        {name for funcs in SPANS.values() for _, counts in funcs.values() for name, _ in counts}
        | {"cli.repeat_calls", "formats.bytes_out"}
    )
)


def flowpoly_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "flowpoly" or name.startswith("flowpoly.")
    ]


@contextmanager
def rebound(make_wrapper, selection=None):
    """Rebind the selected functions to make_wrapper(qualname, fn) in every
    flowpoly module namespace that holds them; restore them on exit.

    selection is an iterable of (module, function) pairs, default all SPANS.
    """
    if selection is None:
        selection = [(m, f) for m, funcs in SPANS.items() for f in funcs]
    replacements = {}
    for module_name, fname in selection:
        fn = getattr(sys.modules[f"flowpoly.{module_name}"], fname)
        replacements[id(fn)] = (fn, make_wrapper(f"{module_name}.{fname}", fn))
    undo = []
    try:
        for module in flowpoly_modules():
            for attr, value in list(vars(module).items()):
                entry = replacements.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    undo.append((module, attr, value))
        yield
    finally:
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)


def _graph_fingerprint(g) -> tuple:
    ids = getattr(g, "sorted_arc_ids", None) or getattr(g, "sorted_edge_ids", ())
    return (type(g).__name__, tuple(sorted(g.vertices)), tuple(ids))


class Tracer:
    """Online span aggregation: self time per metric, counts, and the
    fold and table calls of each item."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.covered_s = 0.0  # summed duration of outermost spans
        self.item_calls: dict[str, Counter] = {}
        self._stack: list[list] = []  # [metric, start, child seconds]
        self._item: Counter | None = None
        self._seen: set = set()

    def begin_item(self, name: str) -> None:
        self._item = self.item_calls.setdefault(name, Counter())
        self._seen = set()

    def enter(self, metric: str) -> None:
        self._stack.append([metric, self.clock(), 0.0])

    def exit(self) -> None:
        metric, start, child = self._stack.pop()
        duration = self.clock() - start
        self.self_s[metric] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.covered_s += duration

    def note_call(self, qualname: str, args) -> None:
        if self._item is None:
            return
        self._item[qualname] += 1
        if qualname in ARTIFACTS:
            key = (
                qualname,
                _graph_fingerprint(args[0]),
                tuple(a for a in args[1:] if isinstance(a, int)),
            )
            if key in self._seen:
                self.counts["cli.repeat_calls"] += 1
            self._seen.add(key)

    def wrapper(self, qualname: str, fn):
        module_name, fname = qualname.split(".")
        metric, counters = SPANS[module_name][fname]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.note_call(qualname, args)
            self.enter(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            for name, measure in counters:
                self.counts[name] += measure(result)
            return result

        return traced

    @contextmanager
    def active(self):
        with rebound(self.wrapper):
            yield self


class MemoryTracer:
    """Peak traced memory above the level at entry, per MEMORY metric.

    Nested spans reset the tracemalloc peak, so each open span keeps the
    highest peak seen before its children reset it."""

    def __init__(self):
        self.peak_kib: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list[int]] = []  # [bytes at entry, peak seen]
        self._metric_of = {
            f"{m}.{f}": metric for metric, spans in MEMORY.items() for m, f in spans
        }

    def enter(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            self._stack[-1][1] = max(self._stack[-1][1], peak)
        tracemalloc.reset_peak()
        self._stack.append([current, current])

    def exit(self, metric: str) -> None:
        _, peak = tracemalloc.get_traced_memory()
        start, seen = self._stack.pop()
        top = max(seen, peak)
        self.peak_kib[metric] = max(self.peak_kib[metric], (top - start) / 1024)
        if self._stack:
            self._stack[-1][1] = max(self._stack[-1][1], top)

    def wrapper(self, qualname: str, fn):
        metric = self._metric_of[qualname]

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            self.enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(metric)

        return measured

    @contextmanager
    def active(self):
        selection = [span for spans in MEMORY.values() for span in spans]
        tracemalloc.start()
        try:
            with rebound(self.wrapper, selection):
                yield self
        finally:
            tracemalloc.stop()
