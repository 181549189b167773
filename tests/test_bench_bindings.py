"""The package names that the benchmark's span tracing binds.

bench/tracing.py rebinds each (module, function) of its SPANS and MEMORY
tables in flowpoly.<module>, and counts the terms of a normal form through
`.poly.terms`. A package change that removes either breaks the traced
benchmark run, so these tests load the file by path and check both.
"""

import importlib
import importlib.util
from pathlib import Path

from families import example_graph
from flowpoly.fourflow import four_flow_polynomial_normal_form
from flowpoly.quotient import flow_polynomial_normal_form

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def test_every_traced_function_resolves():
    pairs = {(m, f) for m, funcs in tracing.SPANS.items() for f in funcs}
    pairs |= {pair for spans in tracing.MEMORY.values() for pair in spans}
    missing = [
        f"{m}.{f}"
        for m, f in sorted(pairs)
        if not callable(getattr(importlib.import_module(f"flowpoly.{m}"), f, None))
    ]
    assert not missing


def test_the_term_count_reads_both_folds():
    d = example_graph()
    forms = (flow_polynomial_normal_form(d, 3), four_flow_polynomial_normal_form(d.underlying()))
    for form in forms:
        assert tracing._terms(form) == len(form.poly.terms) == len(form) > 0
