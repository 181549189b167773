"""Tests of the benchmark itself: rebinding, self-time arithmetic, seeded
inputs and the refusal to run without the program.

    python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, relabel  # noqa: E402

EXAMPLE = "a e1 v1 v2\na e2 v2 v1\na e3 v1 v2\n"


@pytest.fixture(scope="module")
def fp():
    return run.import_flowpoly()


def _snapshot():
    return {m.__name__: dict(vars(m)) for m in tracing.flowpoly_modules()}


def _assert_identical(before):
    after = _snapshot()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys(), name
        for attr, value in attrs.items():
            assert after[name][attr] is value, f"{name}.{attr}"


@pytest.mark.parametrize("make", [tracing.Tracer, tracing.MemoryTracer])
def test_wrapping_restores_every_attribute(fp, make):
    before = _snapshot()
    original = fp.flow_polynomial_normal_form
    with make().active():
        # rebound in every namespace that holds it, not only the defining one
        assert fp.flow_polynomial_normal_form is not original
        assert fp.cli.flow_polynomial_normal_form is fp.quotient.flow_polynomial_normal_form
        assert fp.flow_polynomial_normal_form.__wrapped__ is original
    _assert_identical(before)


def test_wrapping_restores_after_an_exception(fp):
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().active():
            raise RuntimeError("boom")
    _assert_identical(before)


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    # A[0,10] holds B[1,3] and C[4,6]; C holds D[4.5,5]; E[11,12] stands alone
    ticks = iter([0, 1, 3, 4, 4.5, 5, 6, 10, 11, 12])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    tracer.enter("A")
    tracer.enter("B")
    tracer.exit()
    tracer.enter("C")
    tracer.enter("D")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    tracer.enter("E")
    tracer.exit()
    assert dict(tracer.self_s) == {"A": 6, "B": 2, "C": 1.5, "D": 0.5, "E": 1}
    assert tracer.covered_s == 11
    assert sum(tracer.self_s.values()) == tracer.covered_s


def test_same_metric_nested_spans_add_self_times():
    ticks = iter([0, 2, 5, 9])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    tracer.enter("X")
    tracer.enter("X")
    tracer.exit()
    tracer.exit()
    assert tracer.self_s["X"] == 9
    assert tracer.covered_s == 9


def test_traced_calls_counts_and_repeats(fp):
    d = fp.formats.parse_graph_text(EXAMPLE).as_digraph()
    tracer = tracing.Tracer()
    with tracer.active():
        tracer.begin_item("example")
        first = fp.flow_polynomial_normal_form(d, 3)
        fp.flow_polynomial_normal_form(d, 3)
        fp.flow_polynomial_normal_form(d, 4)
    calls = tracer.item_calls["example"]
    assert calls["quotient.flow_polynomial_normal_form"] == 3
    assert tracer.counts["quotient.nf_calls"] == 3
    assert tracer.counts["cli.repeat_calls"] == 1
    assert tracer.counts["quotient.nf_terms"] >= 2 * len(first.poly.terms)
    assert tracer.self_s["quotient.nf_s"] > 0
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.covered_s)


def test_memory_tracer_sees_the_fold(fp):
    d = fp.formats.parse_graph_text(EXAMPLE).as_digraph()
    memory = tracing.MemoryTracer()
    with memory.active():
        fp.coefficient_table(d, 3)
        fp.flow_polynomial_normal_form(d, 3)
    assert memory.peak_kib["quotient.nf_peak_kib"] > 0
    assert memory.peak_kib["flows.peak_kib"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fixed_seed_regenerates_identical_inputs(name):
    workload = WORKLOADS[name]
    first, second = workload.generate(7), workload.generate(7)
    assert first.digest() == second.digest()
    assert json.dumps(first.entries) == json.dumps(second.entries)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_different_seeds_give_different_inputs(name):
    workload = WORKLOADS[name]
    assert workload.generate(1).digest() != workload.generate(2).digest()


def test_relabel_keeps_id_order(fp):
    import random

    text = (BENCH.parent / "corpus" / "k4_embedded.g").read_text()
    old = fp.formats.parse_graph_text(text).digraph
    new = fp.formats.parse_graph_text(relabel(text, random.Random(3))).digraph
    old_arcs = sorted(old.arcs, key=lambda a: a.id)
    new_arcs = sorted(new.arcs, key=lambda a: a.id)
    vmap = {}
    for a, b in zip(old_arcs, new_arcs):
        vmap.setdefault(a.tail, b.tail)
        vmap.setdefault(a.head, b.head)
        assert (vmap[a.tail], vmap[a.head]) == (b.tail, b.head)
    assert [vmap[v] for v in old.sorted_vertices] == list(new.sorted_vertices)


def test_enum_sparse_graphs_are_connected_and_simple(fp):
    for _, payload in WORKLOADS["enum-sparse"].generate(5).entries:
        d = fp.formats.parse_graph_text(payload["text"]).as_digraph()
        assert len(d.vertices) == payload["n"]
        assert len(d.arcs) == payload["m"]
        assert len({frozenset(a.ends()) for a in d.arcs}) == payload["m"]
        assert fp.kappa(d) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "nf-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
