import copy
import gc
import pickle
import random
import re
import tracemalloc
import weakref
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from families import (
    all_connected_multigraphs,
    bowtie_graph,
    complete,
    default_orientation,
    directed_cycle,
    disjoint_union,
    example_graph,
    path,
    petersen,
    single_loop,
    small_multigraphs,
    triangle,
)
from oracles import is_dual_flow_by_circuits, product_circulations, product_tensions
from flowpoly import flows
from flowpoly.errors import BoundExceeded
from flowpoly.formats import load_graph
from flowpoly.flows import (
    _P,
    ConformalCount,
    ZpMap,
    _certificate,
    _certificate_weights,
    _blocks,
    _circulations,
    _flow_forms,
    _packed_counts,
    _sweep,
    _conformal_counts,
    _conformal_sums,
    _sweep_order,
    _split,
    _tension_forms,
    _tension_sums,
    _tensions,
    _zp,
    coefficient_table,
    coloring_from_dual_flow,
    count_conformal_dual_flows,
    count_conformal_flows,
    enumerate_dual_flows,
    enumerate_flows,
    find_nz_flow,
    flow_conformal_table,
    has_nz_flow_brute,
    has_nz_flow_conformal,
    is_dual_flow,
    is_flow,
    is_p_colorable,
)
from flowpoly.quotient import (
    conformal_normal_form,
    flow_polynomial_normal_form,
    has_nz_flow_membership,
)
from flowpoly.fourflow import (
    KLEIN,
    _KLEIN_GROUP,
    KleinMap,
    _klein_maps,
    enumerate_klein_circulations,
    find_nz_four_flow,
    four_flow_coefficient_table,
    has_nz_four_flow,
)
from flowpoly.graphs import (
    Digraph,
    UndirectedGraph,
    bridges,
    circuits,
    cyclomatic_number,
    orient,
)

ARCS = ("e1", "e2", "e3")


def zp(p, *vals):
    return ZpMap.from_tuple(p, ARCS, vals)


class TestMapCore:
    """ZpMap and KleinMap share one core, read through each map's group."""

    def test_domain_messages_name_the_record_kind(self):
        with pytest.raises(ValueError, match="^map domain does not match the graph's arc set$"):
            ZpMap(3, {"e1": 1}).check_domain(example_graph())
        with pytest.raises(ValueError, match="^map domain does not match the graph's edge set$"):
            KleinMap({"e1": (0, 1)}).check_domain(triangle())

    def test_codes_over_the_sorted_ids(self):
        d = Digraph.build([("b", "u", "v"), ("a", "v", "u")])
        assert ZpMap(3, {"b": 2, "a": 1})._codes(d) == (1, 2)
        u = d.underlying()
        assert KleinMap({"b": (1, 0), "a": (1, 1)})._codes(u) == (3, 2)
        with pytest.raises(ValueError, match="edge set"):
            KleinMap({"a": (0, 0)})._codes(u)

    def test_zero_and_top_values_come_from_the_group(self):
        assert ZpMap(3, {"e": 1}).is_nowhere_zero and ZpMap(3, {"e": 1}).avoids_max
        assert not ZpMap(3, {"e": 2}).avoids_max and not ZpMap(3, {"e": 0}).is_nowhere_zero
        assert KleinMap({"e": (1, 0)}).is_nowhere_zero and KleinMap({"e": (1, 0)}).avoids_max
        assert not KleinMap({"e": (1, 1)}).avoids_max and not KleinMap({"e": (0, 0)}).is_nowhere_zero

    @given(d=small_multigraphs(), group=st.sampled_from([2, 3, 4, 5, "Klein"]))
    @settings(max_examples=80, deadline=None)
    def test_enumerated_maps_match_the_checked_constructor(self, d, group):
        # the maps the enumerations and witness searches build from code
        # tuples, against the checked constructor on the decoded values
        if group == "Klein":
            g, grp = d.underlying(), _KLEIN_GROUP
            tensions = _klein_maps(g.sorted_ids, _tensions(g, grp, None))
            maps = tensions + enumerate_klein_circulations(g)
            witness = find_nz_four_flow(g)
            check = KleinMap
        else:
            g, grp = d, _zp(group)
            maps = enumerate_dual_flows(g, group) + enumerate_flows(g, group)
            witness = find_nz_flow(g, group)
            check = lambda values: ZpMap(group, values)
        ids, circulations = g.sorted_ids, list(_circulations(g, grp, None))
        tuples = list(_tensions(g, grp, None)) + circulations
        assert len(maps) == len(tuples)
        pairs = list(zip(maps, tuples))
        nz = next((t for t in circulations if all(t)), None)
        assert (witness is None) == (nz is None)
        if witness is not None:
            pairs.append((witness, nz))
        for m, t in pairs:
            checked = check(dict(zip(ids, [grp.values[c] for c in t])))
            assert m == checked and checked == m
            assert repr(m) == repr(checked)
            assert list(m.values) == list(checked.values) == list(ids)
            if group != "Klein":
                assert m.as_tuple(ids) == checked.as_tuple(ids) == t
            # the same map, keyed in another order, is still equal
            assert m == check(dict(reversed(list(checked.values.items()))))
            with pytest.raises(TypeError):
                hash(m)
            for twin in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
                assert twin == m and repr(twin) == repr(m)
            with pytest.raises(AttributeError):
                m.values = {}
            with pytest.raises(AttributeError):
                m._code = t
        for (m, t), (m2, t2) in zip(pairs, pairs[1:]):
            assert (m == m2) == (t == t2)

    def test_counting_builds_no_values_dict(self):
        # a map built from a code tuple holds that tuple until its values
        # are read, so taking the length of the list builds no dict
        maps = enumerate_dual_flows(example_graph(), 3)
        assert len(maps) == 3
        holds_dict = lambda m: any(isinstance(r, dict) for r in gc.get_referents(m))
        assert not any(holds_dict(m) for m in maps)
        assert maps[1].values == {"e1": 1, "e2": 2, "e3": 1}
        assert holds_dict(maps[1])

    def test_predicates_read_klein_maps_over_their_group(self):
        # on a triangle, conservation at each vertex makes two edges equal,
        # and a tension sums to (0, 0) around the one circuit
        g = triangle()
        for values in product(KLEIN, repeat=3):
            phi = KleinMap(dict(zip(g.sorted_edge_ids, values)))
            assert is_flow(g, phi) == (len(set(values)) == 1)
            assert is_dual_flow(g, phi) == all(sum(v) % 2 == 0 for v in zip(*values))


    @pytest.mark.parametrize("value", [1.5, 1.0, True, False, "1", None])
    def test_zp_map_takes_only_ints(self, value):
        # a float in range used to build a map that is_flow could not read
        message = f"^value {re.escape(repr(value))} for 'e1' not in 0..2$"
        with pytest.raises(ValueError, match=message):
            ZpMap(3, {"e1": value, "e2": 1})

    @pytest.mark.parametrize("value", [(1.0, 0), (0, 1.0), (True, False), 3, "01", (1, 0, 0), None])
    def test_klein_map_takes_only_pairs_of_ints(self, value):
        with pytest.raises(ValueError, match=r"^value .* for 'e' is not in Z2 x Z2$"):
            KleinMap({"e": value})

    def test_klein_map_takes_a_list_as_a_pair(self):
        # the JSON map parser reads pairs as lists
        m = KleinMap({"e": [1, 0]})
        assert m == KleinMap({"e": (1, 0)})
        assert repr(m) == "KleinMap(values={'e': (1, 0)})"


class TestIsFlow:
    def test_worked_example_values(self):
        g = example_graph()
        assert is_flow(g, zp(3, 1, 2, 1))
        assert not is_flow(g, zp(3, 1, 1, 1))

    def test_loops_always_conserve(self):
        g = Digraph.build([("e1", "u", "u"), ("e2", "u", "u")])
        assert is_flow(g, ZpMap(5, {"e1": 3, "e2": 4}))


class TestIsDualFlow:
    def test_worked_example_values(self):
        g = example_graph()
        cases = ((zp(3, 2, 1, 2), True), (zp(3, 1, 0, 0), False), (zp(3, 0, 0, 0), True))
        for phi, expect in cases:
            assert is_dual_flow(g, phi) is expect
            assert is_dual_flow_by_circuits(g, phi) is expect

    def test_loop_forces_zero(self):
        g = Digraph.build([("e1", "u", "u")])
        assert is_dual_flow(g, ZpMap(3, {"e1": 0}))
        assert not is_dual_flow(g, ZpMap(3, {"e1": 1}))

    def test_agrees_with_circuit_sums_on_random_graphs(self):
        rng = random.Random(7)
        for g in all_connected_multigraphs(4):
            d = default_orientation(g)
            for _ in range(5):
                phi = ZpMap(
                    3, {a: rng.randrange(3) for a in d.sorted_arc_ids}
                )
                assert is_dual_flow(d, phi) == is_dual_flow_by_circuits(d, phi)


class TestEnumerateFlows:
    def test_example_graph(self):
        g = example_graph()
        flows = enumerate_flows(g, 3)
        assert len(flows) == 9
        assert all(is_flow(g, f) for f in flows)
        nz = sorted(f.as_tuple(ARCS) for f in flows if f.is_nowhere_zero)
        assert nz == [(1, 2, 1), (2, 1, 2)]

    def test_tree_only_zero(self):
        d = orient(path(3))
        flows = enumerate_flows(d, 5)
        assert len(flows) == 1
        assert not any(v for v in flows[0].values.values())

    def test_directed_cycle_p2(self):
        flows = enumerate_flows(directed_cycle(3), 2)
        assert sorted(f.as_tuple(("e0", "e1", "e2")) for f in flows) == [
            (0, 0, 0),
            (1, 1, 1),
        ]

    def test_counts_on_family(self):
        for g in all_connected_multigraphs(4):
            d = default_orientation(g)
            for p in (2, 3):
                flows = enumerate_flows(d, p)
                assert len(flows) == p ** cyclomatic_number(d)
                assert all(is_flow(d, f) for f in flows)
                assert len({tuple(sorted(f.values.items())) for f in flows}) == len(flows)

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            enumerate_flows(directed_cycle(8), 3, max_states=2)


class TestEnumerateDualFlows:
    def test_example_graph(self):
        tensions = enumerate_dual_flows(example_graph(), 3)
        assert sorted(t.as_tuple(ARCS) for t in tensions) == [
            (0, 0, 0),
            (1, 2, 1),
            (2, 1, 2),
        ]

    def test_edgeless(self):
        g = Digraph(frozenset({"v"}), ())
        assert enumerate_dual_flows(g, 4) == [ZpMap(4, {})]

    def test_single_arc_p2(self):
        g = Digraph.build([("e1", "u", "v")])
        assert sorted(t.values["e1"] for t in enumerate_dual_flows(g, 2)) == [0, 1]

    def test_matches_circuit_definition(self):
        # graphic-matroid tensions: zero signed sum around every circuit
        for g in all_connected_multigraphs(4):
            d = default_orientation(g)
            circs = circuits(d)
            for p in (2, 3, 5):
                from itertools import product

                ids = d.sorted_arc_ids
                direct = set()
                for combo in product(range(p), repeat=len(ids)):
                    values = dict(zip(ids, combo))
                    ok = all(
                        sum(
                            values[eid] if fwd else -values[eid]
                            for eid, fwd in c.steps
                        )
                        % p
                        == 0
                        for c in circs
                    )
                    if ok:
                        direct.add(combo)
                enumerated = {
                    t.as_tuple(ids) for t in enumerate_dual_flows(d, p)
                }
                assert enumerated == direct


GROUPS = [(_zp(p), f"Z_{p}") for p in (2, 3, 4, 5)] + [(_KLEIN_GROUP, "Klein")]

ODOMETER_GRAPHS = {
    "example": example_graph(),
    "k4": default_orientation(complete(4)),
    "path": default_orientation(path(3)),
    "no free vertex": Digraph(frozenset({"v"}), ()),
    "loops only": Digraph.build([("l1", "v", "v"), ("l2", "v", "v")]),
    "loops at free vertices": Digraph.build(
        [("a", "u", "v"), ("l1", "v", "v"), ("b", "v", "w"), ("l2", "w", "w")]
    ),
    "isolated vertices": Digraph.build([("a", "u", "v")], vertices=["s", "t", "z"]),
    "components": default_orientation(disjoint_union(triangle(), single_loop(), path(2))),
}


class TestTensionOdometer:
    """The tensions in odometer order, the last free vertex fastest: the
    product reference's tuples in its order. The package reaches that
    order a block of list-built columns per step of its odometer over the
    outer vertices; TestTensionBlocks checks the blocks themselves."""

    @pytest.mark.parametrize("name", sorted(ODOMETER_GRAPHS))
    @pytest.mark.parametrize("group,gname", GROUPS, ids=[n for _, n in GROUPS])
    def test_matches_product_reference(self, name, group, gname):
        d = ODOMETER_GRAPHS[name]
        for g in (d, d.underlying()):
            got = list(_tensions(g, group, None))
            assert got == list(product_tensions(g, group, None)), name

    @given(g=small_multigraphs(max_vertices=5, max_edges=6))
    @settings(max_examples=80, deadline=None)
    def test_matches_product_reference_on_multigraphs(self, g):
        for group, _ in GROUPS:
            assert list(_tensions(g, group, None)) == list(product_tensions(g, group, None))

    def test_enumerate_dual_flows_matches_the_product_reference(self):
        d = default_orientation(complete(4))
        ids = d.sorted_arc_ids
        maps = enumerate_dual_flows(d, 3)
        assert [m.as_tuple(ids) for m in maps] == list(product_tensions(d, _zp(3), None))

    def test_enumerated_maps_insert_their_ids_in_sorted_order(self):
        d = Digraph.build([("b", "u", "v"), ("a", "v", "w"), ("c", "w", "u")])
        assert all(list(m.values) == ["a", "b", "c"] for m in enumerate_dual_flows(d, 3))
        u = d.underlying()
        tensions = _klein_maps(u.sorted_edge_ids, _tensions(u, _KLEIN_GROUP, None))
        assert all(list(m.values) == ["a", "b", "c"] for m in tensions)

    def test_state_bound_fires_on_the_first_step(self):
        with pytest.raises(BoundExceeded, match="^27 states exceed the bound 26$"):
            next(_tensions(default_orientation(complete(4)), _zp(3), 26))


BLOCK_GRAPHS = {
    "no vertex": Digraph(frozenset(), ()),
    "isolated vertices only": Digraph(frozenset({"s", "t", "z"}), ()),
    "loops at a root and at a non-root": Digraph.build(
        [("l1", "u", "u"), ("a", "u", "v"), ("l2", "v", "v"), ("b", "v", "w")]
    ),
    "disconnected": default_orientation(disjoint_union(triangle(), path(3), single_loop())),
    "parallel arcs": Digraph.build(
        [("a", "u", "v"), ("b", "v", "u"), ("c", "u", "v"), ("d", "v", "w"), ("e", "w", "v")]
    ),
    "k4": default_orientation(complete(4)),
    "k5": default_orientation(complete(5)),
}


SPACES = {  # the tuples, the packed blocks and the reference of each space
    "tensions": (
        _tensions,
        lambda g, group, bound: _blocks(group, *_tension_forms(g), bound),
        product_tensions,
    ),
    "circulations": (
        _circulations,
        lambda g, group, bound: _blocks(group, *_flow_forms(g), bound),
        product_circulations,
    ),
}


class TestTensionBlocks:
    """Blocks of q^k rows over the last free codes, for any block size, in
    both spaces: code tuples in the order of the space's reference, and
    packed counts equal to a per-tuple count, in value and in insertion
    order."""

    @staticmethod
    def check(g, group):
        q, n = group.q, len(g.sorted_ids)
        for tuples, blocks, reference in SPACES.values():
            expected = list(reference(g, group, None))
            assert list(tuples(g, group, None)) == expected
            packed = [x for block in blocks(g, group, None) for x in block]
            keys = [sum(c * q ** (n - 1 - i) for i, c in enumerate(t)) for t in expected]
            masks = [sum(1 << i for i, c in enumerate(t) if c == q - 1) for t in expected]
            assert packed == [k + q**n * mask for k, mask in zip(keys, masks)]
            acc, _ = _packed_counts(blocks(g, group, None), n, q, None)
            assert list(acc.items()) == list(Counter(packed).items())

    @given(d=small_multigraphs(max_vertices=6, max_edges=7), block=st.sampled_from([1, "q", 256]))
    @settings(max_examples=100, deadline=None)
    def test_matches_a_count_of_the_product_reference(self, d, block):
        for group, _ in GROUPS:
            with pytest.MonkeyPatch.context() as m:
                m.setattr(flows, "_BLOCK", group.q if block == "q" else block)
                for g in (d, d.underlying()):
                    self.check(g, group)

    @pytest.mark.parametrize("block", [1, "q", 256])
    @pytest.mark.parametrize("name", sorted(BLOCK_GRAPHS))
    @pytest.mark.parametrize("group,gname", GROUPS, ids=[n for _, n in GROUPS])
    def test_named_graphs(self, monkeypatch, name, group, gname, block):
        # at _BLOCK 1 every free code is outer, at q one is inner
        monkeypatch.setattr(flows, "_BLOCK", group.q if block == "q" else block)
        self.check(BLOCK_GRAPHS[name], group)

    def test_blocks_split_the_free_vertices(self):
        # k5 at Z_5: four free vertices, three inner (125 rows), one outer;
        # six records off the forest, three inner, three outer
        d = BLOCK_GRAPHS["k5"]
        blocks = list(_blocks(_zp(5), *_tension_forms(d), None))
        assert [len(b) for b in blocks] == [125] * 5
        blocks = list(_blocks(_zp(5), *_flow_forms(d), None))
        assert [len(b) for b in blocks] == [125] * 125

    def test_a_record_at_a_root_tabulates_one_row(self):
        # one arc from the root at Z_1009: a row of 1009 entries, where a
        # square of 1009^2 would take over 30 MB
        d = Digraph.build([("a", "u", "v")])
        tracemalloc.start()
        try:
            tensions = list(_tensions(d, _zp(1009), None))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tensions == [(x,) for x in range(1009)]
        assert peak < 2**22

    def test_a_forest_record_tabulates_one_row(self):
        # two parallel arcs at Z_1009: b is free and a, on the forest, its
        # negative; a row of 1009 entries per record, no 1009^2 square
        d = Digraph.build([("a", "u", "v"), ("b", "u", "v")])
        tracemalloc.start()
        try:
            circulations = list(_circulations(d, _zp(1009), None))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert circulations == [(-x % 1009, x) for x in range(1009)]
        assert peak < 2**22

    @pytest.mark.parametrize("decide", [False, True])
    def test_work_bound_is_exact_on_several_blocks(self, corpus_dir, decide):
        # w4 at Z_5: 625 tensions in blocks of 125; the bound counts the
        # conformal box of every tension, 4^|hot|
        w4 = load_graph(corpus_dir / "w4.g").as_digraph()
        work = sum(4 ** t.count(4) for t in product_tensions(w4, _zp(5), None))
        run = has_nz_flow_conformal if decide else coefficient_table
        run(w4, 5, max_states=work)
        message = f"^conformal aggregation exceeds {work - 1} steps$"
        with pytest.raises(BoundExceeded, match=message):
            run(w4, 5, max_states=work - 1)


class TestSweepOrder:
    @given(d=small_multigraphs(max_vertices=5, max_edges=6), p=st.integers(2, 4), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_order_gives_the_same_table(self, d, p, data):
        # the tension tables of both groups and the flow table, each piece
        # swept in its own order, in the order of its positions and in a
        # random one drawn per piece
        u = d.underlying()
        tables = (
            (d, lambda: _tension_sums(d, _zp(p), None)),
            (u, lambda: _tension_sums(u, _zp(p), None)),
            (u, lambda: _tension_sums(u, _KLEIN_GROUP, None)),
            (d, lambda: flow_conformal_table(d, p)._packed),
        )
        shuffle = lambda h: iter(data.draw(st.permutations(range(len(h.records)))))
        for g, table in tables:
            for h, _ in _split(g):
                order = list(_sweep_order(h))
                assert sorted(order) == list(range(len(h.records)))
                cut = bridges(h)
                if cut:
                    assert h.sorted_ids[order[0]] in cut
            expected = table()
            for other in (lambda h: iter(range(len(h.records))), shuffle):
                with pytest.MonkeyPatch.context() as m:
                    m.setattr(flows, "_sweep_order", other)
                    assert table() == expected

    def test_bridges_first_then_the_first_record_left(self):
        # a triangle a, b, c with a pendant arc d: d is the only bridge;
        # once a is swept, b and c are bridges
        d = Digraph.build([("a", "u", "v"), ("b", "v", "w"), ("c", "w", "u"), ("d", "w", "x")])
        assert list(_sweep_order(d)) == [3, 0, 1, 2]

    def test_bound_fires_before_the_order_is_computed(self, monkeypatch):
        def no_search(g):
            raise AssertionError("the sweep order was computed")

        monkeypatch.setattr(flows, "bridges", no_search)
        d = default_orientation(complete(4))
        with pytest.raises(BoundExceeded, match="^conformal aggregation exceeds 30 steps$"):
            coefficient_table(d, 3, max_states=30)

    @pytest.mark.parametrize("group", [3, "Klein"])
    def test_an_empty_table_ends_the_sweep(self, monkeypatch, group):
        # k4 with a pendant arc: the pendant arc is a piece of its own with
        # the fewest counts, swept first; its table is empty, so the k4
        # piece is never swept, by the table or by the decider
        d = Digraph.build(
            [("a", "0", "1"), ("b", "0", "2"), ("c", "0", "3"), ("d", "1", "2"),
             ("e", "1", "3"), ("f", "2", "3"), ("g", "3", "x")]
        )
        if group == "Klein":
            g, grp, decide = d.underlying(), _KLEIN_GROUP, lambda: has_nz_four_flow(g, "conformal")
        else:
            g, grp, decide = d, _zp(group), lambda: has_nz_flow_conformal(g, group)
        swept, sweep = [], flows._sweep
        record = lambda h, *args: swept.append(h.sorted_ids) or sweep(h, *args)
        monkeypatch.setattr(flows, "_sweep", record)
        assert _tension_sums(g, grp, None) == {}
        assert swept == [("g",)]
        swept.clear()
        assert not decide()
        assert swept == [("g",)]

    @pytest.mark.parametrize("route", [has_nz_flow_conformal, coefficient_table])
    def test_the_counts_are_dropped_once_the_sweep_starts(self, monkeypatch, route):
        # once the sweep of a piece has grouped its counts, before it draws
        # its first position, nothing holds them. The sweep is called
        # through a frame that keeps its arguments until the call returns,
        # as a caller's frame does on CPython 3.10. k4 at Z_3 is one piece
        # with an empty table; the bowtie at Z_3 is two triangles with
        # nonempty tables, each swept. The certificate reads 0, so that the
        # decider sweeps every piece as the table does
        alive, counts = [], {}
        sweep_order, sweep = flows._sweep_order, flows._sweep

        def held(h, owned, q):
            counts[h.sorted_ids] = weakref.ref(owned[0])
            return sweep(h, owned, q)

        def order(h):
            alive.append(counts[h.sorted_ids]() is not None)
            yield from sweep_order(h)

        monkeypatch.setattr(flows, "_certificate", lambda acc, n, q: 0)
        monkeypatch.setattr(flows, "_sweep_order", order)
        monkeypatch.setattr(flows, "_sweep", held)
        assert not route(default_orientation(complete(4)), 3)
        assert alive == [False]
        alive.clear()
        assert route(default_orientation(bowtie_graph()), 3)
        assert alive == [False, False]


def _pendant_k4() -> Digraph:
    """k4 with a pendant arc: two pieces, the k4 and the bridge."""
    return Digraph.build(
        [("a", "0", "1"), ("b", "0", "2"), ("c", "0", "3"), ("d", "1", "2"),
         ("e", "1", "3"), ("f", "2", "3"), ("g", "3", "x")]
    )


def _box_table(g, maps, q) -> dict[int, int]:
    """The packed table c(psi) of a whole-graph space by its definition:
    each map adds (-1)^|hot| at every psi in its box, the codes below the
    top at each of its top positions."""
    n, table = len(g.sorted_ids), Counter()
    for t in maps:
        hot = t.count(q - 1)
        for psi in product(*[range(q - 1) if c == q - 1 else (c,) for c in t]):
            table[sum(c * q ** (n - 1 - i) for i, c in enumerate(psi))] += (-1) ** hot
    return {k: c for k, c in table.items() if c}


class TestPieces:
    """The conformal route runs per 2-connected piece: tables, deciders and
    the "tension" and "flow" counts, against whole-graph references. The
    references (the box expansion of product_tensions and
    product_circulations, and the "subset" count) read the whole graph.
    Since the route now multiplies over the pieces itself, a check that
    the tables multiply over the blocks of G can no longer catch a fault
    in it; only the fold and brute force stay open to that check."""

    @given(d=small_multigraphs(), group=st.sampled_from([2, 3, 4, 5, "Klein"]))
    @settings(max_examples=150, deadline=None)
    def test_tables_and_deciders_match_whole_graph_references(self, d, group):
        # loops, parallel arcs, isolated vertices and several components
        if group == "Klein":
            g, grp = d.underlying(), _KLEIN_GROUP
            answer = has_nz_four_flow(g, "conformal")
        else:
            g, grp = d, _zp(group)
            answer = has_nz_flow_conformal(g, group)
        tensions = _box_table(g, product_tensions(g, grp, None), grp.q)
        assert _tension_sums(g, grp, None) == tensions
        assert answer == bool(tensions)
        flows_ = _box_table(g, product_circulations(g, grp, None), grp.q)
        assert _conformal_sums(g, grp, False, None) == flows_

    @given(d=small_multigraphs(), p=st.integers(2, 5))
    @settings(max_examples=100, deadline=None)
    def test_counts_match_the_subset_method(self, d, p):
        psis = list(product(range(p - 1), repeat=len(d.sorted_ids)))
        for dual, full in ((True, "tension"), (False, "flow")):
            expected = _conformal_counts(d, p, psis, dual, "subset", None)
            assert _conformal_counts(d, p, psis, dual, full, None) == expected

    @pytest.mark.parametrize("name", ["bowtie", "pendant k4"])
    @pytest.mark.parametrize("group", [3, 5, "Klein"])
    def test_work_bound_is_exact_on_several_pieces(self, name, group):
        # the bound counts the conformal box of every whole-graph tension,
        # (q-1)^|hot|, the product of the pieces' box sums
        d = default_orientation(bowtie_graph()) if name == "bowtie" else _pendant_k4()
        if group == "Klein":
            g, grp = d.underlying(), _KLEIN_GROUP
            runs = (
                lambda bound: four_flow_coefficient_table(g, bound),
                lambda bound: has_nz_four_flow(g, "conformal", max_states=bound),
            )
        else:
            g, grp = d, _zp(group)
            runs = (
                lambda bound: coefficient_table(g, group, bound),
                lambda bound: has_nz_flow_conformal(g, group, bound),
            )
        assert len(g.pieces) == 2
        top = grp.q - 1
        work = sum(top ** t.count(top) for t in product_tensions(g, grp, None))
        message = f"^conformal aggregation exceeds {work - 1} steps$"
        for run in runs:
            run(work)
            with pytest.raises(BoundExceeded, match=message):
                run(work - 1)

    def test_the_state_bound_reads_the_whole_graph(self):
        # the bowtie: 3^4 = 81 tensions at Z_3, 4^4 = 256 Klein tensions
        # and 3^2 = 9 circulations at Z_3, where each triangle has 9, 16
        # and 3
        d = default_orientation(bowtie_graph())
        psi = ZpMap(3, {a: 0 for a in d.sorted_arc_ids})
        tension_routes = (
            lambda bound: coefficient_table(d, 3, bound),
            lambda bound: has_nz_flow_conformal(d, 3, bound),
            lambda bound: count_conformal_dual_flows(d, psi, 3, "tension", bound),
        )
        for run in tension_routes:
            with pytest.raises(BoundExceeded, match="^81 states exceed the bound 80$"):
                run(80)
        u = d.underlying()
        for run in (
            lambda bound: four_flow_coefficient_table(u, bound),
            lambda bound: has_nz_four_flow(u, "conformal", max_states=bound),
        ):
            with pytest.raises(BoundExceeded, match="^256 states exceed the bound 255$"):
                run(255)
        for run in (
            lambda bound: flow_conformal_table(d, 3, bound),
            lambda bound: count_conformal_flows(d, psi, 3, "flow", bound),
        ):
            with pytest.raises(BoundExceeded, match="^9 states exceed the bound 8$"):
                run(8)

    def test_one_piece_builds_no_sub_graph(self):
        g = default_orientation(complete(4))
        assert _split(g) == [(g, range(6))]
        h = Digraph(frozenset({"u", "v", "w"}), ())
        assert _split(h) == [(h, range(0))]


class TestConformalRouteRejectsSmallModuli:
    # the conformal routes and every other Z_p route build their group
    # through _zp, which holds the check
    @pytest.mark.parametrize("p", [0, 1])
    @pytest.mark.parametrize(
        "route",
        [
            has_nz_flow_conformal,
            coefficient_table,
            conformal_normal_form,
            flow_polynomial_normal_form,
            has_nz_flow_membership,
            enumerate_flows,
            enumerate_dual_flows,
            find_nz_flow,
            flow_conformal_table,
        ],
    )
    def test_p_below_two(self, route, p):
        with pytest.raises(ValueError, match="^p must be >= 2$"):
            route(example_graph(), p)

    @pytest.mark.parametrize("p", [0, 1])
    def test_the_group_holds_the_check(self, p):
        with pytest.raises(ValueError, match="^p must be >= 2$"):
            _zp(p)


class TestCountConformalDualFlows:
    def test_worked_example_cases(self):
        g = example_graph()
        assert count_conformal_dual_flows(g, zp(3, 1, 1, 0), 3) == ConformalCount(1, 0)
        assert count_conformal_dual_flows(g, zp(3, 1, 0, 0), 3) == ConformalCount(0, 0)
        assert count_conformal_dual_flows(g, zp(3, 0, 0, 0), 3) == ConformalCount(1, 0)
        # the odd witness for psi = (1,0,1) is (1,2,1): (2,1,2) fails
        # conformality at e2 because 1 is not in {0,2}
        assert count_conformal_dual_flows(g, zp(3, 1, 0, 1), 3) == ConformalCount(0, 1)

    def test_methods_agree_everywhere(self):
        from itertools import product

        for g in all_connected_multigraphs(3):
            d = default_orientation(g)
            ids = d.sorted_arc_ids
            for p in (2, 3, 4):
                for combo in product(range(p - 1), repeat=len(ids)):
                    psi = ZpMap.from_tuple(p, ids, combo)
                    a = count_conformal_dual_flows(d, psi, p, method="subset")
                    b = count_conformal_dual_flows(d, psi, p, method="tension")
                    assert a == b


class TestUnknownCountMethod:
    # the two counters share one method dispatch; each names only its own
    # enumeration, so the other's is unknown to it
    @pytest.mark.parametrize(
        "count, method",
        [
            (count_conformal_dual_flows, "flow"),
            (count_conformal_dual_flows, "bogus"),
            (count_conformal_flows, "tension"),
            (count_conformal_flows, "bogus"),
        ],
    )
    def test_message(self, count, method):
        with pytest.raises(ValueError, match=f"^unknown method '{method}'$"):
            count(example_graph(), zp(3, 0, 0, 0), 3, method=method)

    def test_psi_is_checked_before_the_method(self):
        with pytest.raises(ValueError, match="^psi must avoid the maximal label p-1$"):
            count_conformal_flows(example_graph(), zp(3, 2, 0, 0), 3, method="bogus")


class TestCountConformalFlows:
    def test_worked_flow_counts(self):
        # conformal flow counts on the 3-arc digraph itself: these are the
        # dual-flow counts of its plane dual under the arc bijection
        g = example_graph()
        assert count_conformal_flows(g, zp(3, 1, 1, 0), 3) == ConformalCount(3, 0)
        assert count_conformal_flows(g, zp(3, 1, 0, 1), 3) == ConformalCount(0, 3)
        assert count_conformal_flows(g, zp(3, 1, 0, 0), 3) == ConformalCount(1, 1)
        assert count_conformal_flows(g, zp(3, 0, 0, 0), 3) == ConformalCount(3, 0)

    def test_tree(self):
        d = orient(path(2))
        psi = ZpMap(4, {a: 0 for a in d.sorted_arc_ids})
        assert count_conformal_flows(d, psi, 4) == ConformalCount(1, 0)

    def test_methods_agree(self):
        g = example_graph()
        for combo in [(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)]:
            psi = zp(3, *combo)
            a = count_conformal_flows(g, psi, 3, method="subset")
            b = count_conformal_flows(g, psi, 3, method="flow")
            assert a == b


class TestCoefficientTable:
    def test_worked_example_table(self):
        table = coefficient_table(example_graph(), 3)
        assert table == {
            (0, 0, 0): 1,
            (0, 1, 0): 1,
            (0, 1, 1): 1,
            (1, 1, 0): 1,
            (1, 0, 1): -1,
        }

    def test_edgeless(self):
        g = Digraph(frozenset({"v"}), ())
        assert coefficient_table(g, 3) == {(): 1}

    def test_single_arc_p2_cancels(self):
        g = Digraph.build([("e1", "u", "v")])
        assert coefficient_table(g, 2) == {}

    def test_equals_per_psi_counts(self):
        from itertools import product

        for g in all_connected_multigraphs(3):
            d = default_orientation(g)
            ids = d.sorted_arc_ids
            for p in (2, 3, 4):
                table = coefficient_table(d, p)
                for combo in product(range(p - 1), repeat=len(ids)):
                    psi = ZpMap.from_tuple(p, ids, combo)
                    counts = count_conformal_dual_flows(d, psi, p)
                    assert table.get(combo, 0) == counts.coefficient

    def test_equals_per_psi_counts_six_edges(self):
        # same identity quantified over every psi on 6-edge graphs
        from itertools import product

        cases = [
            (default_orientation(complete(4)), (3, 4)),
            (default_orientation(bowtie_graph()), (3,)),
        ]
        for d, ps in cases:
            ids = d.sorted_arc_ids
            for p in ps:
                table = coefficient_table(d, p)
                for combo in product(range(p - 1), repeat=len(ids)):
                    psi = ZpMap.from_tuple(p, ids, combo)
                    counts = count_conformal_dual_flows(d, psi, p)
                    assert table.get(combo, 0) == counts.coefficient

    @staticmethod
    def subset_table(g, p, count):
        """The nonzero per-psi coefficients of count by the subset method."""
        ids = g.sorted_arc_ids
        expected = {}
        for combo in product(range(p - 1), repeat=len(ids)):
            c = count(g, ZpMap.from_tuple(p, ids, combo), p, "subset").coefficient
            if c:
                expected[combo] = c
        return expected

    @given(g=small_multigraphs(), p=st.integers(2, 5))
    @settings(max_examples=120, deadline=None)
    def test_equals_subset_counts_on_multigraphs(self, g, p):
        # loops, parallel arcs, isolated vertices, several components; at
        # p=5 each hot entry of the sweep spreads to four keys
        expected = self.subset_table(g, p, count_conformal_dual_flows)
        assert coefficient_table(g, p) == expected
        assert has_nz_flow_conformal(g, p) == bool(expected)

    @given(g=small_multigraphs(), p=st.integers(2, 5))
    @settings(max_examples=120, deadline=None)
    def test_flow_table_equals_subset_counts_on_multigraphs(self, g, p):
        assert flow_conformal_table(g, p) == self.subset_table(g, p, count_conformal_flows)

    def test_aggregation_bound(self):
        # 27 tensions fit the bound of 30, their conformal boxes do not
        d = default_orientation(complete(4))
        with pytest.raises(BoundExceeded) as err:
            coefficient_table(d, 3, max_states=30)
        assert str(err.value) == "conformal aggregation exceeds 30 steps"

    def test_decider_propagates_the_aggregation_bound(self):
        d = default_orientation(complete(4))
        with pytest.raises(BoundExceeded, match="^conformal aggregation exceeds 30 steps$"):
            has_nz_flow_conformal(d, 3, max_states=30)


class TestConformalCertificate:
    """The deciders read a certificate off the packed tension counts and
    sweep them only when it reads 0."""

    @given(d=small_multigraphs(), group=st.sampled_from([2, 3, 4, 5, "Klein"]))
    @settings(max_examples=150, deadline=None)
    def test_decider_equals_the_table(self, d, group):
        if group == "Klein":
            g, grp = d.underlying(), _KLEIN_GROUP
            answer = has_nz_four_flow(g, "conformal")
        else:
            g, grp = d, _zp(group)
            answer = has_nz_flow_conformal(g, group)
        table = _tension_sums(g, grp, None)
        assert answer == bool(table)
        blocks = _blocks(grp, *_tension_forms(g), None)
        acc, _ = _packed_counts(blocks, len(g.sorted_ids), grp.q, None)
        if _certificate(acc, len(g.sorted_ids), grp.q):
            assert table

    @given(q=st.integers(2, 5), n=st.integers(0, 5), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_certificate_reads_the_table_through_a_product(self, q, n, data):
        # any packed counts, not only those of tensions, each key packed
        # with its hot set: the sweep gives per psi the sum of (-1)^|hot|
        # times the count of each key equal to psi off its top codes, and
        # S is the sum of c(psi) * prod_e a_e(psi_e) over that table
        codes = st.tuples(*[st.integers(0, q - 1)] * n)
        drawn = data.draw(st.dictionaries(codes, st.integers(-3, 3).filter(bool), max_size=40))

        def key(t):
            return sum(d * q ** (n - 1 - e) for e, d in enumerate(t))

        hot = {t: [e for e, d in enumerate(t) if d == q - 1] for t in drawn}
        acc = {key(t) + q**n * sum(1 << e for e in hot[t]): c for t, c in drawn.items()}
        counts = dict(acc)
        g = Digraph.build([(f"e{i}", "u", "v") for i in range(n)], vertices=["u", "v"])
        table = _sweep(g, [acc], q)
        assert acc == counts  # the sweep reads the counts and keeps them
        reference = {}
        for psi in product(range(q - 1), repeat=n):
            c = sum(
                (-1) ** len(hot[t]) * c
                for t, c in drawn.items()
                if all(d in (x, q - 1) for d, x in zip(t, psi))
            )
            if c:
                reference[key(psi)] = c
        assert table == reference
        rows = _certificate_weights(n, q)
        assert all(sum(row) % _P == 0 for row in rows)
        expected = 0
        for k, c in table.items():
            for e in range(n):
                c *= rows[e][k // q ** (n - 1 - e) % q]
            expected += c
        assert _certificate(acc, n, q) == expected % _P

    def test_a_zero_certificate_leaves_the_answer_to_the_sweep(self, monkeypatch, corpus_dir):
        monkeypatch.setattr(flows, "_certificate", lambda acc, n, q: 0)
        for g in all_connected_multigraphs(4):
            d = default_orientation(g)
            for p in (2, 3, 4):
                assert has_nz_flow_conformal(d, p) == has_nz_flow_brute(d, p)
            assert has_nz_four_flow(g, "conformal") == (find_nz_four_flow(g) is not None)
        assert not has_nz_flow_conformal(default_orientation(petersen()), 3)
        w5 = load_graph(corpus_dir / "w5.g")
        assert has_nz_flow_conformal(w5.as_digraph(), 5)
        assert has_nz_four_flow(w5.as_undirected(), "conformal")

    def test_a_nonzero_certificate_skips_the_sweep(self, monkeypatch, corpus_dir):
        # w5 is bridgeless and has nowhere-zero flows
        def no_sweep(g):
            raise AssertionError("the sweep order was read")

        monkeypatch.setattr(flows, "_sweep_order", no_sweep)
        w5 = load_graph(corpus_dir / "w5.g")
        assert has_nz_flow_conformal(w5.as_digraph(), 5)
        assert has_nz_four_flow(w5.as_undirected(), "conformal")

    @pytest.mark.parametrize("group, bound", [(5, 5000), ("Klein", 1100)])
    def test_the_bound_fires_before_any_answer(self, monkeypatch, corpus_dir, group, bound):
        # the tensions fit the bound, their conformal boxes do not; the
        # bound is checked over every tension before the bridges are
        # searched or the certificate is read
        def unreached(*args):
            raise AssertionError("an answer was sought")

        monkeypatch.setattr(flows, "bridges", unreached)
        monkeypatch.setattr(flows, "_certificate", unreached)
        w5 = load_graph(corpus_dir / "w5.g")
        message = f"^conformal aggregation exceeds {bound} steps$"
        with pytest.raises(BoundExceeded, match=message):
            if group == "Klein":
                has_nz_four_flow(w5.as_undirected(), "conformal", max_states=bound)
            else:
                has_nz_flow_conformal(w5.as_digraph(), group, max_states=bound)


class TestColoringFromDualFlow:
    def test_example_graph(self):
        omega = coloring_from_dual_flow(example_graph(), zp(3, 1, 2, 1))
        assert omega == {"v1": 0, "v2": 1}

    def test_single_arc(self):
        g = Digraph.build([("e1", "u", "v")])
        omega = coloring_from_dual_flow(g, ZpMap(2, {"e1": 1}))
        assert omega == {"u": 0, "v": 1}

    def test_directed_cycle(self):
        omega = coloring_from_dual_flow(
            directed_cycle(3), ZpMap(3, {"e0": 1, "e1": 1, "e2": 1})
        )
        assert omega == {"v0": 0, "v1": 1, "v2": 2}

    def test_rejects_non_tension(self):
        from flowpoly.errors import PreconditionError

        with pytest.raises(PreconditionError):
            coloring_from_dual_flow(example_graph(), zp(3, 1, 1, 1))
        with pytest.raises(PreconditionError):
            coloring_from_dual_flow(example_graph(), zp(3, 0, 0, 0))

    def test_always_proper_on_random_tensions(self):
        rng = random.Random(11)
        checked = 0
        for g in all_connected_multigraphs(5):
            if any(e.is_loop for e in g.edges):
                continue
            d = default_orientation(g)
            for p in (3, 4, 5):
                nz = [
                    t for t in enumerate_dual_flows(d, p) if t.is_nowhere_zero
                ]
                for phi in rng.sample(nz, min(3, len(nz))):
                    omega = coloring_from_dual_flow(d, phi)
                    for e in g.edges:
                        assert omega[e.u] != omega[e.v]
                    checked += 1
        assert checked > 50


class TestColorable:
    def test_triangle(self):
        assert is_p_colorable(triangle(), 3)
        assert not is_p_colorable(triangle(), 2)

    def test_k4(self):
        assert not is_p_colorable(complete(4), 3)
        assert is_p_colorable(complete(4), 4)

    def test_petersen(self):
        assert is_p_colorable(petersen(), 3)

    def test_loop_never_colorable(self):
        g = UndirectedGraph.build([("e1", "u", "u")])
        assert not is_p_colorable(g, 5)


class TestColoringCorrespondence:
    def test_colorable_iff_nz_tension_exists(self):
        # reorientation only negates arc values, so one orientation decides
        for g in all_connected_multigraphs(4):
            d = default_orientation(g)
            for p in (2, 3):
                flowing = any(
                    t.is_nowhere_zero for t in enumerate_dual_flows(d, p)
                )
                assert flowing == is_p_colorable(g, p)
