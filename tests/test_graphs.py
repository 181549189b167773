import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from families import (
    all_connected_multigraphs,
    complete,
    cycle,
    example_graph,
    parallel,
    path,
    petersen,
    single_loop,
    small_multigraphs,
    triangle,
)
from flowpoly.graphs import (
    Arc,
    Circuit,
    Digraph,
    Edge,
    UndirectedGraph,
    bridges,
    circuits,
    connected_components,
    contract,
    cyclomatic_number,
    find_small_circuit,
    is_bridgeless,
    is_chordal,
    kappa,
    orient,
    reverse_arcs,
)
from oracles import dfs_components, pieces_by_circuits


KINDS = pytest.mark.parametrize(
    "cls, record, kind",
    [(Digraph, Arc, "arc"), (UndirectedGraph, Edge, "edge")],
    ids=["arc", "edge"],
)


@KINDS
def test_build_rejects_duplicate_ids(cls, record, kind):
    with pytest.raises(ValueError, match=f"^duplicate {kind} id 'e1'$"):
        cls.build([("e1", "a", "b"), ("e1", "b", "c")])


@KINDS
def test_build_rejects_dangling_endpoints(cls, record, kind):
    with pytest.raises(ValueError, match=f"^{kind} 'e1' endpoint 'b' not a vertex$"):
        cls(frozenset({"a"}), (record("e1", "a", "b"),))


class TestCore:
    """The records, the cached search and the stars, over both kinds."""

    @settings(max_examples=200, deadline=None)
    @given(small_multigraphs(max_vertices=5, max_edges=6), st.booleans(), st.data())
    def test_against_records(self, d, undirected, data):
        g = d.underlying() if undirected else d
        ends = [g.by_id[i].ends() for i in g.sorted_ids]
        assert g.sorted_ids == tuple(sorted(r.id for r in g.records))
        comps, forest = g.bfs
        assert g.bfs is g.bfs and g.stars is g.stars
        assert connected_components(g) == dfs_components(g) == list(comps)
        assert kappa(g) == len(comps)
        assert cyclomatic_number(g) == len(g.records) - len(g.vertices) + len(comps)

        comp_of = {v: k for k, comp in enumerate(comps) for v in comp}
        roots = [comp[0] for comp in comps]
        visited = set(roots)
        for w, v, i, sign in forest:
            assert w not in visited and v in visited
            assert comp_of[w] == comp_of[v]
            assert ends[i] == ((v, w) if sign > 0 else (w, v))
            visited.add(w)
        assert len(forest) == len(g.vertices) - len(comps)
        assert visited == set(g.vertices)

        for v, star in g.stars.items():
            expected = [
                (i, -1 if v == a else 1)
                for i, (a, b) in enumerate(ends)
                if a != b and v in (a, b)
            ]
            assert star == expected
        assert set(g.stars) == set(g.vertices)

        gone = data.draw(st.sets(st.sampled_from(g.sorted_ids)) if g.sorted_ids else st.just(set()))
        h = contract(g, gone)
        assert type(h) is type(g)
        assert h.sorted_ids == tuple(i for i in g.sorted_ids if i not in gone)
        assert kappa(h) == kappa(g)


class TestOrient:
    def test_single_edge(self):
        g = UndirectedGraph.build([("e1", "u", "v")])
        d = orient(g, {"e1": ("u", "v")})
        assert d.arc_by_id["e1"].ends() == ("u", "v")
        d = orient(g, {"e1": ("v", "u")})
        assert d.arc_by_id["e1"].ends() == ("v", "u")

    def test_cyclic_triangle(self):
        d = orient(
            triangle(), {"e1": ("a", "b"), "e2": ("b", "c"), "e3": ("c", "a")}
        )
        heads = {a.id: a.head for a in d.arcs}
        assert heads == {"e1": "b", "e2": "c", "e3": "a"}

    def test_worked_example_digraph(self):
        g = UndirectedGraph.build(
            [("e1", "v1", "v2"), ("e2", "v1", "v2"), ("e3", "v1", "v2")]
        )
        d = orient(
            g, {"e1": ("v1", "v2"), "e2": ("v2", "v1"), "e3": ("v1", "v2")}
        )
        expect = example_graph()
        assert {(a.id, a.tail, a.head) for a in d.arcs} == {
            (a.id, a.tail, a.head) for a in expect.arcs
        }

    def test_reorientation_involution(self):
        d = example_graph()
        assert reverse_arcs(reverse_arcs(d, ["e2"]), ["e2"]) == d

    def test_unknown_edge(self):
        with pytest.raises(ValueError):
            orient(triangle(), {"zz": ("a", "b")})

    def test_mismatched_endpoints(self):
        with pytest.raises(ValueError):
            orient(triangle(), {"e1": ("a", "c")})


class TestContract:
    def test_triangle_edge(self):
        g = contract(triangle(), ["e1"])
        assert len(g.vertices) == 2
        assert sorted(e.id for e in g.edges) == ["e2", "e3"]
        # both remaining edges now join the same two vertices
        pairs = {frozenset(e.ends()) for e in g.edges}
        assert len(pairs) == 1

    def test_k4_triangle(self):
        k4 = complete(4)
        tri = find_small_circuit(k4)
        g = contract(k4, tri.edge_ids)
        assert len(g.vertices) == len(k4.vertices) - 2
        assert len(g.edges) == len(k4.edges) - 3
        pairs = {frozenset(e.ends()) for e in g.edges}
        assert len(pairs) == 1  # three parallel edges

    def test_empty_set_is_identity(self):
        g = triangle()
        assert contract(g, []) == g

    def test_unknown_edge(self):
        with pytest.raises(ValueError):
            contract(triangle(), ["nope"])

    def test_id_stability(self):
        g = complete(4)
        c = ["e1", "e2"]
        h = contract(g, c)
        assert set(h.edge_by_id) == set(g.edge_by_id) - set(c)

    def test_merged_vertex_takes_smallest_id(self):
        g = UndirectedGraph.build([("e1", "z", "a"), ("e2", "a", "m")])
        h = contract(g, ["e1"])
        assert "a" in h.vertices and "z" not in h.vertices


class TestComponents:
    def test_example_graph_connected(self):
        assert kappa(example_graph()) == 1

    def test_two_triangles(self):
        g = UndirectedGraph.build(
            [("p1", "a", "b"), ("p2", "b", "c"), ("p3", "a", "c"),
             ("q1", "d", "e"), ("q2", "e", "f"), ("q3", "d", "f")]
        )
        assert kappa(g) == 2

    def test_empty(self):
        assert kappa(UndirectedGraph(frozenset(), ())) == 0

    def test_isolated_vertex_counts(self):
        g = UndirectedGraph.build([("e1", "a", "b")], vertices=["z"])
        assert connected_components(g) == [("a", "b"), ("z",)]


class TestFindSmallCircuit:
    def test_triangle(self):
        c = find_small_circuit(triangle())
        assert sorted(c.edge_ids) == ["e1", "e2", "e3"]

    def test_parallel_pair(self):
        c = find_small_circuit(parallel(2))
        assert len(c) == 2

    def test_path_has_none(self):
        assert find_small_circuit(path(3)) is None

    def test_loop_wins_over_pair(self):
        g = UndirectedGraph.build(
            [("a1", "u", "v"), ("a2", "u", "v"), ("z9", "u", "u")]
        )
        c = find_small_circuit(g)
        assert c.edge_ids == ("z9",)

    def test_deterministic(self):
        g = complete(4)
        assert find_small_circuit(g) == find_small_circuit(g)


class TestBridges:
    def test_single_edge(self):
        assert not is_bridgeless(path(1))

    def test_triangle(self):
        assert is_bridgeless(triangle())

    def test_bowtie(self):
        g = UndirectedGraph.build(
            [("e1", "a", "b"), ("e2", "a", "c"), ("e3", "b", "c"),
             ("e4", "c", "d"), ("e5", "c", "f"), ("e6", "d", "f")]
        )
        assert is_bridgeless(g)

    def test_loop_never_bridge(self):
        assert is_bridgeless(single_loop())

    def test_parallel_pair_not_bridge(self):
        assert is_bridgeless(parallel(2))

    def test_against_removal_oracle(self):
        # a bridge is exactly an edge whose removal raises the component count
        for g in all_connected_multigraphs(4):
            expect = set()
            for e in g.edges:
                if e.is_loop:
                    continue
                rest = UndirectedGraph(
                    g.vertices, tuple(x for x in g.edges if x.id != e.id)
                )
                if kappa(rest) > kappa(g):
                    expect.add(e.id)
            assert bridges(g) == expect, g

    @given(d=small_multigraphs())
    @settings(max_examples=100, deadline=None)
    def test_either_graph_kind(self, d):
        # orientation plays no part: a digraph has the bridges of its
        # underlying graph
        assert bridges(d) == bridges(d.underlying())


class TestPieces:
    """The 2-connected pieces of the lowpoint search against their
    definition: two records share a piece just when a circuit holds both."""

    @given(d=small_multigraphs(max_vertices=5, max_edges=8))
    @settings(max_examples=200, deadline=None)
    def test_against_the_circuit_oracle(self, d):
        # loops, parallel arcs, isolated vertices and several components
        expected = pieces_by_circuits(d)
        for g in (d, d.underlying()):
            assert g.pieces == expected
            loops = {(i,) for i, r in enumerate(g.sorted_ids) if g.by_id[r].is_loop}
            alone = {g.sorted_ids[i] for i, *more in expected if not more and (i,) not in loops}
            assert bridges(g) == alone

    def test_named_shapes(self):
        bowtie = UndirectedGraph.build(
            [("e1", "a", "b"), ("e2", "a", "c"), ("e3", "b", "c"),
             ("e4", "c", "d"), ("e5", "c", "f"), ("e6", "d", "f")]
        )
        assert bowtie.pieces == ((0, 1, 2), (3, 4, 5))
        # a loop, a parallel pair and a pendant edge at one vertex
        g = UndirectedGraph.build(
            [("a", "u", "u"), ("b", "u", "v"), ("c", "v", "u"), ("d", "u", "w")]
        )
        assert g.pieces == ((0,), (1, 2), (3,))
        assert bridges(g) == {"d"}
        assert UndirectedGraph(frozenset({"v"}), ()).pieces == ()
        assert complete(4).pieces == (tuple(range(6)),)


def _chordal_oracle(g: UndirectedGraph) -> bool:
    """No chordless induced cycle of length >= 4 in the simple graph."""
    from itertools import combinations

    adj = g.simple_adjacency()
    verts = sorted(adj)
    for size in range(4, len(verts) + 1):
        for subset in combinations(verts, size):
            sub = {v: adj[v] & set(subset) for v in subset}
            if all(len(n) == 2 for n in sub.values()):
                # connected 2-regular induced subgraph = chordless cycle
                seen = {subset[0]}
                stack = [subset[0]]
                while stack:
                    v = stack.pop()
                    for w in sub[v]:
                        if w not in seen:
                            seen.add(w)
                            stack.append(w)
                if len(seen) == size:
                    return False
    return True


class TestChordal:
    def test_k4(self):
        assert is_chordal(complete(4))

    def test_c4(self):
        assert not is_chordal(cycle(4))

    def test_petersen(self):
        g = petersen()
        assert not is_chordal(g)
        assert not _chordal_oracle(g)

    def test_ignores_loops_and_multiplicity(self):
        g = UndirectedGraph.build(
            [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "a", "c"),
             ("e4", "a", "b"), ("e5", "c", "c")]
        )
        assert is_chordal(g)

    def test_against_oracle_on_small_graphs(self):
        for g in all_connected_multigraphs(5):
            assert is_chordal(g) == _chordal_oracle(g), g.edges


class TestCircuits:
    def test_example_graph(self, embedded_example):
        g, _ = embedded_example
        found = circuits(g)
        assert [sorted(c.edge_ids) for c in found] == [
            ["e1", "e2"],
            ["e1", "e3"],
            ["e2", "e3"],
        ]
        by_ids = {tuple(sorted(c.edge_ids)): c for c in found}
        # e1 and e3 run the same way, so one of them is traversed backward
        flags = dict(by_ids[("e1", "e3")].steps)
        assert flags == {"e1": True, "e3": False}
        flags = dict(by_ids[("e1", "e2")].steps)
        assert flags == {"e1": True, "e2": True}

    def test_tree_has_none(self):
        assert circuits(orient(path(3))) == []

    def test_loop(self):
        g = Digraph.build([("e1", "u", "u")])
        assert circuits(g) == [Circuit((("e1", True),))]

    def test_max_len(self):
        g = orient(complete(4))
        assert all(len(c) <= 3 for c in circuits(g, max_len=3))
        assert len(circuits(g, max_len=3)) == 4  # the four triangles

    def test_canonical_starts_forward_at_smallest(self):
        for c in circuits(orient(complete(4))):
            assert c.steps[0][0] == min(c.edge_ids)
            assert c.steps[0][1]
