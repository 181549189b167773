"""Graph builders and generators shared by the test modules."""

from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement, permutations

from hypothesis import strategies as st

from flowpoly.graphs import Digraph, UndirectedGraph, orient


def example_graph() -> Digraph:
    """Two vertices joined by e1, e3 forward and e2 backward."""
    return Digraph.build(
        [("e1", "v1", "v2"), ("e2", "v2", "v1"), ("e3", "v1", "v2")]
    )


def triangle() -> UndirectedGraph:
    return UndirectedGraph.build([("e1", "a", "b"), ("e2", "b", "c"), ("e3", "a", "c")])


def directed_cycle(n: int) -> Digraph:
    verts = [f"v{i}" for i in range(n)]
    return Digraph.build(
        [(f"e{i}", verts[i], verts[(i + 1) % n]) for i in range(n)]
    )


def cycle(n: int) -> UndirectedGraph:
    verts = [f"v{i}" for i in range(n)]
    return UndirectedGraph.build(
        [(f"e{i}", verts[i], verts[(i + 1) % n]) for i in range(n)]
    )


def path(n_edges: int) -> UndirectedGraph:
    return UndirectedGraph.build(
        [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(n_edges)]
    )


def parallel(k: int) -> UndirectedGraph:
    return UndirectedGraph.build([(f"e{i}", "u", "v") for i in range(k)])


def single_loop() -> UndirectedGraph:
    return UndirectedGraph.build([("e1", "u", "u")])


def complete(n: int) -> UndirectedGraph:
    verts = [f"v{i}" for i in range(n)]
    return UndirectedGraph.build(
        [
            (f"e{i}", u, v)
            for i, (u, v) in enumerate(combinations(verts, 2))
        ]
    )


def diamond() -> UndirectedGraph:
    """K4 minus one edge, as in corpus/diamond.g."""
    return UndirectedGraph.build(
        [("e1", "a", "b"), ("e2", "a", "c"), ("e3", "b", "c"), ("e4", "b", "d"), ("e5", "c", "d")]
    )


def bowtie_graph() -> UndirectedGraph:
    return UndirectedGraph.build(
        [("e1", "a", "b"), ("e2", "a", "c"), ("e3", "b", "c"),
         ("e4", "c", "d"), ("e5", "c", "f"), ("e6", "d", "f")]
    )


def petersen() -> UndirectedGraph:
    edges = [(f"a{i}", f"u{i}", f"u{(i + 1) % 5}") for i in range(5)]
    edges += [(f"s{i}", f"u{i}", f"w{i}") for i in range(5)]
    edges += [(f"b{i}", f"w{i}", f"w{(i + 2) % 5}") for i in range(5)]
    return UndirectedGraph.build(edges)


def disjoint_union(*graphs: UndirectedGraph) -> UndirectedGraph:
    edges = []
    vertices = []
    for i, g in enumerate(graphs):
        for e in g.edges:
            edges.append((f"g{i}_{e.id}", f"g{i}_{e.u}", f"g{i}_{e.v}"))
        for v in g.vertices:
            vertices.append(f"g{i}_{v}")
    return UndirectedGraph.build(edges, vertices)


def default_orientation(g: UndirectedGraph) -> Digraph:
    return orient(g)


def _canonical_key(n: int, edges: tuple[tuple[int, int], ...]) -> tuple:
    best = None
    verts = list(range(n))
    for perm in permutations(verts):
        mapped = sorted(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
        )
        key = tuple(mapped)
        if best is None or key < best:
            best = key
    return best


def all_connected_multigraphs(max_edges: int) -> list[UndirectedGraph]:
    """Connected multigraphs (loops and parallels allowed) with at most
    max_edges edges and no isolated vertices, one per isomorphism class.

    Exhaustive over vertex counts up to max_edges + 1; the canonical form
    is the minimum edge multiset over all vertex permutations, so this is
    meant for small max_edges only.
    """
    out = []
    seen: set[tuple] = set()
    for m in range(1, max_edges + 1):
        for n in range(1, m + 2):
            pair_types = list(combinations_with_replacement(range(n), 2))
            for multiset in combinations_with_replacement(pair_types, m):
                covered = {w for uv in multiset for w in uv}
                if len(covered) != n:
                    continue
                if not _is_connected(n, multiset):
                    continue
                key = (n, _canonical_key(n, multiset))
                if key in seen:
                    continue
                seen.add(key)
                out.append(
                    UndirectedGraph.build(
                        [
                            (f"e{i}", f"v{u}", f"v{v}")
                            for i, (u, v) in enumerate(multiset)
                        ]
                    )
                )
    return out


def _is_connected(n: int, edges) -> bool:
    adj = {i: set() for i in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def random_connected_digraph(rng: random.Random, max_edges: int = 8) -> Digraph:
    """A random connected multigraph with a random orientation.

    Vertex counts are kept at or above half the edge count so vertex
    degrees, and with them the polynomial supports, stay moderate.
    """
    m = rng.randint(1, max_edges)
    lo = max(1, (m + 1) // 2)
    # beyond five edges keep at least two independent cycles so the flow
    # spaces stay interesting and the tension spaces stay small
    hi = m + 1 if m <= 5 else m - 1
    n = rng.randint(lo, max(lo, hi))
    arcs = []
    # random spanning tree first
    for i in range(1, n):
        j = rng.randrange(i)
        arcs.append((i, j))
    while len(arcs) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        arcs.append((u, v))
    arcs = arcs[:m]
    records = []
    for idx, (u, v) in enumerate(arcs):
        if rng.random() < 0.5:
            u, v = v, u
        records.append((f"e{idx}", f"v{u}", f"v{v}"))
    return Digraph.build(records, vertices=[f"v{i}" for i in range(n)])


@st.composite
def small_multigraphs(draw, max_vertices: int = 4, max_edges: int = 5) -> Digraph:
    """Digraphs with loops, parallel arcs, isolated vertices and several
    components, small enough that the raw flow polynomial stays cheap."""
    n = draw(st.integers(1, max_vertices))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    arcs = draw(st.lists(ends, max_size=max_edges))
    return Digraph.build(
        ((f"e{i}", f"v{t}", f"v{h}") for i, (t, h) in enumerate(arcs)),
        vertices=[f"v{i}" for i in range(n)],
    )
