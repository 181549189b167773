"""Directed and undirected multigraphs with stable edge identities.

Loops and parallel edges are allowed everywhere. All values are immutable;
operations are pure functions returning new graphs. Edge ids survive
reorientation and contraction, which is what makes certificates and
cross-graph comparisons possible.

Both kinds share one core: a Digraph's arcs and an UndirectedGraph's edges
are its `records`, each with an id and a first and second end (tail and
head for an arc), looked up through `by_id` and ordered by `sorted_ids`;
the kind-specific names are aliases. The core also derives, once per graph
object, the `stars` of the non-loop records at each vertex and one
breadth-first search, `bfs`, that gives the components and a spanning
forest. Caching them is safe because a graph never changes after it is
built. Components, kappa and the cyclomatic number read that search, and
so do the group-generic enumerations and the normal-form fold, which take
the graph itself whatever its kind. The stars are the one incidence
structure: the lowpoint search of `pieces`, the 2-connected pieces that
bridges and the conformal route of flows read, walks them too, and code
that needs each record once reads the records themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import attrgetter
from typing import Iterable, Mapping

from .errors import PreconditionError


@dataclass(frozen=True)
class Arc:
    id: str
    tail: str
    head: str

    @property
    def is_loop(self) -> bool:
        return self.tail == self.head

    def ends(self) -> tuple[str, str]:
        return (self.tail, self.head)


@dataclass(frozen=True)
class Edge:
    id: str
    u: str
    v: str

    @property
    def is_loop(self) -> bool:
        return self.u == self.v

    def ends(self) -> tuple[str, str]:
        return (self.u, self.v)


class _Multigraph:
    """The members both graph kinds share. A subclass is a frozen dataclass
    of `vertices` and its `records`, arcs or edges, each with an id and two
    ends; `kind` names a record in messages. Graphs are immutable, so each
    derived structure below is computed once per graph object and cached."""

    kind: str
    _record: type

    def __post_init__(self):
        seen = set()
        for r in self.records:
            if r.id in seen:
                raise ValueError(f"duplicate {self.kind} id {r.id!r}")
            seen.add(r.id)
            for w in r.ends():
                if w not in self.vertices:
                    raise ValueError(f"{self.kind} {r.id!r} endpoint {w!r} not a vertex")

    @classmethod
    def build(cls, records: Iterable[tuple[str, str, str]], vertices: Iterable[str] = ()):
        """From (id, first end, second end) triples, such as (id, tail, head)
        for arcs; endpoint vertices are implied."""
        records = tuple(cls._record(*r) for r in records)
        vs = set(vertices)
        for r in records:
            vs.update(r.ends())
        return cls(frozenset(vs), records)

    @cached_property
    def by_id(self) -> dict:
        return {r.id: r for r in self.records}

    @cached_property
    def sorted_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.by_id))

    @cached_property
    def sorted_vertices(self) -> tuple[str, ...]:
        return tuple(sorted(self.vertices))

    @cached_property
    def stars(self) -> dict[str, list[tuple[int, int]]]:
        """Per vertex, each non-loop record at it as (position in sorted_ids,
        -1 at the record's first end or +1 at its second), by ascending id.
        Every caller shares the lists, so none may change them."""
        stars: dict[str, list[tuple[int, int]]] = {v: [] for v in self.sorted_vertices}
        for i, rid in enumerate(self.sorted_ids):
            a, b = self.by_id[rid].ends()
            if a != b:
                stars[a].append((i, -1))
                stars[b].append((i, 1))
        return stars

    @cached_property
    def bfs(self) -> tuple[tuple, tuple]:
        """(components, forest) of one breadth-first search over the sorted
        vertices, neighbours by ascending record id. Components are sorted
        and ordered by their least vertex, the root of their tree. The
        forest lists (vertex, parent, position, sign) in visiting order: the
        record at `position` of sorted_ids joins the vertex to its parent,
        and `sign` is its star sign at the vertex."""
        seen, comps, steps = set(), [], []
        for root in self.sorted_vertices:
            if root in seen:
                continue
            seen.add(root)
            queue = [root]
            for v in queue:
                for i, s in self.stars[v]:
                    # the other end: the second one when v is the first (s = -1)
                    w = self.by_id[self.sorted_ids[i]].ends()[s < 0]
                    if w not in seen:
                        seen.add(w)
                        steps.append((w, v, i, -s))
                        queue.append(w)
            comps.append(tuple(sorted(queue)))
        return tuple(comps), tuple(steps)

    @cached_property
    def pieces(self) -> tuple[tuple[int, ...], ...]:
        """The 2-connected pieces: the records split so that two share a
        piece just when some circuit holds both. Each piece is the ascending
        positions of its records in sorted_ids, and the pieces are ordered
        by their least position. A loop is a piece of its own, and so is a
        bridge. One lowpoint depth-first search over the stars (Hopcroft
        and Tarjan, CACM 1973): each record walked is stacked, a tree record
        on the way down and one back to an ancestor from its lower end, and
        a vertex whose subtree reaches no higher than its parent closes a
        piece, the records stacked since it was entered."""
        ends = [self.by_id[r].ends() for r in self.sorted_ids]
        found = [(i,) for i, (a, b) in enumerate(ends) if a == b]
        disc: dict[str, int] = {}
        low: dict[str, int] = {}
        walked: list[int] = []
        for root in self.sorted_vertices:
            if root in disc:
                continue
            disc[root] = low[root] = len(disc)
            # a frame: the vertex, the record it was entered by, the height
            # of the stack below that record, and the rest of its star
            stack = [(root, -1, 0, iter(self.stars[root]))]
            while stack:
                v, entered, mark, star = stack[-1]
                for i, s in star:
                    w = ends[i][s < 0]
                    if w not in disc:
                        disc[w] = low[w] = len(disc)
                        stack.append((w, i, len(walked), iter(self.stars[w])))
                        walked.append(i)
                        break
                    if disc[w] < disc[v] and i != entered:
                        walked.append(i)
                        low[v] = min(low[v], disc[w])
                else:
                    stack.pop()
                    if stack:
                        u = stack[-1][0]
                        low[u] = min(low[u], low[v])
                        if low[v] >= disc[u]:
                            found.append(tuple(sorted(walked[mark:])))
                            del walked[mark:]
        return tuple(sorted(found))


@dataclass(frozen=True)
class Digraph(_Multigraph):
    vertices: frozenset[str]
    arcs: tuple[Arc, ...]

    kind, _record = "arc", Arc
    records = property(attrgetter("arcs"))
    arc_by_id = property(attrgetter("by_id"))
    sorted_arc_ids = property(attrgetter("sorted_ids"))

    def underlying(self) -> "UndirectedGraph":
        return UndirectedGraph(
            self.vertices, tuple(Edge(a.id, a.tail, a.head) for a in self.arcs)
        )


@dataclass(frozen=True)
class UndirectedGraph(_Multigraph):
    vertices: frozenset[str]
    edges: tuple[Edge, ...]

    kind, _record = "edge", Edge
    records = property(attrgetter("edges"))
    edge_by_id = property(attrgetter("by_id"))
    sorted_edge_ids = property(attrgetter("sorted_ids"))

    def simple_adjacency(self) -> dict[str, set[str]]:
        """Neighbour sets of the underlying simple graph (no loops)."""
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for e in self.edges:
            if not e.is_loop:
                adj[e.u].add(e.v)
                adj[e.v].add(e.u)
        return adj


Graph = Digraph | UndirectedGraph


@dataclass(frozen=True)
class Circuit:
    """A closed walk visiting no vertex twice, as (edge id, forward) steps.

    "Forward" means the step traverses the edge in its stored direction
    (tail to head, or first to second endpoint). Loops give circuits of
    length 1, parallel pairs of length 2.
    """

    steps: tuple[tuple[str, bool], ...]

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def edge_ids(self) -> tuple[str, ...]:
        return tuple(s[0] for s in self.steps)

    def canonical(self) -> "Circuit":
        """Rotate so the smallest edge id comes first and runs forward."""
        if not self.steps:
            return self
        best = min(range(len(self.steps)), key=lambda i: self.steps[i][0])
        steps = self.steps[best:] + self.steps[:best]
        if not steps[0][1] and len(steps) > 1:
            steps = tuple(
                (eid, not fwd) for eid, fwd in (steps[0],) + steps[:0:-1]
            )
        elif not steps[0][1]:
            steps = ((steps[0][0], True),)
        return Circuit(tuple(steps))


def orient(g: UndirectedGraph, choice: Mapping[str, tuple[str, str]] | None = None) -> Digraph:
    """Direct every edge of g.

    `choice` maps edge id to its (tail, head); omitted edges and a None
    choice take the stored endpoint order. Unknown ids or endpoint pairs
    that do not match the edge raise ValueError.
    """
    choice = dict(choice) if choice else {}
    for eid in choice:
        if eid not in g.edge_by_id:
            raise ValueError(f"unknown edge id {eid!r}")
    arcs = []
    for e in g.edges:
        if e.id in choice:
            t, h = choice[e.id]
            if {t, h} != {e.u, e.v} or (e.is_loop and t != h):
                raise ValueError(
                    f"direction {t!r}->{h!r} does not match edge {e.id!r}"
                )
            arcs.append(Arc(e.id, t, h))
        else:
            arcs.append(Arc(e.id, e.u, e.v))
    return Digraph(g.vertices, tuple(arcs))


def reverse_arcs(g: Digraph, arc_ids: Iterable[str] | None = None) -> Digraph:
    """Flip the given arcs (all of them when arc_ids is None)."""
    flip = set(g.arc_by_id) if arc_ids is None else set(arc_ids)
    unknown = flip - set(g.arc_by_id)
    if unknown:
        raise ValueError(f"unknown arc ids {sorted(unknown)}")
    return Digraph(
        g.vertices,
        tuple(
            Arc(a.id, a.head, a.tail) if a.id in flip else a for a in g.arcs
        ),
    )


def contract(g: Graph, edge_set: Iterable[str]) -> Graph:
    """Contract the given edges: merge their endpoints, drop the edges.

    Every other edge keeps its id, stored endpoint order, and (for arcs)
    direction. Loops and parallels produced by the merge are kept. A merged
    vertex takes the smallest id in its merged class.
    """
    ids = set(edge_set)
    unknown = ids - set(g.by_id)
    if unknown:
        raise ValueError(f"unknown edge ids {sorted(unknown)}")

    parent: dict[str, str] = {v: v for v in g.vertices}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a: str, b: str):
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo

    for eid in ids:
        union(*g.by_id[eid].ends())

    vmap = {v: find(v) for v in g.vertices}
    records = tuple(
        type(r)(r.id, *map(vmap.get, r.ends())) for r in g.records if r.id not in ids
    )
    return type(g)(frozenset(vmap.values()), records)


def connected_components(g: Graph) -> list[tuple[str, ...]]:
    """Vertex partition into components, each sorted, ordered by minimum."""
    return list(g.bfs[0])


def kappa(g: Graph) -> int:
    return len(g.bfs[0])


def cyclomatic_number(g: Graph) -> int:
    return len(g.records) - len(g.vertices) + len(g.bfs[0])


def find_small_circuit(g: UndirectedGraph) -> Circuit | None:
    """A circuit of size <= 3 if one exists: loops first, then parallel
    pairs, then triangles, each chosen by smallest edge ids, in canonical
    form."""
    walk = _small_circuit_walk(g)
    return None if walk is None else walk.canonical()


def _small_circuit_walk(g: UndirectedGraph) -> Circuit | None:
    """The circuit of find_small_circuit as it is walked, a directed cycle:
    a loop forward; a parallel pair the smaller id forward, then the other
    back; a triangle by ascending vertex id."""
    loops = sorted(e.id for e in g.edges if e.is_loop)
    if loops:
        return Circuit(((loops[0], True),))

    by_pair: dict[tuple[str, str], list[Edge]] = {}
    for e in g.edges:
        if not e.is_loop:
            key = (min(e.u, e.v), max(e.u, e.v))
            by_pair.setdefault(key, []).append(e)

    best_pair: tuple[str, str] | None = None
    for key, group in by_pair.items():
        if len(group) >= 2:
            ids = sorted(e.id for e in group)[:2]
            cand = (ids[0], ids[1])
            if best_pair is None or cand < best_pair:
                best_pair = cand
    if best_pair is not None:
        e1 = g.edge_by_id[best_pair[0]]
        e2 = g.edge_by_id[best_pair[1]]
        # walk e1 forward (u -> v), then e2 back (v -> u)
        fwd2 = (e2.u, e2.v) == (e1.v, e1.u)
        return Circuit(((e1.id, True), (e2.id, fwd2)))

    least: dict[tuple[str, str], str] = {}
    for key, group in by_pair.items():
        least[key] = min(e.id for e in group)
    best_tri = None
    verts = sorted(g.vertices)
    adj = g.simple_adjacency()
    for u, v, w in combinations(verts, 3):
        if v in adj[u] and w in adj[v] and w in adj[u]:
            ids = tuple(sorted((least[(u, v)], least[(v, w)], least[(u, w)])))
            if best_tri is None or ids < best_tri[0]:
                best_tri = (ids, (u, v, w))
    if best_tri is None:
        return None
    _, (u, v, w) = best_tri
    steps = []
    for a, b in ((u, v), (v, w), (w, u)):
        eid = least[(min(a, b), max(a, b))]
        e = g.edge_by_id[eid]
        steps.append((eid, (e.u, e.v) == (a, b)))
    return Circuit(tuple(steps))


def bridges(g: Graph) -> set[str]:
    """Ids of the records whose removal disconnects their component, for
    either graph kind: the pieces of one record that is not a loop.
    Orientation plays no part. Loops and parallel records never qualify."""
    ids = g.sorted_ids
    return {ids[i] for i, *more in g.pieces if not more and not g.by_id[ids[i]].is_loop}


def is_bridgeless(g: UndirectedGraph) -> bool:
    return not bridges(g)


def _mcs_order(adj: dict[str, set[str]]) -> list[str]:
    """Maximum cardinality search; ties broken by vertex id."""
    weight = {v: 0 for v in adj}
    order = []
    remaining = set(adj)
    while remaining:
        v = max(sorted(remaining), key=lambda x: weight[x])
        order.append(v)
        remaining.remove(v)
        for w in adj[v]:
            if w in remaining:
                weight[w] += 1
    return order


def is_chordal(g: UndirectedGraph) -> bool:
    """Chordality of the underlying simple graph.

    Loops and edge multiplicities are ignored. Uses maximum cardinality
    search and a perfect elimination ordering check.
    """
    adj = g.simple_adjacency()
    if not adj:
        return True
    order = _mcs_order(adj)
    pos = {v: i for i, v in enumerate(order)}
    # reverse of the MCS visit order is the elimination order
    for v in order:
        earlier = {w for w in adj[v] if pos[w] < pos[v]}
        if not earlier:
            continue
        u = max(earlier, key=lambda w: pos[w])
        if not (earlier - {u}) <= adj[u]:
            return False
    return True


def circuits(g: Graph, max_len: int | None = None) -> list[Circuit]:
    """All circuits of g (desk scale: meant for graphs with few edges).

    A circuit is an edge subset inducing degree exactly 2 everywhere it
    touches (loops count twice) and connected, turned into a traversal.
    Output is canonical and sorted by (length, edge ids).
    """
    all_ids = g.sorted_ids
    m = len(all_ids)
    if m > 20:
        raise PreconditionError("circuit enumeration is limited to <= 20 edges")
    limit = m if max_len is None else min(max_len, m)
    found = []
    for size in range(1, limit + 1):
        for subset in combinations(all_ids, size):
            circ = _subset_as_circuit(g, subset)
            if circ is not None:
                found.append(circ.canonical())
    found.sort(key=lambda c: (len(c), c.steps))
    return found


def _subset_as_circuit(g: Graph, subset: tuple[str, ...]) -> Circuit | None:
    deg: dict[str, int] = {}
    for eid in subset:
        a, b = g.by_id[eid].ends()
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    if any(d != 2 for d in deg.values()):
        return None
    if len(subset) == 1:
        eid = subset[0]
        a, b = g.by_id[eid].ends()
        return Circuit(((eid, True),)) if a == b else None
    # walk from the smallest edge id, forward
    incident: dict[str, list[str]] = {}
    for eid in subset:
        a, b = g.by_id[eid].ends()
        if a == b:
            return None  # a loop plus anything else cannot have degree 2
        incident.setdefault(a, []).append(eid)
        incident.setdefault(b, []).append(eid)
    start = subset[0]
    a, b = g.by_id[start].ends()
    steps = [(start, True)]
    at = b
    used = {start}
    while at != a:
        nxt = [e for e in incident[at] if e not in used]
        if len(nxt) != 1:
            return None
        eid = nxt[0]
        used.add(eid)
        t, h = g.by_id[eid].ends()
        if t == at:
            steps.append((eid, True))
            at = h
        else:
            steps.append((eid, False))
            at = t
    if len(used) != len(subset):
        return None  # disconnected union of cycles
    return Circuit(tuple(steps))
