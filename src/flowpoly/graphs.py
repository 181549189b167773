"""Directed and undirected multigraphs with stable edge identities.

Loops and parallel edges are allowed everywhere. All values are immutable;
operations are pure functions returning new graphs. Edge ids survive
reorientation and contraction, which is what makes certificates and
cross-graph comparisons possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
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

    def other(self, w: str) -> str:
        if w == self.u:
            return self.v
        if w == self.v:
            return self.u
        raise ValueError(f"{w!r} is not an endpoint of {self.id!r}")


def _check_members(kind: str, records, vertices: frozenset[str]):
    seen = set()
    for r in records:
        if r.id in seen:
            raise ValueError(f"duplicate {kind} id {r.id!r}")
        seen.add(r.id)
        for w in r.ends():
            if w not in vertices:
                raise ValueError(f"{kind} {r.id!r} endpoint {w!r} not a vertex")


@dataclass(frozen=True)
class Digraph:
    vertices: frozenset[str]
    arcs: tuple[Arc, ...]

    def __post_init__(self):
        _check_members("arc", self.arcs, self.vertices)

    @classmethod
    def build(cls, arcs: Iterable[tuple[str, str, str]], vertices: Iterable[str] = ()) -> "Digraph":
        """From (id, tail, head) triples; endpoint vertices are implied."""
        arcs = tuple(Arc(i, t, h) for i, t, h in arcs)
        vs = set(vertices)
        for a in arcs:
            vs.add(a.tail)
            vs.add(a.head)
        return cls(frozenset(vs), arcs)

    @cached_property
    def arc_by_id(self) -> dict[str, Arc]:
        return {a.id: a for a in self.arcs}

    @cached_property
    def sorted_vertices(self) -> tuple[str, ...]:
        return tuple(sorted(self.vertices))

    @cached_property
    def sorted_arc_ids(self) -> tuple[str, ...]:
        return tuple(sorted(a.id for a in self.arcs))

    @cached_property
    def _incidence(self) -> dict[str, tuple[list[Arc], list[Arc]]]:
        inc: dict[str, tuple[list[Arc], list[Arc]]] = {
            v: ([], []) for v in self.vertices
        }
        for a in self.arcs:
            inc[a.head][0].append(a)
            inc[a.tail][1].append(a)
        return inc

    def in_arcs(self, v: str) -> list[Arc]:
        """Arcs with head v (a loop at v appears here and in out_arcs)."""
        return list(self._incidence[v][0])

    def out_arcs(self, v: str) -> list[Arc]:
        return list(self._incidence[v][1])

    def underlying(self) -> "UndirectedGraph":
        return UndirectedGraph(
            self.vertices, tuple(Edge(a.id, a.tail, a.head) for a in self.arcs)
        )


@dataclass(frozen=True)
class UndirectedGraph:
    vertices: frozenset[str]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        _check_members("edge", self.edges, self.vertices)

    @classmethod
    def build(cls, edges: Iterable[tuple[str, str, str]], vertices: Iterable[str] = ()) -> "UndirectedGraph":
        edges = tuple(Edge(i, u, v) for i, u, v in edges)
        vs = set(vertices)
        for e in edges:
            vs.add(e.u)
            vs.add(e.v)
        return cls(frozenset(vs), edges)

    @cached_property
    def edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def sorted_vertices(self) -> tuple[str, ...]:
        return tuple(sorted(self.vertices))

    @cached_property
    def sorted_edge_ids(self) -> tuple[str, ...]:
        return tuple(sorted(e.id for e in self.edges))

    @cached_property
    def _incidence(self) -> dict[str, list[Edge]]:
        inc: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            inc[e.u].append(e)
            if not e.is_loop:
                inc[e.v].append(e)
        return inc

    def edges_at(self, v: str) -> list[Edge]:
        """Edges incident to v, loops listed once."""
        return list(self._incidence[v])

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


def _ends_of(g: Graph, eid: str) -> tuple[str, str]:
    if isinstance(g, Digraph):
        a = g.arc_by_id[eid]
        return a.tail, a.head
    e = g.edge_by_id[eid]
    return e.u, e.v


def edge_ids(g: Graph) -> tuple[str, ...]:
    return g.sorted_arc_ids if isinstance(g, Digraph) else g.sorted_edge_ids


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
    by_id = g.arc_by_id if isinstance(g, Digraph) else g.edge_by_id
    unknown = ids - set(by_id)
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
        a, b = _ends_of(g, eid)
        union(a, b)

    vmap = {v: find(v) for v in g.vertices}
    new_vertices = frozenset(vmap.values())
    if isinstance(g, Digraph):
        arcs = tuple(
            Arc(a.id, vmap[a.tail], vmap[a.head])
            for a in g.arcs
            if a.id not in ids
        )
        return Digraph(new_vertices, arcs)
    edges = tuple(
        Edge(e.id, vmap[e.u], vmap[e.v]) for e in g.edges if e.id not in ids
    )
    return UndirectedGraph(new_vertices, edges)


def connected_components(g: Graph) -> list[tuple[str, ...]]:
    """Vertex partition into components, each sorted, ordered by minimum."""
    adj: dict[str, set[str]] = {v: set() for v in g.vertices}
    items = g.arcs if isinstance(g, Digraph) else g.edges
    for e in items:
        a, b = e.ends()
        adj[a].add(b)
        adj[b].add(a)
    seen: set[str] = set()
    parts = []
    for start in sorted(g.vertices):
        if start in seen:
            continue
        stack = [start]
        comp = set()
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(adj[v] - comp)
        seen |= comp
        parts.append(tuple(sorted(comp)))
    return parts


def kappa(g: Graph) -> int:
    return len(connected_components(g))


def cyclomatic_number(g: Graph) -> int:
    m = len(g.arcs) if isinstance(g, Digraph) else len(g.edges)
    return m - len(g.vertices) + kappa(g)


def find_small_circuit(g: UndirectedGraph) -> Circuit | None:
    """A circuit of size <= 3 if one exists: loops first, then parallel
    pairs, then triangles, each chosen by smallest edge ids."""
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
    return Circuit(tuple(steps)).canonical()


def bridges(g: UndirectedGraph) -> set[str]:
    """Edge ids of all cut-edges. Loops and parallel edges never qualify."""
    disc: dict[str, int] = {}
    low: dict[str, int] = {}
    out: set[str] = set()
    counter = 0
    inc = {v: [e for e in g.edges_at(v) if not e.is_loop] for v in g.vertices}
    for root in sorted(g.vertices):
        if root in disc:
            continue
        # iterative DFS; each frame tracks the edge used to enter
        stack: list[tuple[str, str | None, int]] = [(root, None, 0)]
        disc[root] = low[root] = counter
        counter += 1
        while stack:
            v, in_edge, idx = stack.pop()
            if idx < len(inc[v]):
                stack.append((v, in_edge, idx + 1))
                e = inc[v][idx]
                if e.id == in_edge:
                    continue
                w = e.other(v)
                if w not in disc:
                    disc[w] = low[w] = counter
                    counter += 1
                    stack.append((w, e.id, 0))
                else:
                    low[v] = min(low[v], disc[w])
            elif in_edge is not None:
                # leaving v: fold its low value into the parent
                e = g.edge_by_id[in_edge]
                parentv = e.other(v)
                low[parentv] = min(low[parentv], low[v])
                if low[v] > disc[parentv]:
                    out.add(in_edge)
    return out


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
    all_ids = edge_ids(g)
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
        a, b = _ends_of(g, eid)
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    if any(d != 2 for d in deg.values()):
        return None
    if len(subset) == 1:
        eid = subset[0]
        a, b = _ends_of(g, eid)
        return Circuit(((eid, True),)) if a == b else None
    # walk from the smallest edge id, forward
    incident: dict[str, list[str]] = {}
    for eid in subset:
        a, b = _ends_of(g, eid)
        if a == b:
            return None  # a loop plus anything else cannot have degree 2
        incident.setdefault(a, []).append(eid)
        incident.setdefault(b, []).append(eid)
    start = subset[0]
    a, b = _ends_of(g, start)
    steps = [(start, True)]
    at = b
    used = {start}
    while at != a:
        nxt = [e for e in incident[at] if e not in used]
        if len(nxt) != 1:
            return None
        eid = nxt[0]
        used.add(eid)
        t, h = _ends_of(g, eid)
        if t == at:
            steps.append((eid, True))
            at = h
        else:
            steps.append((eid, False))
            at = t
    if len(used) != len(subset):
        return None  # disconnected union of cycles
    return Circuit(tuple(steps))
