"""The undirected four-flow variant over the Klein group Z2 x Z2.

Maps assign a pair (a, b) with a, b in {0, 1} to every edge; conservation
is componentwise mod 2, and since every element is its own inverse no
orientation is needed anywhere. The polynomial side uses two variables
x_e, y_e per edge, the ideal generated by x^2 - 1, y^2 - 1 and
(x + 1)(y + 1), and the basis of monomials whose per-edge exponent pair
avoids (1, 1): the pair (1, 1) rewrites to -x - y - 1.

Loops contribute both end slots to their vertex, hence nothing: they never
obstruct a flow and force tension value (0, 0).

The normal form folds on the packed keys of quotient, one radix-3 digit
per edge, the edge at position i of sorted_edge_ids at weight 3^i, holding
the code 2a+b of the edge's exponent pair (a, b): adding a Klein element is
XOR with its code. The top code 3, the pair (1,1), never occurs in a key;
it expands to minus the sum of the basic codes 0, 1, 2: -(1 + y_e + x_e).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import (
    BoundExceeded,
    DEFAULT_STATE_BOUND,
    DEFAULT_TERM_BOUND,
    VerificationError,
)
from .graphs import UndirectedGraph, connected_components, cyclomatic_number, kappa
from .polynomials import Mono, Poly, mono_mul
from .quotient import _fold_vertex_factors, _unpack

KleinPair = tuple[int, int]

KLEIN = ((0, 0), (0, 1), (1, 0), (1, 1))
KLEIN_BASIC = ((0, 0), (0, 1), (1, 0))  # the nowhere-(1,1) codomain

# evaluation points of the ideal's vanishing set, keyed by the nonzero
# Klein element they encode: (a, b) = ((-1)^p1, (-1)^p2)
EVAL_POINTS = {
    (0, 1): (1, -1),
    (1, 0): (-1, 1),
    (1, 1): (-1, -1),
}


def xvar(edge: str) -> tuple[str, str]:
    return ("x", edge)


def yvar(edge: str) -> tuple[str, str]:
    return ("y", edge)


@dataclass(frozen=True)
class KleinMap:
    """A total assignment of Klein-group pairs to the edges of a graph."""

    values: dict[str, KleinPair]

    def __post_init__(self):
        normalized = {}
        for e, pair in self.values.items():
            pair = tuple(pair)
            if pair not in KLEIN:
                raise ValueError(f"value {pair!r} for {e!r} is not in Z2 x Z2")
            normalized[e] = pair
        object.__setattr__(self, "values", normalized)

    def __getitem__(self, edge_id: str) -> KleinPair:
        return self.values[edge_id]

    @property
    def is_nowhere_zero(self) -> bool:
        return all(v != (0, 0) for v in self.values.values())

    @property
    def avoids_max(self) -> bool:
        return all(v != (1, 1) for v in self.values.values())

    def check_domain(self, g: UndirectedGraph):
        if set(self.values) != set(g.edge_by_id):
            raise ValueError("map domain does not match the graph's edge set")


@dataclass(frozen=True)
class PairQuotientPoly:
    """Normal form over the pair basis: no edge carries the (1,1) pair."""

    edges: tuple[str, ...]
    poly: Poly

    def __post_init__(self):
        universe = set(self.edges)
        for mono, _ in self.poly.items():
            exps: dict[str, list[int]] = {}
            for (kind, edge), exp in mono:
                if edge not in universe:
                    raise ValueError(f"variable for {edge!r} outside the universe")
                if exp != 1:
                    raise ValueError(f"exponent {exp} not reduced")
                exps.setdefault(edge, [0, 0])[0 if kind == "x" else 1] = exp
            for edge, (r1, r2) in exps.items():
                if (r1, r2) == (1, 1):
                    raise ValueError(f"edge {edge!r} carries the (1,1) pair")

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def coefficient(self, psi: "KleinMap") -> int:
        exps = {}
        for e, (r1, r2) in psi.values.items():
            if r1:
                exps[xvar(e)] = 1
            if r2:
                exps[yvar(e)] = 1
        return self.poly.coefficient(exps)

    def scaled(self, c: int) -> "PairQuotientPoly":
        return PairQuotientPoly(self.edges, self.poly * c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PairQuotientPoly):
            return NotImplemented
        return self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)


def _klein_add(a: KleinPair, b: KleinPair) -> KleinPair:
    return ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2)


def is_four_flow(g: UndirectedGraph, phi: KleinMap) -> bool:
    """Componentwise mod-2 conservation at every vertex; loops drop out."""
    phi.check_domain(g)
    for v in g.vertices:
        total = (0, 0)
        for e in g.edges_at(v):
            if not e.is_loop:
                total = _klein_add(total, tuple(phi[e.id]))
        if total != (0, 0):
            return False
    return True


def _klein_potentials(g: UndirectedGraph, phi: KleinMap) -> dict[str, KleinPair]:
    omega: dict[str, KleinPair] = {}
    for comp in connected_components(g):
        root = comp[0]
        omega[root] = (0, 0)
        stack = [root]
        while stack:
            v = stack.pop()
            for e in g.edges_at(v):
                if not e.is_loop:
                    w = e.other(v)
                    if w not in omega:
                        omega[w] = _klein_add(omega[v], tuple(phi[e.id]))
                        stack.append(w)
    return omega


def is_dual_four_flow(g: UndirectedGraph, phi: KleinMap) -> bool:
    """Tension test: phi(e) = omega(u) + omega(v) for some potentials.

    No signs are needed because the group is self-inverse; loops must
    carry (0, 0)."""
    phi.check_domain(g)
    omega = _klein_potentials(g, phi)
    for e in g.edges:
        if tuple(phi[e.id]) != _klein_add(omega[e.u], omega[e.v]):
            return False
    return True


def _check_states(count: int, max_states: int | None):
    bound = DEFAULT_STATE_BOUND if max_states is None else max_states
    if count > bound:
        raise BoundExceeded(f"{count} states exceed the bound {bound}")


def enumerate_dual_four_flows(
    g: UndirectedGraph, max_states: int | None = None
) -> list[KleinMap]:
    """All 4^(|V|-kappa) Klein tensions via rooted potentials."""
    comps = connected_components(g)
    free_vertices = sorted(v for comp in comps for v in comp[1:])
    _check_states(4 ** len(free_vertices), max_states)
    roots = {comp[0] for comp in comps}
    out = []
    for assignment in product(KLEIN, repeat=len(free_vertices)):
        omega = dict(zip(free_vertices, assignment))
        for r in roots:
            omega[r] = (0, 0)
        values = {
            e.id: _klein_add(omega[e.u], omega[e.v]) for e in g.edges
        }
        out.append(KleinMap(values))
    return out


def enumerate_klein_circulations(
    g: UndirectedGraph, max_states: int | None = None
) -> list[KleinMap]:
    """All 4^(|E|-|V|+kappa) Klein flows: free values off a spanning
    forest, forest edges forced by conservation."""
    _check_states(4 ** cyclomatic_number(g), max_states)
    parent_edge: dict[str, str] = {}
    order: list[str] = []
    visited: set[str] = set()
    for comp in connected_components(g):
        root = comp[0]
        visited.add(root)
        queue = [root]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for e in sorted(g.edges_at(v), key=lambda e: e.id):
                if not e.is_loop:
                    w = e.other(v)
                    if w not in visited:
                        visited.add(w)
                        parent_edge[w] = e.id
                        queue.append(w)
    forest_ids = set(parent_edge.values())
    free_ids = [e for e in g.sorted_edge_ids if e not in forest_ids]
    solve_order = [v for v in reversed(order) if v in parent_edge]
    out = []
    for assignment in product(KLEIN, repeat=len(free_ids)):
        values: dict[str, KleinPair] = dict(zip(free_ids, assignment))
        for v in solve_order:
            eid = parent_edge[v]
            total = (0, 0)
            for e in g.edges_at(v):
                if e.id != eid and not e.is_loop:
                    total = _klein_add(total, values[e.id])
            values[eid] = total  # self-inverse group: the negation is itself
        out.append(KleinMap(values))
    return out


def find_nz_four_flow(
    g: UndirectedGraph, max_states: int | None = None
) -> KleinMap | None:
    for phi in enumerate_klein_circulations(g, max_states):
        if phi.is_nowhere_zero:
            return phi
    return None


def parity4(phi: KleinMap) -> str:
    n = sum(1 for v in phi.values.values() if tuple(v) == (1, 1))
    return "even" if n % 2 == 0 else "odd"


def is_conformal4(phi: KleinMap, psi: KleinMap) -> bool:
    if not psi.avoids_max:
        raise ValueError("psi must avoid (1,1)")
    if set(phi.values) != set(psi.values):
        raise ValueError("phi and psi live on different edge sets")
    return all(
        tuple(phi.values[e]) in (tuple(psi.values[e]), (1, 1))
        for e in phi.values
    )


def reduce_pair_power(x_exp: int, y_exp: int, edge: str = "e") -> PairQuotientPoly:
    """Normal form of x_e^m y_e^n for one edge."""
    if x_exp < 0 or y_exp < 0:
        raise ValueError("exponents must be >= 0")
    r1, r2 = x_exp % 2, y_exp % 2
    if (r1, r2) == (1, 1):
        poly = Poly(
            {((xvar(edge), 1),): -1, ((yvar(edge), 1),): -1, (): -1}
        )
    else:
        exps = {}
        if r1:
            exps[xvar(edge)] = 1
        if r2:
            exps[yvar(edge)] = 1
        poly = Poly.monomial(exps)
    return PairQuotientPoly((edge,), poly)


def _reduce_pair_terms(terms, max_terms: int) -> dict[Mono, int]:
    """Reduce arbitrary (mono, coeff) pairs over the pair basis."""
    out: dict[Mono, int] = {}
    for mono, coeff in terms:
        pairs: dict[str, list[int]] = {}
        for (kind, edge), exp in mono:
            r = exp % 2
            if r:
                pairs.setdefault(edge, [0, 0])[0 if kind == "x" else 1] = r
        base = []
        hot = []  # edges whose reduced pair is (1,1)
        for edge in sorted(pairs):
            r1, r2 = pairs[edge]
            if (r1, r2) == (1, 1):
                hot.append(edge)
            elif r1:
                base.append((xvar(edge), 1))
            else:
                base.append((yvar(edge), 1))
        base_mono = tuple(sorted(base))
        contribution = -coeff if len(hot) % 2 else coeff
        # (1,1) rewrites to -(x + y + 1): expand over the three basics
        for combo in product(KLEIN_BASIC, repeat=len(hot)):
            extra = []
            for edge, (r1, r2) in zip(hot, combo):
                if r1:
                    extra.append((xvar(edge), 1))
                if r2:
                    extra.append((yvar(edge), 1))
            m = mono_mul(base_mono, tuple(sorted(extra)))
            s = out.get(m, 0) + contribution
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        if len(out) > max_terms:
            raise BoundExceeded(f"normal form exceeds {max_terms} terms")
    return out


def normalize_pair(
    f: Poly, edges: tuple[str, ...] | None = None, max_terms: int | None = None
) -> PairQuotientPoly:
    bound = DEFAULT_TERM_BOUND if max_terms is None else max_terms
    reduced = _reduce_pair_terms(f.items(), bound)
    if edges is None:
        edges = tuple(sorted({v[1] for v in f.variables()}))
    return PairQuotientPoly(tuple(edges), Poly(reduced))


def _vertex_pair_factor(g: UndirectedGraph, v: str) -> Poly:
    """(prod x_e + 1)(prod y_e + 1) over edges at v, loops squared."""
    xexps: dict = {}
    yexps: dict = {}
    for e in g.edges_at(v):
        mult = 2 if e.is_loop else 1
        xexps[xvar(e.id)] = xexps.get(xvar(e.id), 0) + mult
        yexps[yvar(e.id)] = yexps.get(yvar(e.id), 0) + mult
    xm = Poly.monomial(xexps) + Poly.one()
    ym = Poly.monomial(yexps) + Poly.one()
    return xm * ym


def four_flow_polynomial_raw(
    g: UndirectedGraph, max_terms: int | None = None
) -> Poly:
    bound = DEFAULT_TERM_BOUND if max_terms is None else max_terms
    acc = Poly.one()
    for v in g.sorted_vertices:
        acc = acc.mul(_vertex_pair_factor(g, v), max_terms=bound)
    return acc


def four_flow_polynomial_normal_form(
    g: UndirectedGraph, max_terms: int | None = None
) -> PairQuotientPoly:
    """Normal form accumulated vertex by vertex on packed keys: the factor
    (X + 1)(Y + 1) adds each Klein element to the pair of every non-loop
    edge at the vertex, an XOR on the codes. The unreduced expansion never
    exists."""
    acc = _klein_fold(g, max_terms)
    ids = g.sorted_edge_ids
    xs = [(None, None, (xvar(e), 1)) for e in ids]  # code 2a+b: 2 is x_e
    ys = [(None, (yvar(e), 1), None) for e in ids]
    return PairQuotientPoly(ids, Poly(_unpack(acc, 3, [xs, ys])))


def _klein_fold(g: UndirectedGraph, max_terms: int | None) -> dict[int, int]:
    """The packed normal form: empty exactly when the normal form is zero."""
    bound = DEFAULT_TERM_BOUND if max_terms is None else max_terms
    shift = lambda d, k, sign: d ^ k
    return _fold_vertex_factors(g, g.edges, g.sorted_edge_ids, 4, shift, bound, "Klein")


def klein_eval(f: Poly, assignment: dict[str, KleinPair]) -> int:
    """Evaluate f at (a_e, b_e) points with entries +-1; plain integers."""
    for e, point in assignment.items():
        if tuple(point) not in ((1, -1), (-1, 1), (-1, -1)):
            raise ValueError(f"point {point!r} for {e!r} not in the zero set")
    values = {}
    for e, (a, b) in assignment.items():
        values[xvar(e)] = a
        values[yvar(e)] = b
    return f.eval_int(values)


def eval_points_of(phi: KleinMap) -> dict[str, KleinPair]:
    """The vanishing-set point encoding a nowhere-zero Klein map."""
    if not phi.is_nowhere_zero:
        raise ValueError("the map has a zero edge")
    return {e: EVAL_POINTS[tuple(v)] for e, v in phi.values.items()}


def four_flow_poly_eval(g: UndirectedGraph, assignment: dict[str, KleinPair]) -> int:
    """Factored evaluation of the four-flow polynomial: same integer as
    expanding first, vertex factor by vertex factor."""
    if set(assignment) != set(g.edge_by_id):
        raise ValueError("assignment domain does not match the edge set")
    result = 1
    for v in g.sorted_vertices:
        ax = ay = 1
        for e in g.edges_at(v):
            a, b = assignment[e.id]
            mult = 2 if e.is_loop else 1
            ax *= a**mult
            ay *= b**mult
        result *= (ax + 1) * (ay + 1)
    return result


def _klein_tension_tuples(g: UndirectedGraph, ids, max_states):
    """Tension value tuples aligned with `ids`, Klein pairs encoded as
    0..3 with 2*a + b."""
    comps = connected_components(g)
    free_vertices = sorted(v for comp in comps for v in comp[1:])
    _check_states(4 ** len(free_vertices), max_states)
    vindex = {v: i for i, v in enumerate(free_vertices)}
    slots = [
        (vindex.get(g.edge_by_id[e].u, -1), vindex.get(g.edge_by_id[e].v, -1))
        for e in ids
    ]
    for assignment in product(range(4), repeat=len(free_vertices)):
        yield tuple(
            (assignment[i] if i >= 0 else 0) ^ (assignment[j] if j >= 0 else 0)
            for i, j in slots
        )


def four_flow_coefficient_table(
    g: UndirectedGraph, max_states: int | None = None
) -> dict[tuple[KleinPair, ...], int]:
    """c(psi) over the nowhere-(1,1) maps psi, keyed by value tuples over
    g.sorted_edge_ids; zero entries dropped."""
    ids = g.sorted_edge_ids
    n = len(ids)
    bound = DEFAULT_TERM_BOUND if max_states is None else max_states
    # encoded pairs: 0 (0,0), 1 (0,1), 2 (1,0), 3 (1,1); basics are 0..2
    weights = [3**i for i in range(n)]
    acc: dict[int, int] = {}
    work = 0
    for values in _klein_tension_tuples(g, ids, max_states):
        key0 = 0
        hot_weights = []
        for v, w in zip(values, weights):
            if v == 3:
                hot_weights.append(w)
            else:
                key0 += v * w
        work += 3 ** len(hot_weights)
        if work > bound:
            raise BoundExceeded(f"conformal aggregation exceeds {bound} steps")
        offsets = [key0]
        for w in hot_weights:
            offsets = [o + d * w for o in offsets for d in range(3)]
        sign = -1 if len(hot_weights) % 2 else 1
        for key in offsets:
            s = acc.get(key, 0) + sign
            if s:
                acc[key] = s
            else:
                del acc[key]
    decode = {0: (0, 0), 1: (0, 1), 2: (1, 0)}
    table: dict[tuple[KleinPair, ...], int] = {}
    for key, c in acc.items():
        digits = []
        for _ in range(n):
            key, d = divmod(key, 3)
            digits.append(decode[d])
        table[tuple(digits)] = c
    return table


def conformal_pair_normal_form(
    g: UndirectedGraph, max_states: int | None = None
) -> PairQuotientPoly:
    """Normal form rebuilt from the coefficient table: 4^kappa times the
    basic-monomial sum."""
    ids = g.sorted_edge_ids
    scale = 4 ** kappa(g)
    table = four_flow_coefficient_table(g, max_states)

    def exps_of(key):
        exps = {}
        for e, (r1, r2) in zip(ids, key):
            if r1:
                exps[xvar(e)] = 1
            if r2:
                exps[yvar(e)] = 1
        return exps

    poly = Poly.from_terms((exps_of(k), scale * c) for k, c in table.items())
    return PairQuotientPoly(ids, poly)


def count_conformal_dual_four_flows(
    g: UndirectedGraph, psi: KleinMap, max_states: int | None = None
) -> tuple[int, int]:
    """(even, odd) counts of psi-conformal Klein tensions."""
    psi.check_domain(g)
    if not psi.avoids_max:
        raise ValueError("psi must avoid (1,1)")
    even = odd = 0
    for phi in enumerate_dual_four_flows(g, max_states):
        if is_conformal4(phi, psi):
            if parity4(phi) == "even":
                even += 1
            else:
                odd += 1
    return even, odd


def has_nz_four_flow(
    g: UndirectedGraph,
    method: str = "all",
    max_states: int | None = None,
    max_terms: int | None = None,
) -> bool:
    """Nowhere-zero four-flow existence.

    Methods: "membership" (normal form nonzero), "conformal" (some psi
    with unequal even/odd conformal tension counts), "brute" (search the
    circulation space). "all" runs the three and raises if they disagree.
    """
    if method == "membership":
        return bool(_klein_fold(g, max_terms))
    if method == "conformal":
        return any(
            c != 0 for c in four_flow_coefficient_table(g, max_states).values()
        )
    if method == "brute":
        return find_nz_four_flow(g, max_states) is not None
    if method == "all":
        return _three_way_answer(
            has_nz_four_flow(g, "membership", max_states, max_terms),
            has_nz_four_flow(g, "conformal", max_states, max_terms),
            has_nz_four_flow(g, "brute", max_states, max_terms),
        )
    raise ValueError(f"unknown method {method!r}")


def _three_way_answer(membership: bool, conformal: bool, brute: bool) -> bool:
    """The common answer of the three four-flow routes; raises if they
    disagree."""
    answers = {"membership": membership, "conformal": conformal, "brute": brute}
    if len(set(answers.values())) != 1:
        raise VerificationError(f"four-flow methods disagree: {answers}")
    return brute
