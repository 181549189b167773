"""The undirected four-flow variant over the Klein group Z2 x Z2.

Maps assign a pair (a, b) with a, b in {0, 1} to every edge; conservation
is componentwise mod 2, and since every element is its own inverse no
orientation is needed anywhere. The polynomial side uses two variables
x_e, y_e per edge, the ideal generated by x^2 - 1, y^2 - 1 and
(x + 1)(y + 1), and the basis of monomials whose per-edge exponent pair
avoids (1, 1): the pair (1, 1) rewrites to -x - y - 1.

Loops contribute both end slots to their vertex, hence nothing: they never
obstruct a flow and force tension value (0, 0).

This module holds the Klein group, _KLEIN_GROUP on the codes 2a+b of
KLEIN (adding an element is XOR of codes), its map KleinMap and the pair
normal form PairQuotientPoly. Every route is a one-line call of the
group-generic one: the fold of quotient, and the enumerations, tension
table and witness search of flows. KleinMap shares the map core of flows,
so is_flow and is_dual_flow read it over its group, and as there it is
built only at the public edge. A pair normal form is built only by the
fold and by the conformal route, which is the tension table itself,
scaled by 4^kappa.

The pair normal form keys a monomial as the Klein tables key a map: the
base-4 integer of one code per edge, the edge at position i of
sorted_edge_ids at weight 4^(n-1-i) for n edges holding the code 2a+b of
the edge's exponent pair (a, b). The first edge is the most significant
digit, and code order is the lexicographic order of the pairs, so integer
key order is the lexicographic exponent order over x_e1, y_e1, x_e2, ...,
the order the normal forms print in. The top code 3, the pair (1,1), never
occurs in a key; it expands to minus the sum of the basic codes 0, 1, 2:
-(1 + y_e + x_e).

There is no evaluation layer and no reduction of a given polynomial: the
Klein polynomial is decided through its normal form, its conformal table
and brute force. The raw expansion, its reduction edge by edge and its
evaluation at the +-1 points of the vanishing set are test references, in
tests/oracles.py.
"""

from __future__ import annotations

from .errors import VerificationError
from .flows import (
    ConformalTable,
    _Group,
    _GroupMap,
    _circulations,
    _has_conformal_entry,
    _is_int,
    _map_of,
    _nz_flow,
    _tension_sums,
)
from .graphs import UndirectedGraph, kappa
from .quotient import _PackedForm, _fold

KleinPair = tuple[int, int]

KLEIN = ((0, 0), (0, 1), (1, 0), (1, 1))
KLEIN_BASIC = ((0, 0), (0, 1), (1, 0))  # the nowhere-(1,1) codomain


def _klein_group() -> _Group:
    """The group on the codes 2a+b of KLEIN. Code 2a+b carries the label
    4a+b: the label difference 4(a-a') + (b-b') tells the code of the
    difference, the XOR of the codes, so each code is its own neg."""
    label = (0, 1, 4, 5)
    diff = [0] * 11
    for x in range(4):
        for y in range(4):
            diff[label[x] - label[y]] = x ^ y
    return _Group(label, tuple(diff), KLEIN, "Klein", range(4))


_KLEIN_GROUP = _klein_group()


def xvar(edge: str) -> tuple[str, str]:
    return ("x", edge)


def yvar(edge: str) -> tuple[str, str]:
    return ("y", edge)


class KleinMap(_GroupMap):
    """A total assignment of Klein-group pairs to the edges of a graph."""

    __slots__ = ()
    group = _KLEIN_GROUP

    def __init__(self, values: dict[str, KleinPair]):
        normalized = {}
        for e, pair in values.items():
            pair = tuple(pair) if isinstance(pair, (tuple, list)) else pair
            if not (pair in KLEIN and all(map(_is_int, pair))):
                raise ValueError(f"value {pair!r} for {e!r} is not in Z2 x Z2")
            normalized[e] = pair
        self._hold(4, normalized, [KLEIN.index(pair) for pair in normalized.values()])

    def __repr__(self) -> str:
        return f"KleinMap(values={self.values!r})"


class PairQuotientPoly(_PackedForm):
    """Normal form over the pair basis: no edge carries the (1,1) pair.
    Only the fold and the conformal route build one."""

    _fields = ("edges",)

    @property
    def edges(self) -> tuple[str, ...]:
        return self._ids

    def _factors(self, edge):
        return [None, (yvar(edge), 1), (xvar(edge), 1), None]  # code 2a+b: 2 is x_e


def _klein_maps(ids, tuples) -> list[KleinMap]:
    return [_map_of(KleinMap, 4, ids, t) for t in tuples]


def enumerate_klein_circulations(
    g: UndirectedGraph, max_states: int | None = None
) -> list[KleinMap]:
    """All 4^(|E|-|V|+kappa) Klein flows: free values off a spanning
    forest, forest edges forced by conservation."""
    flows = _circulations(g, _KLEIN_GROUP, max_states)
    return _klein_maps(g.sorted_edge_ids, flows)


def find_nz_four_flow(
    g: UndirectedGraph, max_states: int | None = None
) -> KleinMap | None:
    """The first nowhere-zero Klein flow in the order of
    enumerate_klein_circulations."""
    codes = _nz_flow(g, _KLEIN_GROUP, max_states)
    return None if codes is None else _klein_maps(g.sorted_edge_ids, [codes])[0]


def four_flow_polynomial_normal_form(
    g: UndirectedGraph, max_terms: int | None = None
) -> PairQuotientPoly:
    """Normal form accumulated vertex by vertex on packed keys: the factor
    (X + 1)(Y + 1) adds each Klein element to the pair of every non-loop
    edge at the vertex, an XOR on the codes. The unreduced expansion never
    exists."""
    return PairQuotientPoly(g.sorted_edge_ids, 4, _fold(g, _KLEIN_GROUP, max_terms))


def four_flow_coefficient_table(
    g: UndirectedGraph, max_states: int | None = None
) -> ConformalTable:
    """c(psi) over the nowhere-(1,1) maps psi, keyed by value tuples over
    g.sorted_edge_ids; zero entries dropped."""
    return ConformalTable(g.sorted_edge_ids, KLEIN, _tension_sums(g, _KLEIN_GROUP, max_states))


def conformal_pair_normal_form(
    g: UndirectedGraph, max_states: int | None = None
) -> PairQuotientPoly:
    """Normal form rebuilt from the coefficient table: 4^kappa times the
    basic-monomial sum."""
    table = _tension_sums(g, _KLEIN_GROUP, max_states)
    return PairQuotientPoly(g.sorted_edge_ids, 4, table).scaled(4 ** kappa(g))


def has_nz_four_flow(
    g: UndirectedGraph,
    method: str = "all",
    max_states: int | None = None,
    max_terms: int | None = None,
) -> bool:
    """Nowhere-zero four-flow existence.

    Methods: "membership" (normal form nonzero), "conformal" (some psi
    with unequal even/odd conformal tension counts, decided on the packed
    tension counts by the certificate of flows, or by the sweep when it
    reads zero; no table is built), "brute" (search the circulation
    space). "all" runs the three and raises if they disagree.
    """
    if method == "membership":
        return bool(_fold(g, _KLEIN_GROUP, max_terms))
    if method == "conformal":
        return _has_conformal_entry(g, _KLEIN_GROUP, max_states)
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
