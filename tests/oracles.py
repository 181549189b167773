"""Slow, obviously-correct references that the package is tested against.

The serialisers print a normal form from its decoded Poly, sorting terms by
dense exponent vector over the form's ids, which are sorted, and a coefficient table from
its decoded items; they build the whole payload and print it with the
standard encoder (dump_json). The package streams both straight from the
packed keys through its own writer. parity4 and is_conformal4 test Klein maps one by one;
the package counts conformal tensions on code tuples. dfs_components finds
components by depth-first search; the package reads them off one cached
breadth-first search.

The Klein polynomial is expanded vertex factor by vertex factor
(four_flow_polynomial_raw), the reference for the packed fold, and
klein_eval evaluates it at the +-1 points of the vanishing set term by
term; the package has no Klein evaluation. reduce_zp_reference reduces a
polynomial in the Z_p ideal variable by variable, and reduce_pair_reference
one in the pair ideal edge by edge, both with Poly arithmetic; the package
reduces no given polynomial, so each fold is checked against this
reduction of its raw expansion. count_conformal_dual_four_flows counts
the conformal tensions of one psi, the reference for the Klein
coefficient table.

product_tensions builds every tension afresh from a product over the
potentials; the package builds each record's column of codes over the
last free vertices once, by list repetition, and picks the columns of each
block by the potentials of the others. product_circulations runs the
free records over a product and solves the forest records of every tuple
afresh, leaves up; the package solves each forest record once, as a
signed sum of free codes, and builds circulations by the same blocks.
is_dual_flow_by_circuits is the definition of a
tension, a zero sum around every circuit; the package grows potentials.
pieces_by_circuits splits the records by the definition of a 2-connected
piece, two records sharing one just when some circuit holds both, over
every record subset; the package runs one lowpoint depth-first search.
"""

from __future__ import annotations

import json
from itertools import product

from flowpoly.errors import DEFAULT_TERM_BOUND
from flowpoly.flows import _check_states, _count_conformal, _tensions
from flowpoly.fourflow import KLEIN, _KLEIN_GROUP, KleinMap, xvar, yvar
from flowpoly.graphs import circuits, cyclomatic_number
from flowpoly.polynomials import Poly


def sorted_terms(poly, variables, reverse=False):
    """Terms ordered lexicographically by dense exponent vector."""
    def dense(item):
        exps = dict(item[0])
        return tuple(exps.get(v, 0) for v in variables)

    return sorted(poly.terms.items(), key=dense, reverse=reverse)


def _join_terms(terms) -> str:
    """Signed text of (factor strings, coeff) pairs; "0" when empty."""
    bits = []
    for factors, coeff in terms:
        mag = abs(coeff)
        if factors:
            body = factors if mag == 1 else f"{mag}*{factors}"
        else:
            body = str(mag)
        if not bits:
            bits.append(body if coeff > 0 else f"-{body}")
        else:
            bits.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(bits) if bits else "0"


def quotient_poly_to_json(q) -> dict:
    terms = [
        {"coeff": str(coeff), "exps": {v: e for v, e in mono}}
        for mono, coeff in sorted_terms(q.poly, q.arcs)
    ]
    return {"p": q.p, "terms": terms}


def quotient_poly_to_text(q) -> str:
    return _join_terms(
        ("*".join(f"{v}^{e}" if e > 1 else v for v, e in mono), coeff)
        for mono, coeff in sorted_terms(q.poly, q.arcs, reverse=True)
    )


def _pair_variables(q) -> tuple:
    return tuple(v for e in q.edges for v in (xvar(e), yvar(e)))


def _pair_exps(mono) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for (kind, edge), exp in mono:
        out.setdefault(edge, [0, 0])[0 if kind == "x" else 1] = exp
    return out


def pair_poly_to_json(q) -> dict:
    terms = [
        {"coeff": str(coeff), "exps": dict(sorted(_pair_exps(mono).items()))}
        for mono, coeff in sorted_terms(q.poly, _pair_variables(q))
    ]
    return {"terms": terms}


def pair_poly_to_text(q) -> str:
    return _join_terms(
        (
            "*".join(f"{kind}_{edge}" for (kind, edge), _ in sorted(mono, key=lambda t: (t[0][1], t[0][0]))),
            coeff,
        )
        for mono, coeff in sorted_terms(q.poly, _pair_variables(q), reverse=True)
    )


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def table_entries(table) -> list[dict]:
    """{"psi", "c"} items by ascending psi; a Klein pair prints as a list."""
    value = lambda v: list(v) if isinstance(v, tuple) else v
    return [
        {"psi": {i: value(v) for i, v in zip(table.ids, key)}, "c": c}
        for key, c in sorted(table.items())
    ]


def table_to_text(table) -> str:
    value = lambda v: f"({v[0]},{v[1]})" if isinstance(v, tuple) else str(v)
    lines = []
    for key, c in sorted(table.items()):
        psi = "; ".join(f"{i}={value(v)}" for i, v in zip(table.ids, key))
        lines.append(f"c({psi}) = {c}\n")
    return "".join(lines)


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


def dfs_components(g) -> list[tuple[str, ...]]:
    """Vertex partition into components, each sorted, ordered by minimum."""
    adj: dict[str, set[str]] = {v: set() for v in g.vertices}
    for r in g.records:
        a, b = r.ends()
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


# evaluation points of the ideal's vanishing set, keyed by the nonzero
# Klein element they encode: (a, b) = ((-1)^p1, (-1)^p2)
EVAL_POINTS = {
    (0, 1): (1, -1),
    (1, 0): (-1, 1),
    (1, 1): (-1, -1),
}


def _vertex_pair_factor(g, v: str) -> Poly:
    """(prod x_e + 1)(prod y_e + 1) over the edges at v, loops squared."""
    xexps: dict = {}
    yexps: dict = {}
    for e in g.edges:
        for w in e.ends():
            if w == v:
                xexps[xvar(e.id)] = xexps.get(xvar(e.id), 0) + 1
                yexps[yvar(e.id)] = yexps.get(yvar(e.id), 0) + 1
    return (Poly.monomial(xexps) + Poly.one()) * (Poly.monomial(yexps) + Poly.one())


def four_flow_polynomial_raw(g, max_terms: int | None = None) -> Poly:
    bound = DEFAULT_TERM_BOUND if max_terms is None else max_terms
    acc = Poly.one()
    for v in g.sorted_vertices:
        acc = acc.mul(_vertex_pair_factor(g, v), max_terms=bound)
    return acc


def klein_eval(f: Poly, assignment: dict) -> int:
    """f at (a_e, b_e) points with entries +-1, one monomial at a time."""
    for e, point in assignment.items():
        if tuple(point) not in EVAL_POINTS.values():
            raise ValueError(f"point {point!r} for {e!r} not in the zero set")
    values = {}
    for e, (a, b) in assignment.items():
        values[xvar(e)] = a
        values[yvar(e)] = b
    total = 0
    for mono, coeff in f.items():
        for var, exp in mono:
            coeff *= values[var] ** exp
        total += coeff
    return total


def eval_points_of(phi: KleinMap) -> dict:
    """The vanishing-set point encoding a nowhere-zero Klein map."""
    if not phi.is_nowhere_zero:
        raise ValueError("the map has a zero edge")
    return {e: EVAL_POINTS[tuple(v)] for e, v in phi.values.items()}


def count_conformal_dual_four_flows(g, psi: KleinMap, max_states=None) -> tuple[int, int]:
    """(even, odd) counts of psi-conformal Klein tensions."""
    if not psi.avoids_max:
        raise ValueError("psi must avoid (1,1)")
    psi.check_domain(g)
    codes = [KLEIN.index(psi[e]) for e in g.sorted_edge_ids]
    return _count_conformal(_tensions(g, _KLEIN_GROUP, max_states), [codes], 3)[0]


def reduce_zp_reference(f: Poly, p: int) -> Poly:
    """f reduced one variable at a time with Poly arithmetic: x^r = x^(r mod p),
    as x^p = 1, and x^(p-1) = -(1 + x + ... + x^(p-2)), read off
    1 + x + ... + x^(p-1) = 0. Each monomial becomes a product of one
    reduced factor per variable."""
    total = Poly.zero()
    for mono, coeff in f.items():
        term = Poly.constant(coeff)
        for var, exp in mono:
            r = exp % p
            if r == p - 1:
                term = term * -sum([Poly.variable(var, d) for d in range(r)], Poly.zero())
            else:
                term = term * Poly.variable(var, r)
        total = total + term
    return total


def reduce_pair_reference(f: Poly) -> Poly:
    """f reduced one edge at a time with Poly arithmetic: x_e^2 = y_e^2 = 1,
    and x_e*y_e = -(x_e + y_e + 1), read off (x_e + 1)(y_e + 1) = 0. Each
    monomial becomes a product of one reduced factor per edge."""
    total = Poly.zero()
    for mono, coeff in f.items():
        parity: dict[str, list[int]] = {}
        for (kind, edge), exp in mono:
            parity.setdefault(edge, [0, 0])[0 if kind == "x" else 1] += exp
        term = Poly.constant(coeff)
        for edge, (a, b) in parity.items():
            x, y = Poly.variable(xvar(edge)), Poly.variable(yvar(edge))
            factor = {(0, 0): Poly.one(), (1, 0): x, (0, 1): y, (1, 1): -(x + y + Poly.one())}
            term = term * factor[a % 2, b % 2]
        total = total + term
    return total


def product_tensions(g, group, max_states):
    """The tension code tuples of flows._tensions, in the same order, each
    computed from scratch over the product of the free potentials."""
    free = sorted(v for comp in g.bfs[0] for v in comp[1:])
    _check_states(group.q ** len(free), max_states)
    slot = {v: i for i, v in enumerate(free)}
    ends = [g.by_id[r].ends() for r in g.sorted_ids]
    pairs = [(slot.get(h, -1), slot.get(t, -1)) for t, h in ends]
    diff = group.diff
    # a[-1] = 0 is the label of every root's potential
    for a in product(*[group.label] * len(free), (0,)):
        yield tuple([diff[a[h] - a[t]] for h, t in pairs])


def product_circulations(g, group, max_states):
    """The flow code tuples of flows._circulations, in the same order. The
    records off the forest, by ascending id, run lexicographically over
    the codes; for each tuple every forest record, leaves up, then
    balances the others at its vertex."""
    q = group.q
    _check_states(q ** cyclomatic_number(g), max_states)
    stars, steps = g.stars, g.bfs[1]
    forest = {i for _, _, i, _ in steps}
    free = [i for i in range(len(g.sorted_ids)) if i not in forest]
    # sign * x + sum s * y = 0 at w, so x takes -sign * s * y from each other y
    solves = [
        (i, [(j, s == sign) for j, s in stars[w] if j != i])
        for w, _, i, sign in reversed(steps)
    ]
    label, diff, neg = group.label, group.diff, group.neg
    values = [0] * len(g.sorted_ids)
    for assignment in product(range(q), repeat=len(free)):
        for i, x in zip(free, assignment):
            values[i] = x
        for i, terms in solves:
            x = 0
            for j, minus in terms:
                y = values[j]
                x = diff[label[x] - label[y if minus else neg[y]]]
            values[i] = x
        yield tuple(values)


def is_dual_flow_by_circuits(g, phi) -> bool:
    """Whether the Z_p map phi sums to zero mod p around every circuit of g,
    each arc counted with the sign of the direction the circuit walks it."""
    phi.check_domain(g)
    return all(
        sum(phi[a] if forward else -phi[a] for a, forward in c.steps) % phi.p == 0
        for c in circuits(g)
    )


def pieces_by_circuits(g) -> tuple[tuple[int, ...], ...]:
    """The 2-connected pieces of g by their definition, as positions in
    g.sorted_ids: two records share a piece just when some circuit holds
    both, and a record on no circuit is a piece alone. A circuit is a
    nonempty record subset, connected, with every vertex it touches at
    degree 2, a loop counting twice; so a loop is a circuit alone, and on
    no other. Every subset is tried, so g must be small."""
    ends = [g.by_id[r].ends() for r in g.sorted_ids]
    n = len(ends)
    piece = list(range(n))  # union-find over positions

    def find(i):
        while piece[i] != i:
            i = piece[i]
        return i

    for mask in range(1, 2**n):
        subset = [i for i in range(n) if mask >> i & 1]
        degree = {}
        for i in subset:
            for w in ends[i]:
                degree[w] = degree.get(w, 0) + 1
        if set(degree.values()) != {2}:
            continue
        reached, todo = set(), [ends[subset[0]][0]]
        while todo:
            v = todo.pop()
            if v not in reached:
                reached.add(v)
                todo += [w for i in subset if v in ends[i] for w in ends[i]]
        if reached == set(degree):
            for i in subset:
                piece[find(i)] = find(subset[0])
    classes = {}
    for i in range(n):
        classes.setdefault(find(i), []).append(i)
    return tuple(sorted(tuple(c) for c in classes.values()))
