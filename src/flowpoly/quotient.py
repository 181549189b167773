"""The per-arc ideal, its normal form, and the flow polynomial.

The ideal is generated by 1 + x_e + ... + x_e^(p-1), one generator per
arc. Modulo it, every polynomial has a unique representative supported on
monomials with all exponents at most p-2 (the basic monomials); a power
x^r with r = exponent mod p reduces to x^r when r <= p-2 and to
-(1 + x + ... + x^(p-2)) when r = p-1. Everything is exact over the
integers; the quotient's complex structure is never needed.

The normal form folds on packed keys: a basic monomial is one integer with
a radix-(p-1) digit per arc, the exponent of the arc at position i of
sorted_arc_ids at weight (p-1)^i. The top digit p-1 never occurs in a key;
it expands to minus the sum of the basic digits 0..p-2, as above.

The fold skips the vertex of most non-loop arcs (then least id) in each
component and scales by p^kappa: conservation at the other vertices of a
component implies it there, so on the vanishing set its factor is p where
theirs are nonzero. The rest go in greedy frontier order (Sekine, Imai and
Tani, ISAAC 1995): next, the vertex leaving the fewest arcs with exactly
one end folded, then the one of most arcs, then the least id.

QuotientPoly keeps the packed keys it is built from, so `is_zero` and `==`
compare keys and `.poly` decodes them on first use. The conformal route
re-encodes its table's base-p keys, which lack the top digit, in radix p-1.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .cyclotomic import CyclotomicInt, cyclotomic_eval
from .errors import BoundExceeded, DEFAULT_TERM_BOUND, PreconditionError
from .flows import ZpMap, _tension_sums, is_flow
from .graphs import Digraph, connected_components, kappa
from .polynomials import Mono, Poly, mono_mul


class QuotientPoly:
    """A normal-form representative: exponents per arc lie in 0..p-2.

    Built by the fold or the conformal route, it keeps their packed keys
    over `arcs`, and `poly` decodes them on first use."""

    def __init__(self, p: int, arcs: tuple[str, ...], poly: Poly):
        universe = set(arcs)
        for mono, _ in poly.items():
            for var, exp in mono:
                if var not in universe:
                    raise ValueError(f"variable {var!r} outside the arc universe")
                if not 0 < exp <= p - 2:
                    raise ValueError(f"exponent {exp} of {var!r} not in 1..{p - 2}")
        self.p, self.arcs, self._packed, self._poly = p, arcs, None, poly

    @property
    def poly(self) -> Poly:
        if self._poly is None:
            pairs = [[None] + [(a, d) for d in range(1, self.p - 1)] for a in self.arcs]
            self._poly = Poly(_unpack(self._packed, self.p - 1, [pairs]))
        return self._poly

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero if self._packed is None else not self._packed

    def coefficient(self, psi: dict[str, int]) -> int:
        return self.poly.coefficient(psi)

    def scaled(self, c: int) -> "QuotientPoly":
        return QuotientPoly(self.p, self.arcs, self.poly * c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuotientPoly):
            return NotImplemented
        return self.p == other.p and _same_terms(self, other, self.arcs, other.arcs)

    def __hash__(self):
        return hash((self.p, self.poly))

    def __repr__(self) -> str:
        return f"QuotientPoly(p={self.p}, arcs={self.arcs!r}, poly={self.poly!r})"


def _packed_form(cls, packed: dict[int, int], **fields):
    """A normal form of class cls that holds packed keys, decoded on first use."""
    form = cls.__new__(cls)
    vars(form).update(fields, _packed=packed, _poly=None)
    return form


def _same_terms(f1, f2, universe1, universe2) -> bool:
    """Equal terms, on the packed keys if both forms have them over one universe."""
    if f1._packed is None or f2._packed is None or universe1 != universe2:
        return f1.poly == f2.poly
    return f1._packed == f2._packed


def reduce_power(p: int, exponent: int, var: str = "x") -> QuotientPoly:
    """Normal form of a single variable power."""
    if p < 2:
        raise ValueError("p must be >= 2")
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    r = exponent % p
    if r <= p - 2:
        poly = Poly.variable(var, r) if r else Poly.one()
    else:
        poly = Poly({((var, i),) if i else (): -1 for i in range(p - 1)})
    return QuotientPoly(p, (var,), poly)


def _reduce_terms(terms, p: int, max_terms: int) -> dict[Mono, int]:
    """Reduce arbitrary (mono, coeff) pairs to the basic-monomial basis."""
    out: dict[Mono, int] = {}
    for mono, coeff in terms:
        base = []
        hot = []
        for var, exp in mono:
            r = exp % p
            if r == 0:
                continue
            if r <= p - 2:
                base.append((var, r))
            else:
                hot.append(var)
        base_mono = tuple(base)
        contribution = -coeff if len(hot) % 2 else coeff
        # each maxed-out variable expands to the sum over exponents 0..p-2
        for combo in product(range(p - 1), repeat=len(hot)):
            extra = tuple((v, k) for v, k in sorted(zip(hot, combo)) if k)
            m = mono_mul(base_mono, extra)
            s = out.get(m, 0) + contribution
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        if len(out) > max_terms:
            raise BoundExceeded(f"normal form exceeds {max_terms} terms")
    return out


def normalize(
    f: Poly,
    p: int,
    arcs: tuple[str, ...] | None = None,
    max_terms: int | None = None,
) -> QuotientPoly:
    """The unique basic-monomial representative of f modulo the ideal."""
    if p < 2:
        raise ValueError("p must be >= 2")
    bound = DEFAULT_TERM_BOUND if max_terms is None else max_terms
    reduced = _reduce_terms(f.items(), p, bound)
    if arcs is None:
        arcs = tuple(sorted(f.variables()))
    return QuotientPoly(p, tuple(arcs), Poly(reduced))


def is_in_ideal(f: Poly, p: int, max_terms: int | None = None) -> bool:
    return normalize(f, p, max_terms=max_terms).is_zero


def _vertex_factor_base(g: Digraph, v: str, p: int) -> Poly:
    """The monomial whose geometric sum is the vertex's factor: x_e for
    each arc entering v times x_e^(p-1) for each arc leaving it, so a loop
    contributes x_e^p."""
    exps: dict[str, int] = {}
    for a in g.in_arcs(v):
        exps[a.id] = exps.get(a.id, 0) + 1
    for a in g.out_arcs(v):
        exps[a.id] = exps.get(a.id, 0) + (p - 1)
    return Poly.monomial(exps)


def flow_polynomial_raw(g: Digraph, p: int, max_terms: int | None = None) -> Poly:
    """The fully expanded flow polynomial. Desk scale only; the normal
    form below never materializes this."""
    if p < 2:
        raise ValueError("p must be >= 2")
    bound = DEFAULT_TERM_BOUND if max_terms is None else max_terms
    acc = Poly.one()
    for v in g.sorted_vertices:
        base = _vertex_factor_base(g, v, p)
        factor = Poly.zero()
        power = Poly.one()
        for _ in range(p):
            factor = factor + power
            power = power * base
        acc = acc.mul(factor, max_terms=bound)
    return acc


def _fold_vertex_factors(
    g, records, ids, q: int, shift, max_terms: int, stage: str
) -> dict[int, int]:
    """The reduced product of the vertex factors, as packed key -> coeff.

    Vertex v's factor sums, over the q group elements k, the monomial that
    moves the digit d of each non-loop arc at v to shift(d, k, sign), with
    sign +1 at the arc's head and -1 at its tail; loops drop out. The
    skipped vertices start the accumulator at q^kappa; see the module doc.
    """
    r = q - 1
    weight = {a: r**i for i, a in enumerate(ids)}
    stars: dict[str, list[tuple[int, int]]] = {v: [] for v in g.vertices}
    near: dict[str, list[str]] = {v: [] for v in g.vertices}
    for rec in records:
        tail, head = rec.ends()
        if tail != head:
            stars[tail].append((weight[rec.id], -1))
            stars[head].append((weight[rec.id], 1))
            near[tail].append(head)
            near[head].append(tail)
    comps = connected_components(g)
    left = set(g.vertices) - {min(c, key=lambda v: (-len(near[v]), v)) for c in comps}
    order, closed = [], dict.fromkeys(g.vertices, 0)
    while left:
        # folding v opens its arcs to unfolded ends and closes the others
        v = min(left, key=lambda v: (len(near[v]) - 2 * closed[v], -len(near[v]), v))
        left.remove(v)
        order.append(v)
        for w in near[v]:
            closed[w] += 1
    acc = {0: q ** len(comps)}
    for step, v in enumerate(order, 1):
        star = stars[v]
        where = f"{stage} normal form exceeds {max_terms} terms at vertex {step} of {len(order)}"
        # each local digit state expands once into (key delta, coeff) pairs
        table: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        out: dict[int, int] = {}
        for key, coeff in acc.items():
            state = tuple([key // w % r for w, _ in star])
            pairs = table.get(state)
            if pairs is None:
                pairs = table[state] = _expand_state(state, star, r, shift, max_terms, where)
            for delta, c in pairs:
                delta += key
                c = out.get(delta, 0) + c * coeff
                if c:
                    out[delta] = c
                else:
                    del out[delta]
            if len(out) > max_terms:
                raise BoundExceeded(where)
        acc = out
    return acc


def _expand_state(state, star, r: int, shift, max_terms: int, where: str):
    """One local digit state times the vertex factor. A top digit expands
    to the r basic digits, so the bound is checked before expanding."""
    out: dict[int, int] = {}
    for k in range(r + 1):
        base, hot = 0, []
        for d, (w, sign) in zip(state, star):
            e = shift(d, k, sign)
            if e == r:
                hot.append(w)
                e = 0
            base += (e - d) * w
        if r ** len(hot) > max_terms:
            raise BoundExceeded(f"{where}: one term expands to {r}^{len(hot)} terms")
        deltas = [base]
        for w in hot:
            deltas = [o + e * w for o in deltas for e in range(r)]
        coeff = -1 if len(hot) % 2 else 1
        for delta in deltas:
            c = out.get(delta, 0) + coeff
            if c:
                out[delta] = c
            else:
                del out[delta]
        if len(out) > max_terms:
            raise BoundExceeded(where)
    return list(out.items())


def _unpack(acc: dict[int, int], r: int, columns) -> dict[Mono, int]:
    """Monomials of packed keys: `columns` map arc and digit, per variable
    kind, to one (var, exponent) pair shared by every term, or to None."""
    weights = [r**i for i in range(len(columns[0]))]
    terms = {}
    for key, c in acc.items():
        digits = [key // w % r for w in weights]
        terms[tuple([t[d] for col in columns for t, d in zip(col, digits) if t[d]])] = c
    return terms


def _repack(acc: dict[int, int], q: int, n: int, scale: int) -> dict[int, int]:
    """Base-q keys of n digits without the top digit q-1, such as a
    conformal table's, as radix-(q-1) keys, each coefficient times scale."""
    weights = [(q**i, (q - 1) ** i) for i in range(n)]
    return {sum(key // a % q * b for a, b in weights): c * scale for key, c in acc.items()}


def flow_polynomial_normal_form(
    g: Digraph, p: int, max_terms: int | None = None
) -> QuotientPoly:
    """Normal form of the flow polynomial, folded vertex by vertex on packed
    keys: k in Z_p adds to the exponent of each arc entering the vertex and
    subtracts from each leaving it; the unreduced expansion never exists."""
    return _packed_form(QuotientPoly, _zp_fold(g, p, max_terms), p=p, arcs=g.sorted_arc_ids)


def _zp_fold(g: Digraph, p: int, max_terms: int | None) -> dict[int, int]:
    """The packed normal form: empty exactly when the normal form is zero."""
    if p < 2:
        raise ValueError("p must be >= 2")
    bound = DEFAULT_TERM_BOUND if max_terms is None else max_terms
    shift = lambda d, k, sign: (d + sign * k) % p
    return _fold_vertex_factors(g, g.arcs, g.sorted_arc_ids, p, shift, bound, f"Z_{p}")


def has_nz_flow_membership(g: Digraph, p: int, max_terms: int | None = None) -> bool:
    """Nowhere-zero p-flow existence by non-membership of the flow
    polynomial in the ideal, decided on the packed keys without decoding."""
    return bool(_zp_fold(g, p, max_terms))


def conformal_normal_form(
    g: Digraph, p: int, max_states: int | None = None
) -> QuotientPoly:
    """The normal form rebuilt from conformal dual-flow counts: p^kappa
    times the sum of c(psi) over the basic monomials. Independent of the
    polynomial reduction route; the two must agree term by term."""
    ids = g.sorted_arc_ids
    acc = _tension_sums(g, p, max_states)
    return _packed_form(QuotientPoly, _repack(acc, p, len(ids), p ** kappa(g)), p=p, arcs=ids)


def surplus_eval(g: Digraph, phi: ZpMap) -> int:
    """Value of the flow polynomial at the vanishing-set point of a
    nowhere-zero map, computed without polynomials: p^|V| for flows,
    0 otherwise."""
    phi.check_domain(g)
    if not phi.is_nowhere_zero:
        raise PreconditionError("the map has a zero arc")
    return phi.p ** len(g.vertices) if is_flow(g, phi) else 0


def flow_poly_eval(g: Digraph, assignment: dict[str, int], p: int) -> CyclotomicInt:
    """Exact evaluation of the flow polynomial at x_e = rho^k_e, factor by
    factor (no expansion). Same ring element as evaluating the raw
    polynomial; the tests check that."""
    if set(assignment) != set(g.arc_by_id):
        raise ValueError("assignment domain does not match the arc set")
    for a, k in assignment.items():
        if not 1 <= k <= p - 1:
            raise ValueError(f"power for {a!r} must be in 1..{p - 1}")
    result = CyclotomicInt.one(p)
    for v in g.sorted_vertices:
        exp = 0
        for a in g.in_arcs(v):
            exp += assignment[a.id]
        for a in g.out_arcs(v):
            exp += (p - 1) * assignment[a.id]
        result = result * _vertex_factor(p, exp % p)
    return result


@lru_cache(maxsize=4096)
def _vertex_factor(p: int, residue: int) -> CyclotomicInt:
    """The vertex factor sum of rho^(i * residue) over i < p, summed in
    Z[rho]. It depends only on the vertex's exponent mod p."""
    factor = CyclotomicInt.zero(p)
    for i in range(p):
        factor = factor + CyclotomicInt.root_power(p, residue * i)
    return factor


def eval_at_map(g: Digraph, f: Poly, phi: ZpMap) -> CyclotomicInt:
    """Evaluate f at the vanishing-set point rho^phi for a nowhere-zero
    map phi."""
    if not phi.is_nowhere_zero:
        raise PreconditionError("the map has a zero arc")
    return cyclotomic_eval(f, dict(phi.values), phi.p)
