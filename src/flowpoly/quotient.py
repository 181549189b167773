"""The per-arc ideal, its normal form, and the flow polynomial.

The ideal is generated by 1 + x_e + ... + x_e^(p-1), one generator per
arc. Modulo it, every polynomial has a unique representative supported on
monomials with all exponents at most p-2 (the basic monomials); a power
x^r with r = exponent mod p reduces to x^r when r <= p-2 and to
-(1 + x + ... + x^(p-2)) when r = p-1. Everything is exact over the
integers; the quotient's complex structure is never needed.

The normal form folds on the packed keys of the conformal tables of flows:
a basic monomial is the base-p integer of its exponents, the exponent of
the arc at position i of sorted_arc_ids at weight p^(n-1-i) for n arcs.
The first arc is the most significant digit, so integer key order is the
lexicographic exponent order, which is the order the normal forms print
in. The top digit p-1 never occurs in a key, nor in a swept table; it
expands to minus the sum of the basic digits 0..p-2, as above.

The fold takes a group of flows, _fold(g, group): a digit is a group code,
and a vertex factor adds each element k to the digits of the arcs entering
the vertex and subtracts it from those leaving it, through the group's own
labels and differences. Z_p gives the normal form here, and the Klein
group, base 4, the pair normal form of fourflow. With q elements, the
fold skips the vertex of most non-loop arcs (then least id) in each
component and scales by q^kappa: conservation at the other vertices of a
component implies it there, so on the vanishing set its factor is q where
theirs are nonzero. The rest go in greedy frontier order (Sekine, Imai and
Tani, ISAAC 1995): next, the vertex leaving the fewest arcs with exactly
one end folded, then the one of most arcs, then the least id.

A normal form is a flows._Packed, as a conformal table is: it holds only
its packed keys over the sorted ids, and both groups' forms are built by
_Packed's constructor from (ids, q, packed). Only a graph makes one, by the
fold or by the conformal route; no given Poly is reduced, and the
reduction of one by Poly arithmetic is a test reference, in
tests/oracles.py. `is_zero`, `==` and `text_batches`, which the writers of
formats print from, read the keys; `.poly` decodes them on each use, as a
table's are. The conformal route is the table scaled: conformal_normal_form holds
the keys of the tension table as they are, times p^kappa, and
conformal_pair_normal_form of fourflow those of the Klein table, times
4^kappa.

Evaluation at the vanishing-set point x_e = rho^k_e goes through one
evaluator per digraph and p, which reads a code tuple over sorted_arc_ids:
each vertex's residue adds k at the head of every arc record and subtracts
it at the tail, and the vertex factors, summed in Z[rho], multiply up to the
first zero one. It reads the records and not the stars on purpose: verify's
evaluation check compares its value at every point with p^|V| or 0 as the
group flow test of flows, which sums the stars, decides, so the two sides
stay independent computations.
"""

from __future__ import annotations

from functools import lru_cache

from .cyclotomic import CyclotomicInt
from .errors import BoundExceeded, DEFAULT_TERM_BOUND, PreconditionError
from .flows import ZpMap, _Group, _Packed, _tension_sums, _weights, _zp, is_flow
from .graphs import Digraph, kappa
from .polynomials import Poly


class _PackedForm(_Packed):
    """The members the normal forms of both groups share, on the packed
    keys of flows._Packed, as a table keys its psi. Subclasses name their
    public `_fields` and give `_factors(id)`, the (var, exp) pair of each
    code of the id, None for code 0."""

    _fields: tuple[str, ...]

    @property
    def poly(self) -> Poly:
        factors = [self._factors(i) for i in self._ids]
        return Poly({
            tuple(sorted([f[d] for f, d in zip(factors, codes) if d])): c
            for codes, c in self._decode(range(self._q)).items()
        })

    @property
    def is_zero(self) -> bool:
        return not self._packed

    def scaled(self, c: int):
        packed = {k: v * c for k, v in self._packed.items()} if c else {}
        return type(self)(self._ids, self._q, packed)

    def text_batches(self, frag, descending: bool = False):
        """As flows._Packed's, but a term names only its nonzero codes."""
        return super().text_batches(lambda i, d: frag(i, d) if d else "", descending)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        if self._q != other._q:
            return False
        if self._ids == other._ids:
            return self._packed == other._packed
        return self.poly == other.poly

    def __hash__(self):
        # the coefficients alone: forms over other id sets can be equal
        return hash((self._q, frozenset(self._packed.values())))

    def __repr__(self) -> str:
        fields = "".join(f"{f}={getattr(self, f)!r}, " for f in self._fields)
        return f"{type(self).__name__}({fields}poly={self.poly!r})"


class QuotientPoly(_PackedForm):
    """A normal-form representative: exponents per arc lie in 0..p-2.
    Only the fold and the conformal route build one."""

    _fields = ("p", "arcs")

    @property
    def p(self) -> int:
        return self._q

    @property
    def arcs(self) -> tuple[str, ...]:
        return self._ids

    def _factors(self, arc):
        return [None] + [(arc, d) for d in range(1, self._q)]

    def coefficient(self, psi: dict[str, int]) -> int:
        return self.poly.coefficient(psi)


def flow_polynomial_raw(g: Digraph, p: int, max_terms: int | None = None) -> Poly:
    """The fully expanded flow polynomial. Desk scale only; the normal
    form below never materializes this. Vertex v's factor is the geometric
    sum of the monomial with x_e for each arc entering v and x_e^(p-1) for
    each arc leaving it, so a loop contributes x_e^p."""
    if p < 2:
        raise ValueError("p must be >= 2")
    bound = DEFAULT_TERM_BOUND if max_terms is None else max_terms
    exps: dict[str, dict[str, int]] = {v: {} for v in g.sorted_vertices}
    for a in g.arcs:
        exps[a.head][a.id] = exps[a.head].get(a.id, 0) + 1
        exps[a.tail][a.id] = exps[a.tail].get(a.id, 0) + (p - 1)
    acc = Poly.one()
    for v in g.sorted_vertices:
        base = Poly.monomial(exps[v])
        factor = Poly.zero()
        power = Poly.one()
        for _ in range(p):
            factor = factor + power
            power = power * base
        acc = acc.mul(factor, max_terms=bound)
    return acc


def _fold(g, group: _Group, max_terms: int | None) -> dict[int, int]:
    """The packed normal form of g's flow polynomial over the group, as
    packed key -> coeff: empty exactly when the normal form is zero.

    Vertex v's factor sums, over the q codes k, the monomial that moves the
    digit d of each non-loop record at v to d + k at the record's second
    end and to d - k at its first, in the group; loops drop out. The
    skipped vertices start the accumulator at q^kappa; see the module doc.
    The fold stops once the accumulator is empty.
    """
    bound = DEFAULT_TERM_BOUND if max_terms is None else max_terms
    q = group.q
    weights = _weights(len(g.sorted_ids), q)
    ends = [g.by_id[i].ends() for i in g.sorted_ids]
    degree = {v: len(star) for v, star in g.stars.items()}
    comps = g.bfs[0]
    left = set(g.vertices) - {min(c, key=lambda v: (-degree[v], v)) for c in comps}
    order, closed = [], dict.fromkeys(g.vertices, 0)
    while left:
        # folding v opens its records to unfolded ends and closes the others
        v = min(left, key=lambda v: (degree[v] - 2 * closed[v], -degree[v], v))
        left.remove(v)
        order.append(v)
        for i, s in g.stars[v]:
            closed[ends[i][s < 0]] += 1
    acc = {0: q ** len(comps)}
    for step, v in enumerate(order, 1):
        star = [(weights[i], s > 0) for i, s in g.stars[v]]
        where = f"{group.name} normal form exceeds {bound} terms at vertex {step} of {len(order)}"
        # each local digit state expands once into (key delta, coeff) pairs
        table: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        out: dict[int, int] = {}
        for key, coeff in acc.items():
            state = tuple([key // w % q for w, _ in star])
            pairs = table.get(state)
            if pairs is None:
                pairs = table[state] = _expand_state(state, star, group, bound, where)
            for delta, c in pairs:
                delta += key
                c = out.get(delta, 0) + c * coeff
                if c:
                    out[delta] = c
                else:
                    del out[delta]
            if len(out) > bound:
                raise BoundExceeded(where)
        acc = out
        if not acc:
            break  # a zero form stays zero: no later vertex is folded
    return acc


def _expand_state(state, star, group: _Group, max_terms: int, where: str):
    """One local digit state times the vertex factor, star holding each
    record's (key weight, at its second end). A top digit expands to the r
    basic digits, so the bound is checked before expanding."""
    label, diff = group.label, group.diff
    r = group.q - 1
    at = [(label[d], d, w, second) for d, (w, second) in zip(state, star)]
    out: dict[int, int] = {}
    for x in label:
        # the labels of k and -k for the code k of label x: a digit d moves
        # to d - k at its record's first end and to d - (-k) at its second
        minus = (x, label[diff[-x]])
        base, hot = 0, []
        for ld, d, w, second in at:
            e = diff[ld - minus[second]]
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


def flow_polynomial_normal_form(
    g: Digraph, p: int, max_terms: int | None = None
) -> QuotientPoly:
    """Normal form of the flow polynomial, folded vertex by vertex on packed
    keys: k in Z_p adds to the exponent of each arc entering the vertex and
    subtracts from each leaving it; the unreduced expansion never exists."""
    return QuotientPoly(g.sorted_arc_ids, p, _fold(g, _zp(p), max_terms))


def has_nz_flow_membership(g: Digraph, p: int, max_terms: int | None = None) -> bool:
    """Nowhere-zero p-flow existence by non-membership of the flow
    polynomial in the ideal, decided on the packed keys without decoding."""
    return bool(_fold(g, _zp(p), max_terms))


def conformal_normal_form(
    g: Digraph, p: int, max_states: int | None = None
) -> QuotientPoly:
    """The normal form rebuilt from conformal dual-flow counts: p^kappa
    times the sum of c(psi) over the basic monomials. Independent of the
    polynomial reduction route; the two must agree term by term."""
    table = _tension_sums(g, _zp(p), max_states)
    return QuotientPoly(g.sorted_arc_ids, p, table).scaled(p ** kappa(g))


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
    factor (no expansion), stopping at the first zero factor. Same ring
    element as evaluating the raw polynomial; the tests check that."""
    if set(assignment) != set(g.arc_by_id):
        raise ValueError("assignment domain does not match the arc set")
    for a, k in assignment.items():
        if not 1 <= k <= p - 1:
            raise ValueError(f"power for {a!r} must be in 1..{p - 1}")
    return _evaluator(g, p)([assignment[i] for i in g.sorted_arc_ids])


def _evaluator(g: Digraph, p: int):
    """evaluate(codes): the flow polynomial at x_e = rho^codes[i] for the
    arc e at position i of g.sorted_arc_ids, as flow_poly_eval gives it.
    Each vertex's residue adds the code of every arc record at its head and
    subtracts it at its tail, so a loop cancels; the vertex factors then
    multiply in Z[rho] in sorted-vertex order, up to the first zero one.
    A factor is built on the first read of its residue mod p, and cached."""
    slot = {v: k for k, v in enumerate(g.sorted_vertices)}
    ends = [(slot[a.head], slot[a.tail]) for a in map(g.arc_by_id.get, g.sorted_arc_ids)]
    one = CyclotomicInt.one(p)

    def evaluate(codes) -> CyclotomicInt:
        residue = [0] * len(slot)
        for (head, tail), k in zip(ends, codes):
            residue[head] += k
            residue[tail] -= k
        result = one
        for r in residue:
            factor = _vertex_factor(p, r % p)
            if factor.is_zero:
                return factor
            result = result * factor
        return result

    return evaluate


@lru_cache(maxsize=4096)
def _vertex_factor(p: int, residue: int) -> CyclotomicInt:
    """The vertex factor sum of rho^(i * residue) over i < p, summed in
    Z[rho]. It depends only on the vertex's exponent mod p."""
    factor = CyclotomicInt.zero(p)
    for i in range(p):
        factor = factor + CyclotomicInt.root_power(p, residue * i)
    return factor

