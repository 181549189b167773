"""Group-valued maps: flows, tensions, conformal counts split by parity.

A p-flow conserves (in minus out) at every vertex; a dual p-flow (tension)
sums to zero around every circuit, equivalently comes from vertex
potentials on each component. The parity of a map is that of its number
of arcs at the maximal label p-1. All enumerations are deterministic: free
slots are ordered by ascending id and assignments run lexicographically.

Internally a map is a tuple of codes 0..q-1 over a finite abelian group,
a _Group. ZpMap / KleinMap objects exist only at the public edge, built to
be returned or parsed; a caller's map becomes codes once, through the map
core _GroupMap the two share, and no map is built to be counted. Maps are
lazy: a map holds its ids and its code tuple, and builds its dict of
values only when a caller reads it, so a list of enumerated maps costs
one small object per tuple until then. The group carries its law (a
label per code and a table of differences), the public value of each
code and its name for bound messages, so it is the only parameter: one
set of generators, tests, tension tables, witness searches and one
per-psi conformal counter serve Z_p and the Klein group of fourflow.
Every Z_p route builds its group through _zp(p), which rejects p < 2.

The generic helpers take the graph itself, a Digraph or an
UndirectedGraph, and read a code tuple over its sorted record ids. They
read the graph's cached breadth-first search (components and a spanning
forest from the least vertex of each component) and its stars (each
non-loop record at a vertex with its sign there); see graphs. The tension
test grows potentials along the forest and the flow test sums each star,
so none of them rebuilds incidence data.

Tensions and circulations come from one block enumerator, on signed forms
built once per graph: a record's code is a +-1 sum of free codes. For a
tension the free codes are the potentials of the sorted non-root
vertices, and a record's form is the potential at its second end minus
the one at its first; for a circulation they are the codes of the
records off the forest, and each forest record is solved once, leaves
up. Tuples run lexicographically over the free codes, the last fastest.
Over the k last free codes, q^k <= _BLOCK, each record's column of codes
is built once by list repetition, and an odometer over the other (outer)
free codes picks per block the column at the group sum of the record's
outer codes; _plan holds them. The code tuples are the rows of a block.
For the conformal counts the same plan holds, per record at position i,
w_i*code plus q^n << i at the top code (w_i the key weight of i) in place
of the code, so that the entries of a row sum, with no carries, to the
row's packed value: its packed key plus q^n times its hot set, the mask
with bit i for each position i at the top code. The columns that no
outer code moves are summed once, and a block adds the rest.

The conformal table c(psi) is aggregated on packed keys. A map is the
base-q integer with the code of the arc at position i of n at weight
q^(n-1-i), the first arc the most significant digit, so that integer key
order is the lexicographic order of the value tuples; the maps are counted
into one dict by packed value, key and hot set together. The top code q-1
is then swept out one arc at a time: each key whose digit there is q-1
moves, negated, to the q-1 keys with digits 0..q-2 there, and an entry
that reaches 0 goes. The counts are grouped once by hot set, the quotient
of each packed value by q^n, and then freed. A step moves just the keys
at the top code on its arc, the groups whose mask holds the arc, and each
lands in the group of that mask less the arc's bit; so every arc pops
those groups and reads no other entry. When every arc is swept only
group 0 is left: c(psi) at the key of psi. The work bound counts
(q-1)^|hot| per map, the size of its box of conformal psi, and is checked
while counting, before any sweep.

The sweep steps commute, so the arcs may be taken in any order, and the
keys keep their weights whatever the order. The order sets the cost: once
the arcs of a set S are swept, a tension table holds at most
q^r(E-S) * (q-1)^|S| keys, r(E-S) being the rank of the records not yet
swept. Sweeping a bridge of those records lowers the rank by one, any
other arc leaves it as it is, so _sweep_order takes every bridge of the
unswept records first (the frontier idea of Sekine, Imai and Tani, ISAAC
1995, applied to elimination). The sweep runs per piece (below): a piece
has no bridge until one of its arcs is swept, and a bridge is a piece of
its own, whose one step cancels all q of its maps. A sweep stops once no
entry is left. Flow and tension tables sweep in this order.

The conformal route runs per 2-connected piece of the graph, its `pieces`
(see graphs; a loop and a bridge are pieces of their own). Every circuit
lies in one piece, so the tensions and the circulations of a graph are
the direct sums of its pieces', and c(psi) is the product of the pieces'
c at psi's codes on their records, the factorization that makes the flow
polynomial multiplicative over blocks (Tutte, Canad. J. Math. 6, 1954).
_piece_counts counts the maps of each piece as a graph of its own, the
pieces with the fewest counts are swept first, and _product moves each
piece's keys to the graph's positions through _chunk_tables and
multiplies the tables. A table is empty as soon as one piece's is, and no
later piece is swept; a decider answers yes just when every piece has a
nonzero entry. The "tension" and "flow" counts convolve the pieces'
(even, odd) pairs, as their parities add. Every bound keeps its
whole-graph meaning: the state bound is checked on q^(|V|-kappa), or q^beta
for flows, and on q when the graph has a record, before anything is
built, and the work bound on the product of the pieces' box sums, which
is the graph's total, with every piece counted before any is swept. A
graph of one piece is its own, with no sub-graph and no remap. The
"subset" count, brute force and the normal-form fold read the whole
graph, so they stay references for the factored route.

The conformal deciders need only whether some c(psi) is nonzero, so they
read a certificate off the counted keys before any sweep. Position e has
weights a_e(d) mod the prime P = 2^61-1: output q*e+d+1 of splitmix64
for the codes d below the top, and a_e(q-1) = -(a_e(0) + ... + a_e(q-2)),
so that each a_e sums to 0. The certificate S is the sum over the
counted keys of the count times prod_e a_e(digit_e), one _chunk_tables
cell (the product of a run's weights) per run of a key; the runs read
only the digits below q^n, so the hot set above them drops out. A map
phi with the hot set H gives prod_{e not in H} a_e(phi_e) times
prod_{e in H} -(a_e(0) + ... + a_e(q-2)), which is (-1)^|H| times the sum
of prod_e a_e(psi_e) over its box, so S = sum_psi c(psi) * prod_e
a_e(psi_e) mod P: the sweep's own identity read through a product
functional. S != 0 proves that some c(psi) is nonzero,
and the decider answers yes. S = 0 proves nothing, since nonzero c(psi)
may cancel mod P, so the counts are then swept as for a table and the
answer is never a guess. The deciders read a certificate per piece. A
bridge has every c(psi) zero: its q tensions give each code once, so its
certificate is the sum of one weight row, 0 by construction, and its
sweep cancels them at its one step.

A table and a normal form are one packed object, _Packed: the sorted ids,
q and the packed dict, with the length, the decoding and the text batches
the writers of formats print. The normal form is q^kappa times the sum of
c(psi) over the basic monomials of psi, each keyed as psi is, so a tension
table scaled by q^kappa is a conformal normal form; ConformalTable and the
normal forms of quotient and fourflow all derive from _Packed. A
ConformalTable reads its length, values and rows packed, and a lookup by
value tuple decodes the keys once. Packed keys convert a few digits at a
time: _chunk_tables splits the digit positions into runs and tabulates a
value per run for every digit pattern, and _convert adds up one looked-up
value per run for each key (the certificate multiplies them); text_batches
joins text fragments that way, a batch of keys at a time.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Mapping, Sequence
from dataclasses import FrozenInstanceError, dataclass
from itertools import islice, product, repeat
from operator import add, eq, mul

from .errors import (
    BoundExceeded,
    DEFAULT_STATE_BOUND,
    DEFAULT_TERM_BOUND,
    PreconditionError,
)
from .graphs import Digraph, UndirectedGraph, bridges, cyclomatic_number, kappa


class _GroupMap:
    """What ZpMap and KleinMap share: a frozen map from record ids to the
    values of the map's `group`, of order _q. A map holds its ids and the
    code tuple over them, and builds `values`, keyed in id order, on its
    first read, as group.values[code] per id. The checked constructors of
    the subclasses build `values` from what a caller passes; _map_of
    builds a map from codes that are group codes by construction, and
    checks nothing. A map is never hashed, as its dict never was."""

    __slots__ = ("_q", "_ids", "_code", "_values")
    __hash__ = None

    def _hold(self, q: int, values: dict, codes) -> None:
        """Bind a map that a subclass constructor checked to its own dict."""
        _set_q(self, q)
        _set_ids(self, tuple(values))
        _set_code(self, tuple(codes))
        _set_values(self, values)

    @property
    def values(self) -> dict:
        try:
            return self._values
        except AttributeError:
            label = self.group.values
            values = {i: label[c] for i, c in zip(self._ids, self._code)}
            _set_values(self, values)
            return values

    def __getitem__(self, rid: str):
        return self.values[rid]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self._q != other._q:
            return False
        if self._ids == other._ids:
            return self._code == other._code
        return self.values == other.values

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle, which would set the slots
        return _map_of, (type(self), self._q, self._ids, self._code)

    @property
    def is_nowhere_zero(self) -> bool:
        return all(self._code)

    @property
    def avoids_max(self) -> bool:  # no record at the top code
        return self._q - 1 not in self._code

    def check_domain(self, g):
        if set(self._ids) != set(g.by_id):
            raise ValueError(f"map domain does not match the graph's {g.kind} set")

    def _codes(self, g) -> tuple[int, ...]:
        """The code tuple over g.sorted_ids; the domain must be g's."""
        if self._ids == g.sorted_ids:
            return self._code
        self.check_domain(g)
        code = dict(zip(self._ids, self._code))
        return tuple([code[i] for i in g.sorted_ids])


# the slot setters: __setattr__ refuses every assignment
_set_q, _set_ids, _set_code, _set_values = (
    _GroupMap.__dict__[name].__set__ for name in _GroupMap.__slots__
)


def _is_int(v) -> bool:
    """Whether v is an int and not a bool, the only values a checked map
    constructor takes."""
    return isinstance(v, int) and not isinstance(v, bool)


def _map_of(cls, q: int, ids: tuple[str, ...], codes: tuple[int, ...]):
    """The trusted constructor: the map of class cls of a code tuple over
    ids whose codes are those of a group of order q by construction.
    Nothing is checked, and `values` waits for its first read."""
    m = object.__new__(cls)
    _set_q(m, q)
    _set_ids(m, ids)
    _set_code(m, codes)
    return m


class ZpMap(_GroupMap):
    """A total assignment of Z_p values to the arcs of some digraph."""

    __slots__ = ()

    def __init__(self, p: int, values: dict[str, int]):
        if p < 2:
            raise ValueError("p must be >= 2")
        for k, v in values.items():
            if not (_is_int(v) and 0 <= v < p):
                raise ValueError(f"value {v!r} for {k!r} not in 0..{p - 1}")
        values = dict(values)
        self._hold(p, values, values.values())

    @property
    def p(self) -> int:
        return self._q

    @property
    def group(self) -> "_Group":
        return _zp(self._q)

    def __repr__(self) -> str:
        return f"ZpMap(p={self._q!r}, values={self.values!r})"

    def as_tuple(self, arc_order) -> tuple[int, ...]:
        return tuple(self.values[a] for a in arc_order)

    @classmethod
    def from_tuple(cls, p: int, arc_order, values) -> "ZpMap":
        return cls(p, dict(zip(arc_order, values)))


@dataclass(frozen=True)
class ConformalCount:
    even: int
    odd: int

    @property
    def coefficient(self) -> int:
        return self.even - self.odd


@dataclass(frozen=True)
class _Group:
    """A finite abelian group on the codes 0..q-1; q-1 is the top code.

    Code x carries the integer label[x], and the code of x - y is
    diff[label[x] - label[y]], where negative indices count from the end;
    label[neg[x]] is the label of -x. Code x stands for the public value
    values[x], and bound messages name the group by `name`.
    """

    label: Sequence[int]
    diff: Sequence[int]
    values: Sequence
    name: str
    neg: Sequence[int]

    @property
    def q(self) -> int:
        return len(self.label)


def _zp(p: int) -> _Group:
    """Z_p, the group of every Z_p route, which rejects p < 2 here. Labels
    and values are the codes, codes[x - y] is (x - y) mod p, and neg[x] is
    -x, an index from the end. Past 256 codes every sequence is a range,
    so no table of p codes is built before a route checks its bound; up to
    there tuples, which the inner loops index about twice as fast."""
    if p < 2:
        raise ValueError("p must be >= 2")
    codes, neg = range(p), range(0, -p, -1)
    if p <= 256:
        codes, neg = tuple(codes), tuple(neg)
    return _Group(codes, codes, codes, f"Z_{p}", neg)


def is_flow(g: Digraph, phi: ZpMap) -> bool:
    """Conservation at every vertex over phi's group: a ZpMap on a Digraph,
    or a KleinMap on an UndirectedGraph."""
    return _flow_test(g, phi.group)(phi._codes(g))


def is_dual_flow(g: Digraph, phi: ZpMap) -> bool:
    """Tension test via potential propagation, over phi's group."""
    return _potentials(g, phi.group)[1](phi._codes(g)) is not None


def _check_states(count: int, max_states: int | None) -> None:
    bound = DEFAULT_STATE_BOUND if max_states is None else max_states
    if count > bound:
        raise BoundExceeded(f"{count} states exceed the bound {bound}")


def _flow_test(g, group: _Group):
    """A test of whether a code tuple over g.sorted_ids conserves at every vertex."""
    stars = [s for s in g.stars.values() if s]
    label, diff, neg = group.label, group.diff, group.neg

    def test(values) -> bool:
        for star in stars:
            total = 0
            for i, sign in star:  # total += sign * values[i]
                v = values[i]
                total = diff[label[total] - label[neg[v] if sign > 0 else v]]
            if total:
                return False
        return True

    return test


def _potentials(g, group: _Group):
    """(vertices, solve): solve(values) gives the potentials of `vertices`
    when the code tuple over g.sorted_ids is a tension, and None otherwise.
    Roots get 0, each other vertex its forest parent's potential plus the
    joining record's value at the record's second end, minus it at its
    first; the records off the forest are then checked."""
    comps, steps = g.bfs
    slot = {v: k for k, v in enumerate([c[0] for c in comps] + [w for w, *_ in steps])}
    grow = [(slot[w], slot[v], i, s > 0) for w, v, i, s in steps]
    forest = {i for _, _, i, _ in steps}
    ends = [g.by_id[r].ends() for r in g.sorted_ids]
    checks = [(i, slot[h], slot[t]) for i, (t, h) in enumerate(ends) if i not in forest]
    label, diff, neg = group.label, group.diff, group.neg
    size = len(slot)

    def solve(values):
        omega = [0] * size
        for w, v, i, at_head in grow:
            x = values[i]
            omega[w] = diff[label[omega[v]] - label[neg[x] if at_head else x]]
        for i, h, t in checks:
            if diff[label[omega[h]] - label[omega[t]]] != values[i]:
                return None
        return omega

    return list(slot), solve


_BLOCK = 256  # most tuples in a block, built at once by list repetition


def _tension_forms(g) -> tuple[int, list[dict[int, int]]]:
    """(free, forms) of the tensions of g: the free codes are the
    potentials of the sorted non-root vertices, a root's being 0, and the
    form of each record is the potential at its second end minus the one
    at its first; a loop's terms cancel."""
    free = sorted(v for comp in g.bfs[0] for v in comp[1:])
    slot = {v: s for s, v in enumerate(free)}
    forms = []
    for r in g.sorted_ids:
        t, h = g.by_id[r].ends()
        form = Counter({slot.get(h): 1})
        form[slot.get(t)] -= 1
        del form[None]  # a root's potential is 0; a Counter ignores a missing key
        forms.append(form)
    return len(free), forms


def _flow_forms(g) -> tuple[int, list[dict[int, int]]]:
    """(free, forms) of the circulations of g: the free codes are those of
    the records off the forest, by ascending position. Leaves up, each
    forest record balances the others at its vertex w, free or solved:
    sign*x + sum s*y = 0 there, so x takes -sign*s*y from each other y."""
    stars, steps = g.stars, g.bfs[1]
    forest = {i for _, _, i, _ in steps}
    free = [i for i in range(len(g.sorted_ids)) if i not in forest]
    forms = {i: {s: 1} for s, i in enumerate(free)}
    for w, _, i, sign in reversed(steps):
        form = Counter()
        for j, s in stars[w]:
            if j != i:  # -sign*s*y: y's form subtracted where s = sign
                (form.subtract if s == sign else form.update)(forms[j])
        forms[i] = form
    return len(free), [forms[i] for i in range(len(g.sorted_ids))]


def _column(group: _Group, k: int, at, value, x: int) -> list:
    """value[x + c_1*d_1 + c_2*d_2 + ...] for every vector of k codes in
    lexicographic order, d_i its code at position s_i for the terms
    (s_i, labs_i) of `at`, ascending and not empty, labs_i[d] the label of
    -c_i*d. Built by list repetition: the code at position s holds for
    q^(k-1-s) rows at a time, and the run of its q values repeats q^s times."""
    q, label, diff = group.q, group.label, group.diff
    s, labs = at[0]
    rest, run = [(a - s - 1, t) for a, t in at[1:]], []
    for d in range(q):
        y = diff[label[x] - labs[d]]
        run += _column(group, k - s - 1, rest, value, y) if rest else [value[y]] * q ** (k - s - 1)
    return run * q**s


def _plan(group: _Group, free: int, forms, max_states, values):
    """(m, outer, plan) for the code tuples over `free` free codes and a
    form per record, free slot -> coefficient +-1, in blocks of m = q^k
    rows: the `outer` first free codes step once per block, the k last
    ones, q^k <= _BLOCK, run through its rows. plan holds per record
    (outs, inner, table): outs pairs the slot of each outer term with the
    labels of minus the term per code; the record's entry in a block is
    table[o], o the group sum of its outer terms, a column of m rows if
    the record has an inner term, else one value for every row. The
    entry of a row is values[i][code], i the record's position."""
    q, label = group.q, group.label
    _check_states(q**free, max_states)
    k = max(k for k in range(free + 1) if q**k <= _BLOCK)
    outer = free - k
    # labels of -d per code d; none built at a huge q with no free code to read them
    minus = {-1: label, 1: [label[x] for x in group.neg] if free else ()}
    plan = []
    for form, value in zip(forms, values):
        terms = sorted((s, minus[c]) for s, c in form.items() if c)
        outs = [(s, labs) for s, labs in terms if s < outer]
        ins = [(s - outer, labs) for s, labs in terms if s >= outer]
        sums = range(q) if outs else (0,)
        table = [_column(group, k, ins, value, o) if ins else value[o] for o in sums]
        plan.append((outs, bool(ins), table))
    return q**k, outer, plan


def _entries(group: _Group, outer: int, plan):
    """Per block, in odometer order over the outer codes, the last
    fastest, the entry table[o] of each record of plan."""
    label, diff = group.label, group.diff
    for od in product(range(group.q), repeat=outer):
        entries = []
        for outs, _, table in plan:
            o = 0
            for s, labs in outs:
                o = diff[label[o] - labs[od[s]]]
            entries.append(table[o])
        yield entries


def _rows(group: _Group, free: int, forms, max_states):
    """The code tuples of a space of _plan, lexicographic over the free
    codes, the last fastest: the rows of each block."""
    m, outer, plan = _plan(group, free, forms, max_states, [range(group.q)] * len(forms))
    for entries in _entries(group, outer, plan):
        columns = [e if inner else repeat(e, m) for (_, inner, _), e in zip(plan, entries)]
        yield from zip(*columns) if columns else repeat((), m)


def _blocks(group: _Group, free: int, forms, max_states):
    """The code tuples of _rows in its order, a block at a time, each
    packed as key + q^n*mask, its packed key and hot set as in the module
    doc: the sum of one entry per record. The records with no outer term
    are summed once; a block adds the others. Blocks are read-only: one
    list may be yielded for several blocks."""
    q, n = group.q, len(forms)
    top, unit = q - 1, q**n
    values = (  # read by the plan once the state bound is checked
        [w * c for c in range(top)] + [w * top + (unit << i)]
        for i, w in enumerate(_weights(n, q))
    )
    m, outer, plan = _plan(group, free, forms, max_states, values)
    fixed, base, columns, constants = [0] * m, 0, [], []
    for outs, inner, t in plan:
        if outs:
            (columns if inner else constants).append((outs, inner, t))
        elif inner:
            fixed = list(map(add, fixed, t[0]))
        else:
            base += t[0]
    cut = len(columns)
    for entries in _entries(group, outer, columns + constants):
        block = fixed
        for column in entries[:cut]:
            block = list(map(add, block, column))
        c = base + sum(entries[cut:])
        yield [x + c for x in block] if c else block


def _tensions(g, group: _Group, max_states):
    """Tension code tuples over g.sorted_ids: _rows of _tension_forms."""
    return _rows(group, *_tension_forms(g), max_states)


def _circulations(g, group: _Group, max_states):
    """Flow code tuples over g.sorted_ids: _rows of _flow_forms."""
    return _rows(group, *_flow_forms(g), max_states)


def _nz_flow(g, group: _Group, max_states) -> tuple[int, ...] | None:
    """The first nowhere-zero flow code tuple of _circulations, or None."""
    return next((values for values in _circulations(g, group, max_states) if all(values)), None)


def enumerate_flows(g: Digraph, p: int, max_states: int | None = None) -> list[ZpMap]:
    """All p^(|E|-|V|+kappa) flows: free values on non-forest arcs, forest
    arcs solved bottom-up. Deterministic lexicographic order."""
    ids = g.sorted_arc_ids
    return [_map_of(ZpMap, p, ids, v) for v in _circulations(g, _zp(p), max_states)]


def enumerate_dual_flows(g: Digraph, p: int, max_states: int | None = None) -> list[ZpMap]:
    """All p^(|V|-kappa) tensions, via potentials with component roots
    pinned to zero. Deterministic lexicographic order over free vertices."""
    ids = g.sorted_arc_ids
    return [_map_of(ZpMap, p, ids, v) for v in _tensions(g, _zp(p), max_states)]


def _count_by_subsets(base: tuple[int, ...], top: int, test, max_states) -> tuple[int, int]:
    """(even, odd) counts of the subsets of base raised to top that pass the test."""
    _check_states(2 ** len(base), max_states)
    counts = [0, 0]
    for mask in product((False, True), repeat=len(base)):
        if test([top if hot else v for v, hot in zip(base, mask)]):
            counts[sum(mask) % 2] += 1
    return counts[0], counts[1]


def _count_conformal(tuples, psis, top: int) -> list[tuple[int, int]]:
    """(even, odd) counts of the code tuples equal to psi off their top codes, per psi."""
    counts = [[0, 0] for _ in psis]
    for values in tuples:
        hot = values.count(top)
        for psi, c in zip(psis, counts):
            if sum(map(eq, values, psi)) + hot == len(psi):
                c[hot % 2] += 1
    return [(even, odd) for even, odd in counts]


def _conformal_counts(
    g, p: int, psis, dual: bool, method: str, max_states
) -> list[tuple[int, int]]:
    """(even, odd) counts of the psi-conformal tensions (dual) or flows of g
    for each psi code tuple in psis, by the methods of the public counters;
    the enumeration runs once for all the psis."""
    group, full = _zp(p), "tension" if dual else "flow"
    if method == "auto":
        method = "subset" if 2 ** len(g.sorted_ids) < p ** _rank(g, dual) else full
    if method == "subset":
        if dual:
            solve = _potentials(g, group)[1]
            test = lambda v: solve(v) is not None
        else:
            test = _flow_test(g, group)
        return [_count_by_subsets(psi, p - 1, test, max_states) for psi in psis]
    if method == full:
        # per piece, then convolved: the parities of the pieces add up
        _check_states(p ** _rank(g, dual), max_states)
        counts = [(1, 0)] * len(psis)
        for h, at in _split(g):
            maps = (_tensions if dual else _circulations)(h, group, max_states)
            part = _count_conformal(maps, [[psi[i] for i in at] for psi in psis], p - 1)
            counts = [(e * e2 + o * o2, e * o2 + o * e2) for (e, o), (e2, o2) in zip(counts, part)]
        return counts
    raise ValueError(f"unknown method {method!r}")


def count_conformal_dual_flows(
    g: Digraph, psi: ZpMap, p: int, method: str = "auto", max_states: int | None = None
) -> ConformalCount:
    """Counts of even and odd psi-conformal dual p-flows.

    method: "subset" tries all 2^|E| ways of raising arcs to p-1,
    "tension" filters the full tension enumeration, "auto" picks the
    cheaper. The two must agree; tests quantify over both.
    """
    psis = [_psi_codes(g, psi, p)]
    return ConformalCount(*_conformal_counts(g, p, psis, True, method, max_states)[0])


def count_conformal_flows(
    g: Digraph, psi: ZpMap, p: int, method: str = "auto", max_states: int | None = None
) -> ConformalCount:
    """Counts of even and odd psi-conformal p-flows (not dual); method
    "flow" filters the full flow enumeration."""
    psis = [_psi_codes(g, psi, p)]
    return ConformalCount(*_conformal_counts(g, p, psis, False, method, max_states)[0])


def _psi_codes(g: Digraph, psi: ZpMap, p: int) -> tuple[int, ...]:
    """psi's code tuple, once psi is checked to be a nowhere-(p-1) map on g."""
    if psi.p != p:
        raise ValueError("psi modulus does not match p")
    codes = psi._codes(g)
    if not psi.avoids_max:
        raise ValueError("psi must avoid the maximal label p-1")
    return codes


def _weights(n: int, r: int) -> list[int]:
    """Key weights of n radix-r digits, the first the most significant, so
    that integer key order is the lexicographic order of the digit vectors."""
    return [r ** (n - 1 - i) for i in range(n)]


_CHUNK = 4096  # most entries of one look-up table, and keys per batch


def _chunk_tables(n: int, r: int, cell, count: int) -> list[tuple[int, int, list]]:
    """Look-up tables for the digits of n-digit radix-r keys with the
    weights of _weights. The positions split into runs of near-equal width,
    each tabulating at most _CHUNK digit patterns, and past one digit
    no more than the `count` keys to convert. A run's (weight, size, table)
    has table[key // weight % size] = cell(start, digits), for the run's
    digits from position start on."""
    limit = min(_CHUNK, count)
    width = 1
    while width < n and r ** (width + 1) <= limit:
        width += 1
    runs = -(-n // width)
    tables, start = [], 0
    for left in range(runs, 0, -1):
        w = -(-(n - start) // left)
        cells = [cell(start, digits) for digits in product(range(r), repeat=w)]
        tables.append((r ** (n - start - w), r**w, cells))
        start += w
    return tables or [(1, 1, [cell(0, ())])]


def _convert(keys, tables, op=add):
    """For each key, in order, its cells of _chunk_tables combined with op,
    converted _CHUNK keys at a time."""
    (w, m, cells), *rest = tables
    keys = iter(keys)
    while batch := list(islice(keys, _CHUNK)):
        out = [cells[k // w % m] for k in batch]
        for w2, m2, cells2 in rest:
            out = list(map(op, out, [cells2[k // w2 % m2] for k in batch]))
        yield from out


def _sweep_order(g):
    """The positions of g.sorted_ids in the order _sweep takes them: every
    bridge of the records not yet swept, by ascending position, then the
    first record left, and again. Removing a bridge leaves the other
    bridges as they were, so each search for bridges is followed by one
    non-bridge, at most cyclomatic number + 1 searches in all. A
    generator: nothing is searched until the sweep asks for its first
    position."""
    ids = g.sorted_ids
    left = list(range(len(ids)))
    while left:
        cut = bridges(type(g)(g.vertices, tuple(g.by_id[ids[i]] for i in left)))
        yield from (i for i in left if ids[i] in cut)
        left = [i for i in left if ids[i] not in cut]
        if left:
            yield left.pop(0)


def _packed_counts(blocks, n: int, q: int, max_work: int | None, scale: int = 1):
    """(counts, work): maps over n positions counted by their packed
    values, key + q^n*mask as _blocks yields them, and the work, the sum of
    the box of each map, (q-1)^|hot| conformal psi. The work bound holds
    the work times scale, the work of the pieces counted before, and is
    checked for every block before the block is counted."""
    bound = DEFAULT_TERM_BOUND if max_work is None else max_work
    box = [(q - 1) ** h for h in range(n + 1)]
    unit = q**n
    acc = Counter()
    work = 0
    for block in blocks:
        work += sum([box[(x // unit).bit_count()] for x in block])
        if work * scale > bound:
            raise BoundExceeded(f"conformal aggregation exceeds {bound} steps")
        acc.update(block)
    return acc, work


def _sweep(g, owned: list[dict[int, int]], q: int) -> dict[int, int]:
    """The top code swept out of the packed counts over g.sorted_ids, in
    the order of _sweep_order(g), until no entry is left. The counts are
    grouped by hot set, the mask above q^n in each packed value, and each
    step spreads only the groups whose mask holds its position, into the
    group without that bit. The table is what is left in group 0, whose
    packed values are the keys.
    The counts come as the one item of `owned`, which the sweep takes
    out, so once they are grouped no reference is left and they are
    freed. A caller's argument of its own would not do: CPython 3.10
    keeps the caller's reference to each argument until the call
    returns. The counts are read, not changed."""
    acc = owned.pop()
    n, top = len(g.sorted_ids), q - 1
    unit, weights = q**n, _weights(n, q)
    groups = defaultdict(dict)
    for x, c in acc.items():
        groups[x // unit][x] = c
    del acc
    for i in _sweep_order(g):
        bit, w, drop = 1 << i, weights[i], unit << i
        for mask in [m for m in groups if m & bit]:
            # top at i to the digits below it: the hot set loses bit i
            into = groups[mask ^ bit]
            _spread(into, groups.pop(mask).items(), w, drop + top * w, drop)
            if not into:
                del groups[mask ^ bit]
        if not groups:
            break  # every entry cancelled: no later position is drawn
    return groups.get(0, {})


def _spread(into: dict[int, int], hot, w: int, lo: int, hi: int) -> None:
    """Each (key, c) of hot adds -c at key - lo, key - lo + w, ... up to,
    not including, key - hi; an entry of `into` that reaches 0 goes. The
    sweep takes lo - hi = (q-1)*w, so the targets are the key with each
    code below the top at the digit of weight w, and hi the bit of that
    position in the hot set times q^n, which clears."""
    get = into.get
    for key, c in hot:
        for k in range(key - lo, key - hi, w):
            x = get(k, 0) - c
            if x:
                into[k] = x
            else:
                del into[k]


def _rank(g, dual: bool) -> int:
    """The number of free codes of the tensions (dual) or circulations of
    g: the space has q^rank maps."""
    return len(g.vertices) - kappa(g) if dual else cyclomatic_number(g)


def _split(g) -> list:
    """(h, at) per 2-connected piece of g, in the order of g.pieces: h the
    piece as a graph of g's kind, its records and their ends, and at the
    positions of its records in g.sorted_ids. A graph of at most one piece
    is its own, with no sub-graph built."""
    if len(g.pieces) <= 1:
        return [(g, range(len(g.sorted_ids)))]
    ids, by_id, parts = g.sorted_ids, g.by_id, []
    for at in g.pieces:
        records = tuple([by_id[ids[i]] for i in at])
        parts.append((type(g)(frozenset([w for r in records for w in r.ends()]), records), at))
    return parts


def _piece_counts(g, group: _Group, dual: bool, max_states) -> tuple[list, list]:
    """(parts, counts): the pieces of _split(g) and, per piece, its
    tensions (dual) or circulations over the group counted by
    _packed_counts, alone in a list for _sweep to take. Every bound keeps
    its whole-graph meaning: the state bound is checked on q^rank of g
    before anything is built, and on q itself when g has a record, whose
    packed values _blocks lists; the work bound is checked on the product
    of the pieces' work, which is g's, as each piece is counted; every
    piece is counted before the caller reads any."""
    q = group.q
    _check_states(q ** max(_rank(g, dual), 1 if g.sorted_ids else 0), max_states)
    parts, counts, work = _split(g), [], 1
    for h, _ in parts:
        blocks = _blocks(group, *(_tension_forms if dual else _flow_forms)(h), max_states)
        acc, w = _packed_counts(blocks, len(h.sorted_ids), q, max_states, work)
        counts.append([acc])
        work *= w
    return parts, counts


def _cheapest_first(counts) -> list[int]:
    """The pieces of _piece_counts, fewest counted values first."""
    return sorted(range(len(counts)), key=lambda j: len(counts[j][0]))


def _product(g, parts, tables, q: int) -> dict[int, int]:
    """The packed table of g from the tables of its pieces: every circuit
    lies in one piece, so each space is the direct sum of the pieces' and
    c(psi) is the product of the pieces' c at psi's codes on their records.
    Each piece's keys move to g's positions through _chunk_tables, and the
    keys of a product add, as their digits do not overlap."""
    if len(parts) == 1:
        return tables[0]
    weights, acc = _weights(len(g.sorted_ids), q), {0: 1}
    for (_, at), table in zip(parts, tables):
        cell = lambda start, digits, at=at: sum(
            [d * weights[at[start + j]] for j, d in enumerate(digits)]
        )
        keys = _convert(table, _chunk_tables(len(at), q, cell, len(table)))
        moved = list(zip(keys, table.values()))
        acc = {k + x: c * v for k, c in acc.items() for x, v in moved}
    return acc


def _conformal_sums(g, group: _Group, dual: bool, max_states) -> dict[int, int]:
    """The packed table c(psi) of the tensions (dual) or circulations of g
    over the group: each map adds (-1)^|hot| at every psi agreeing with it
    off its top codes. Per piece the maps are counted, then the top code is
    swept out, the pieces with the fewest counts first; the table is the
    product of the pieces' tables, empty as soon as one piece's is."""
    parts, counts = _piece_counts(g, group, dual, max_states)
    tables = [None] * len(parts)
    for j in _cheapest_first(counts):
        tables[j] = _sweep(parts[j][0], counts[j], group.q)
        if not tables[j]:
            return {}
    return _product(g, parts, tables, group.q)


_P = 2**61 - 1  # a Mersenne prime, the modulus of the certificate
_MASK = 2**64 - 1


def _certificate_weights(n: int, q: int) -> list[list[int]]:
    """Per position e of n, the weights a_e(0..q-1) mod _P: below the top
    code, a_e(d) is output k+1 of splitmix64 from seed 0 (Steele, Lea and
    Flood, OOPSLA 2014) for k = q*e + d, and a_e(q-1) is minus their sum,
    so every row sums to 0."""
    rows = []
    for e in range(n):
        row = []
        for k in range(q * e, q * e + q - 1):
            z = (k + 1) * 0x9E3779B97F4A7C15 & _MASK
            z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK
            z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK
            row.append((z ^ z >> 31) % _P)
        rows.append(row + [-sum(row) % _P])
    return rows


def _certificate(acc: dict[int, int], n: int, q: int) -> int:
    """S = sum over the packed counts acc of n-digit base-q keys of
    count * prod_e a_e(digit_e), mod _P; see the module doc."""
    rows = _certificate_weights(n, q)

    def cell(start, digits):
        x = 1
        for row, d in zip(rows[start:], digits):
            x = x * row[d] % _P
        return x

    cells = _convert(acc, _chunk_tables(n, q, cell, len(acc)), mul)
    return sum(map(mul, cells, acc.values())) % _P


def _has_conformal_entry(g, group: _Group, max_states) -> bool:
    """Whether the tension table of g over the group has a nonzero entry,
    that is whether every piece's table has: yes for a piece on a nonzero
    certificate, else the answer of its sweep, the pieces with the fewest
    counts first. A bridge's certificate reads 0, as each weight row sums
    to 0, and its sweep cancels its q tensions."""
    q = group.q
    parts, counts = _piece_counts(g, group, True, max_states)
    for j in _cheapest_first(counts):
        h = parts[j][0]
        if not _certificate(counts[j][0], len(h.sorted_ids), q) and not _sweep(h, counts[j], q):
            return False
    return True


class _Packed:
    """Packed key -> value over the sorted ids `_ids`: the base-`_q`
    integer of one code per id at the weights of _weights, so key order is
    the lexicographic order of the code tuples. A conformal table and a
    normal form are this object; see the module doc."""

    def __init__(self, ids: tuple[str, ...], q: int, packed: dict[int, int]):
        self._ids, self._q, self._packed = ids, q, packed

    def __len__(self) -> int:
        return len(self._packed)

    def _decode(self, values) -> dict[tuple, int]:
        """The keys back to tuples of values[code]."""
        cell = lambda start, digits: tuple([values[d] for d in digits])
        tables = _chunk_tables(len(self._ids), self._q, cell, len(self._packed))
        return dict(zip(_convert(self._packed, tables), self._packed.values()))

    def text_batches(self, frag, descending: bool = False):
        """(coefficients, texts) per batch of keys in key order, read off
        the packed keys: a text joins frag(id, code) over every id."""
        frags = [[frag(i, k) for k in range(self._q)] for i in self._ids]
        cell = lambda start, digits: "".join([frags[start + j][d] for j, d in enumerate(digits)])
        tables = _chunk_tables(len(frags), self._q, cell, len(self._packed))
        keys = sorted(self._packed, reverse=descending)
        for i in range(0, len(keys), _CHUNK):
            batch = keys[i : i + _CHUNK]
            yield [self._packed[k] for k in batch], _convert(batch, tables)


class ConformalTable(_Packed, Mapping):
    """c(psi) for every psi with a nonzero value, keyed by psi's value tuple
    over `ids`: a read-only mapping on the packed keys of _conformal_sums,
    code k standing for code_values[k]. Lookups decode the keys once; len,
    values() and the writers of formats read them packed."""

    def __init__(self, ids: tuple[str, ...], code_values: Sequence, packed: dict[int, int]):
        super().__init__(ids, len(code_values), packed)
        self.code_values = code_values
        self._decoded = None

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids

    def _table(self) -> dict[tuple, int]:
        if self._decoded is None:
            self._decoded = self._decode(self.code_values)
        return self._decoded

    def __getitem__(self, psi: tuple) -> int:
        return self._table()[psi]

    def __iter__(self):
        return iter(self._table())

    def values(self):
        return self._packed.values()

    def __repr__(self) -> str:
        return f"ConformalTable({self._table()!r})"


def _tension_sums(g, group: _Group, max_states) -> dict[int, int]:
    """The packed conformal table of the tensions of g over the group."""
    return _conformal_sums(g, group, True, max_states)


def coefficient_table(g: Digraph, p: int, max_states: int | None = None) -> ConformalTable:
    """c(psi) for every psi with a nonzero value, keyed by the psi value
    tuple over g.sorted_arc_ids.

    Every tension contributes its sign to each psi that agrees with it off
    the arcs carrying p-1 (those arcs range freely over 0..p-2).
    """
    group = _zp(p)
    return ConformalTable(g.sorted_arc_ids, group.values, _tension_sums(g, group, max_states))


def flow_conformal_table(
    g: Digraph, p: int, max_states: int | None = None
) -> ConformalTable:
    """Like coefficient_table but aggregated over flows instead of
    tensions; used by the plane-duality report."""
    group = _zp(p)
    acc = _conformal_sums(g, group, False, max_states)
    return ConformalTable(g.sorted_arc_ids, group.values, acc)


def find_nz_flow(g: Digraph, p: int, max_states: int | None = None) -> ZpMap | None:
    """Brute-force witness search: the first nowhere-zero flow in the order
    of enumerate_flows."""
    values = _nz_flow(g, _zp(p), max_states)
    return None if values is None else _map_of(ZpMap, p, g.sorted_arc_ids, values)


def has_nz_flow_brute(g: Digraph, p: int, max_states: int | None = None) -> bool:
    return _nz_flow(g, _zp(p), max_states) is not None


def has_nz_flow_conformal(g: Digraph, p: int, max_states: int | None = None) -> bool:
    """Existence via conformal parity: some psi must have an even/odd
    imbalance among its conformal tensions. Decided on the packed counts of
    the tensions: by the certificate when it is nonzero, else by the sweep;
    no table is decoded."""
    return _has_conformal_entry(g, _zp(p), max_states)


def coloring_from_dual_flow(g: Digraph, phi: ZpMap) -> dict[str, int]:
    """Vertex potentials of a nowhere-zero tension form a proper coloring.

    Roots get 0 and omega(head) - omega(tail) = phi(e) holds on every arc.
    """
    codes = phi._codes(g)
    if not all(codes):
        raise PreconditionError("the map has a zero arc")
    vertices, solve = _potentials(g, phi.group)
    omega = solve(codes)
    if omega is None:
        raise PreconditionError("the map is not a dual flow")
    return dict(zip(vertices, omega))


def is_p_colorable(g: UndirectedGraph, p: int, max_states: int | None = None) -> bool:
    """Exhaustive proper-coloring search (backtracking over sorted
    vertices). Loops make a graph uncolorable."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if any(e.is_loop for e in g.edges):
        return False
    _check_states(p ** len(g.vertices), max_states)
    verts = g.sorted_vertices
    adj = g.simple_adjacency()
    color: dict[str, int] = {}

    def extend(i: int) -> bool:
        if i == len(verts):
            return True
        v = verts[i]
        for c in range(p):
            if all(color.get(w) != c for w in adj[v]):
                color[v] = c
                if extend(i + 1):
                    return True
                del color[v]
        return False

    return extend(0)
