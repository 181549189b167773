from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from families import (
    all_connected_multigraphs,
    complete,
    default_orientation,
    diamond,
    directed_cycle,
    disjoint_union,
    example_graph,
    path,
    small_multigraphs,
    triangle,
)
from flowpoly.cyclotomic import CyclotomicInt, cyclotomic_eval, cyclotomic_polynomial
from flowpoly.errors import BoundExceeded
from flowpoly.formats import load_graph
from flowpoly.flows import ZpMap, _circulations, _zp, coefficient_table, is_flow
from flowpoly.fourflow import (
    conformal_pair_normal_form,
    four_flow_coefficient_table,
    four_flow_polynomial_normal_form,
    xvar,
    yvar,
)
from flowpoly.graphs import Digraph, kappa, orient
from flowpoly.polynomials import Poly
from flowpoly.quotient import (
    QuotientPoly,
    _evaluator,
    conformal_normal_form,
    flow_poly_eval,
    flow_polynomial_normal_form,
    flow_polynomial_raw,
    has_nz_flow_membership,
    normalize,
    surplus_eval,
)

X = Poly.variable


class TestPolyCore:
    def test_ring_smoke(self):
        x, y = X("x"), X("y")
        assert (x + y) * (x - y) == x * x - y * y
        assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1
        assert x - x == Poly.zero()
        assert Poly.constant(0).is_zero


class TestCyclotomic:
    def test_polynomials(self):
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_product_over_divisors(self):
        # z^n - 1 factors into the cyclotomics of the divisors of n
        from flowpoly.cyclotomic import _poly_mul

        for n in range(2, 13):
            prod_poly = (1,)
            for d in range(1, n + 1):
                if n % d == 0:
                    prod_poly = _poly_mul(prod_poly, cyclotomic_polynomial(d))
            expect = tuple([-1] + [0] * (n - 1) + [1])
            assert prod_poly == expect

    def test_root_of_unity(self):
        for p in range(2, 11):
            rho = CyclotomicInt.root_power(p, 1)
            power = CyclotomicInt.one(p)
            for _ in range(p):
                power = power * rho
            assert power == CyclotomicInt.one(p)

    def test_geometric_sums_vanish(self):
        # 1 + rho^k + rho^2k + ... + rho^(p-1)k = 0 for every k in 1..p-1,
        # including non-primitive powers for composite p
        for p in range(2, 11):
            for k in range(1, p):
                total = CyclotomicInt.zero(p)
                for i in range(p):
                    total = total + CyclotomicInt.root_power(p, k * i)
                assert total.is_zero, (p, k)

    def test_as_int(self):
        assert CyclotomicInt.from_int(5, 9).as_int() == 9
        assert CyclotomicInt.root_power(5, 1).as_int() is None
        assert CyclotomicInt.root_power(2, 1).as_int() == -1


class TestReducePower:
    """normalize on a single power x^r."""

    def test_p3(self):
        assert normalize(X("x", 3), 3, ("x",)).poly == Poly.one()
        assert normalize(X("x", 5), 3, ("x",)).poly == -1 - X("x")
        assert normalize(X("x", 1), 3, ("x",)).poly == X("x")

    def test_p2(self):
        assert normalize(X("x", 1), 2, ("x",)).poly == Poly.constant(-1)
        assert normalize(X("x", 6), 2, ("x",)).poly == Poly.one()

    def test_p5(self):
        assert normalize(X("a", 9), 5, ("a",)).poly == -(
            1 + X("a") + X("a") ** 2 + X("a") ** 3
        )


class TestNormalize:
    def test_xp_minus_one(self):
        for p in (2, 3, 4, 5):
            f = X("x") ** p - 1
            assert normalize(f, p).is_zero

    def test_generator_reduces_to_zero(self):
        f = 1 + X("x") + X("x") ** 2
        assert normalize(f, 3).is_zero

    def test_worked_example_expansion(self):
        raw = flow_polynomial_raw(example_graph(), 3)
        nf = normalize(raw, 3)
        x1, x2, x3 = X("e1"), X("e2"), X("e3")
        assert nf.poly == 3 * (x1 * x2 - x1 * x3 + x2 * x3 + x2 + 1)

    def test_not_in_ideal(self):
        assert not normalize(Poly.one(), 3).is_zero
        assert not normalize(flow_polynomial_raw(example_graph(), 3), 3).is_zero


small_polys = st.builds(
    lambda terms: Poly.from_terms(
        ({"x": ex, "y": ey, "z": ez}, c) for (ex, ey, ez, c) in terms
    ),
    st.lists(
        st.tuples(
            st.integers(0, 6),
            st.integers(0, 6),
            st.integers(0, 6),
            st.integers(-4, 4),
        ),
        max_size=5,
    ),
)


class TestNormalFormIdentities:
    @given(f=small_polys, g=small_polys, p=st.sampled_from((2, 3, 4, 5)))
    @settings(max_examples=60, deadline=None)
    def test_linear(self, f, g, p):
        left = normalize(f + g, p).poly
        right = normalize(f, p).poly + normalize(g, p).poly
        assert left == right

    @given(f=small_polys, g=small_polys, p=st.sampled_from((2, 3, 4, 5)))
    @settings(max_examples=60, deadline=None)
    def test_multiplicative(self, f, g, p):
        left = normalize(f * g, p).poly
        right = normalize(normalize(f, p).poly * normalize(g, p).poly, p).poly
        assert left == right

    @given(f=small_polys, p=st.sampled_from((2, 3, 4, 5)))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, f, p):
        once = normalize(f, p).poly
        assert normalize(once, p).poly == once

    @given(f=small_polys, p=st.sampled_from((2, 3, 4)))
    @settings(max_examples=40, deadline=None)
    def test_zero_set_soundness(self, f, p):
        # membership in the ideal is exactly vanishing on the whole zero
        # set, every variable at every nontrivial p-th root of unity
        vanishes = all(
            cyclotomic_eval(
                f, {"x": kx, "y": ky, "z": kz}, p
            ).is_zero
            for kx in range(1, p)
            for ky in range(1, p)
            for kz in range(1, p)
        )
        assert vanishes == normalize(f, p).is_zero


class TestFlowPolynomial:
    def test_worked_example_raw_monomials(self):
        raw = flow_polynomial_raw(example_graph(), 3)
        expect = {
            (6, 6, 6), (5, 4, 5), (4, 5, 4), (4, 2, 4), (3, 3, 3),
            (2, 4, 2), (2, 1, 2), (1, 2, 1), (0, 0, 0),
        }
        got = set()
        for mono, coeff in raw.items():
            assert coeff == 1
            exps = dict(mono)
            got.add((exps.get("e1", 0), exps.get("e2", 0), exps.get("e3", 0)))
        assert got == expect

    def test_worked_example_normal_form(self):
        nf = flow_polynomial_normal_form(example_graph(), 3)
        x1, x2, x3 = X("e1"), X("e2"), X("e3")
        assert nf.poly == 3 * (x1 * x2 - x1 * x3 + x2 * x3 + x2 + 1)

    def test_edgeless_vertex(self):
        g = Digraph(frozenset({"v"}), ())
        for p in (2, 3, 7):
            assert flow_polynomial_normal_form(g, p).poly == Poly.constant(p)

    def test_single_arc_p2_routes_agree(self):
        # a bridge admits no nowhere-zero flow, so whatever the literal
        # value is, both routes must produce it and it must be zero here
        g = Digraph.build([("e1", "u", "v")])
        nf = flow_polynomial_normal_form(g, 2)
        assert nf == conformal_normal_form(g, 2)
        assert nf.is_zero

    def test_membership_examples(self):
        assert has_nz_flow_membership(example_graph(), 3)
        g = Digraph.build([("e1", "u", "v")])
        for p in (2, 3, 4, 5):
            assert not has_nz_flow_membership(g, p)
        assert has_nz_flow_membership(directed_cycle(3), 2)


class TestFoldAgainstRawExpansion:
    @given(g=small_multigraphs(), p=st.sampled_from((2, 3, 4, 5)))
    @settings(max_examples=120, deadline=None)
    def test_fold_matches_normalized_raw(self, g, p):
        # at p=2 the one basic digit is 0, so every packed key is 0
        assert flow_polynomial_normal_form(g, p) == normalize(
            flow_polynomial_raw(g, p), p
        )

    @given(g=small_multigraphs(), p=st.sampled_from((2, 3, 4, 5)))
    @settings(max_examples=120, deadline=None)
    def test_membership_decides_on_the_packed_keys(self, g, p):
        assert has_nz_flow_membership(g, p) == (
            not flow_polynomial_normal_form(g, p).is_zero
        )


class TestFoldStopsWhenEmpty:
    def test_petersen_at_z3_folds_six_vertices_of_nine(self, corpus_dir):
        # the accumulator is empty after the sixth vertex of the order. The
        # fold reads each star once to choose its order, then once per
        # vertex it folds
        g = load_graph(corpus_dir / "petersen.g").as_digraph()
        g.bfs  # its search reads the stars too
        reads = []

        class Stars(dict):
            def __getitem__(self, v):
                reads.append(v)
                return super().__getitem__(v)

        g.__dict__["stars"] = Stars(g.stars)
        assert flow_polynomial_normal_form(g, 3).is_zero
        order = reads[:9]
        assert reads[9:] == order[:6]


class TestNormalFormBound:
    def test_message_names_stage_and_progress(self):
        g = default_orientation(complete(4))
        with pytest.raises(BoundExceeded) as err:
            flow_polynomial_normal_form(g, 4, max_terms=200)
        assert str(err.value) == "Z_4 normal form exceeds 200 terms at vertex 3 of 3"

    def test_expansion_checked_before_it_is_built(self):
        # one arc leaving a vertex at p=10**6 would expand to 999999 terms
        g = Digraph.build([("e1", "u", "v"), ("e2", "v", "u")])
        with pytest.raises(BoundExceeded, match="vertex 1 of 1: one term expands"):
            flow_polynomial_normal_form(g, 10**6, max_terms=100)

    def test_membership_propagates(self):
        with pytest.raises(BoundExceeded):
            has_nz_flow_membership(default_orientation(complete(4)), 5, max_terms=10)

    def test_frontier_order_stays_under_the_bound(self):
        # the diamond's accumulator peaks at 210 terms when all four vertices
        # fold by most arcs first, at 180 when three do, and at the final 176
        # in frontier order
        g = default_orientation(diamond())
        assert len(flow_polynomial_normal_form(g, 4, max_terms=176).poly) == 176


class TestQuotientPolyChecks:
    def test_variable_outside_the_arcs(self):
        with pytest.raises(ValueError, match="outside the arc universe"):
            QuotientPoly(3, ("a",), Poly.variable("b"))

    @pytest.mark.parametrize("exp", [0, 2, 3])
    def test_exponent_outside_the_basis(self, exp):
        # p=3 allows exponent 1 only; Poly takes the zero exponent unchecked
        with pytest.raises(ValueError, match=rf"exponent {exp} of 'a' not in 1\.\.1"):
            QuotientPoly(3, ("a",), Poly({(("a", exp),): 1}))

    @pytest.mark.parametrize("p", [0, 1])
    def test_p_below_two(self, p):
        # p is checked first: with p < 2 no exponent is in range, so an
        # exponent check run first would name the wrong fault
        for poly in (Poly.one(), Poly.variable("a")):
            with pytest.raises(ValueError, match=r"^p must be >= 2$"):
                QuotientPoly(p, ("a",), poly)


class TestPackedNormalForms:
    @given(g=small_multigraphs(), h=small_multigraphs(), p=st.sampled_from((2, 3, 4, 5)))
    @settings(max_examples=120, deadline=None)
    def test_equality_and_hash_match_the_polynomials(self, g, h, p):
        nf = flow_polynomial_normal_form(g, p)
        forms = [nf, conformal_normal_form(g, p), flow_polynomial_normal_form(h, p)]
        forms.append(QuotientPoly(p, nf.arcs, nf.poly))
        # the same packed keys over other arc ids
        renamed = Digraph.build([("f" + a.id, a.tail, a.head) for a in g.arcs], g.vertices)
        forms.append(flow_polynomial_normal_form(renamed, p))
        for f1, f2 in product(forms, repeat=2):
            assert (f1 == f2) == (f1.poly == f2.poly)
            if f1 == f2:
                assert hash(f1) == hash(f2)


class TestConformalFormIsTheTableScaled:
    @given(g=small_multigraphs(), group=st.sampled_from((2, 3, 4, 5, "Klein")))
    @settings(max_examples=200, deadline=None)
    def test_the_two_decoders_agree(self, g, group):
        # the table decodes its keys by lookup, the form through .poly: at
        # psi's basic monomial the form holds q^kappa c(psi) and nothing else
        if group == "Klein":
            g, q = g.underlying(), 4
            table = four_flow_coefficient_table(g)
            form, fold = conformal_pair_normal_form(g), four_flow_polynomial_normal_form(g)
            monomial = lambda psi: {
                v: 1 for e, (a, b) in zip(table.ids, psi) for v, bit in ((xvar(e), a), (yvar(e), b)) if bit
            }
        else:
            q = group
            table = coefficient_table(g, q)
            form, fold = conformal_normal_form(g, q), flow_polynomial_normal_form(g, q)
            monomial = lambda psi: dict(zip(table.ids, psi))
        poly = form.poly
        assert len(poly) == len(table)
        for psi in table:
            assert poly.coefficient(monomial(psi)) == q ** kappa(g) * table[psi]
        assert form == fold


class TestEvaluation:
    def test_worked_example_values(self):
        g = example_graph()
        raw = flow_polynomial_raw(g, 3)
        good = cyclotomic_eval(raw, {"e1": 1, "e2": 2, "e3": 1}, 3)
        assert good.as_int() == 9
        bad = cyclotomic_eval(raw, {"e1": 1, "e2": 1, "e3": 1}, 3)
        assert bad.as_int() == 0

    def test_constant(self):
        f = Poly.constant(42)
        assert cyclotomic_eval(f, {}, 5).as_int() == 42

    def test_surplus_eval(self):
        g = example_graph()
        assert surplus_eval(g, ZpMap(3, {"e1": 1, "e2": 2, "e3": 1})) == 9
        assert surplus_eval(g, ZpMap(3, {"e1": 1, "e2": 1, "e3": 1})) == 0
        lone = Digraph(frozenset({"v"}), ())
        assert surplus_eval(lone, ZpMap(3, {})) == 3

    def test_surplus_eval_rejects_zero(self):
        from flowpoly.errors import PreconditionError

        with pytest.raises(PreconditionError):
            surplus_eval(example_graph(), ZpMap(3, {"e1": 0, "e2": 1, "e3": 1}))

    def test_factored_eval_matches_raw(self):
        for g in all_connected_multigraphs(4):
            d = default_orientation(g)
            for p in (2, 3):
                raw = flow_polynomial_raw(d, p)
                ids = d.sorted_arc_ids
                for combo in product(range(1, p), repeat=len(ids)):
                    assignment = dict(zip(ids, combo))
                    assert flow_poly_eval(d, assignment, p) == cyclotomic_eval(
                        raw, assignment, p
                    )

    @given(g=small_multigraphs(), p=st.sampled_from((2, 3, 4, 5)))
    @settings(max_examples=80, deadline=None)
    def test_cached_factors_match_raw_at_every_point(self, g, p):
        # loops and isolated vertices take the residue-0 factor
        raw = flow_polynomial_raw(g, p)
        ids = g.sorted_arc_ids
        for combo in product(range(1, p), repeat=len(ids)):
            assignment = dict(zip(ids, combo))
            assert flow_poly_eval(g, assignment, p) == cyclotomic_eval(
                raw, assignment, p
            )

    def test_stops_at_the_first_zero_factor(self, monkeypatch):
        # at p=3 the point 1, 1, 1 of the worked example leaves surplus -1
        # at v1, the first vertex: the product is zero before any multiplication
        d = example_graph()
        assignment = dict.fromkeys(d.sorted_arc_ids, 1)
        expected = cyclotomic_eval(flow_polynomial_raw(d, 3), assignment, 3)

        def refuse(self, other):
            raise AssertionError("multiplied past a zero vertex factor")

        monkeypatch.setattr(CyclotomicInt, "__mul__", refuse)
        value = flow_poly_eval(d, assignment, 3)
        monkeypatch.undo()
        assert value.is_zero and value == expected

    @given(g=small_multigraphs(), p=st.sampled_from((2, 3, 4, 5)))
    @settings(max_examples=80, deadline=None)
    def test_surplus_and_evaluator_find_the_flows(self, g, p):
        # loops, parallel arcs and isolated vertices included
        ids = g.sorted_arc_ids
        for values in product(range(p), repeat=len(ids)):
            phi = ZpMap.from_tuple(p, ids, values)
            surplus = dict.fromkeys(g.vertices, 0)
            for a in g.arcs:
                surplus[a.head] += phi[a.id]
                surplus[a.tail] -= phi[a.id]
            assert (not any(s % p for s in surplus.values())) == is_flow(g, phi)
        evaluate = _evaluator(g, p)
        top = CyclotomicInt.from_int(p, p ** len(g.vertices))
        points = product(range(1, p), repeat=len(ids))
        flows = sum(1 for codes in points if evaluate(codes) == top)
        assert flows == sum(1 for codes in _circulations(g, _zp(p), None) if all(codes))

    def test_dichotomy_small(self):
        # only two values ever appear on the zero set: 0 and p^|V|
        for g in all_connected_multigraphs(4):
            d = default_orientation(g)
            pv3 = 3 ** len(d.vertices)
            ids = d.sorted_arc_ids
            for combo in product(range(1, 3), repeat=len(ids)):
                phi = ZpMap.from_tuple(3, ids, combo)
                value = flow_poly_eval(d, dict(phi.values), 3).as_int()
                assert value in (0, pv3)
                assert value == surplus_eval(d, phi)


class TestMainIdentity:
    def test_on_small_family(self):
        for g in all_connected_multigraphs(4):
            d = default_orientation(g)
            for p in (2, 3, 4):
                assert flow_polynomial_normal_form(d, p) == conformal_normal_form(d, p)

    def test_disconnected_components(self):
        # kappa = 2 and 3: the scale factor is p^kappa
        two = disjoint_union(triangle(), path(2))
        three = disjoint_union(triangle(), triangle(), path(1))
        for g, k in ((two, 2), (three, 3)):
            d = orient(g)
            for p in (2, 3):
                nf = flow_polynomial_normal_form(d, p)
                cn = conformal_normal_form(d, p)
                assert nf == cn
                from flowpoly.graphs import kappa as components

                assert components(d) == k

    def test_basis_dimension_matches_zero_count(self):
        # the basic monomials and the zero set have the same cardinality
        for p in (2, 3, 4, 5):
            for m in range(0, 6):
                assert (p - 1) ** m == len(list(product(range(1, p), repeat=m)))
