from itertools import product

import pytest

from families import (
    all_connected_multigraphs,
    complete,
    default_orientation,
    diamond,
    disjoint_union,
    example_graph,
    parallel,
    path,
    petersen,
    single_loop,
    small_multigraphs,
    triangle,
)
from hypothesis import given, settings
from oracles import (
    count_conformal_dual_four_flows,
    eval_points_of,
    four_flow_polynomial_raw,
    is_conformal4,
    klein_eval,
    parity4,
    product_tensions,
    reduce_pair_reference,
)

from flowpoly.errors import BoundExceeded
from flowpoly.fourflow import (
    KLEIN,
    KLEIN_BASIC,
    KleinMap,
    _KLEIN_GROUP,
    _klein_maps,
    conformal_pair_normal_form,
    enumerate_klein_circulations,
    four_flow_coefficient_table,
    four_flow_polynomial_normal_form,
    has_nz_four_flow,
)
from flowpoly.flows import _tensions, is_dual_flow, is_flow
from flowpoly.graphs import UndirectedGraph, cyclomatic_number, kappa
from flowpoly.polynomials import Poly
from flowpoly.quotient import has_nz_flow_membership


def km(g, *pairs):
    return KleinMap(dict(zip(g.sorted_edge_ids, pairs)))


class TestIsFourFlow:
    def test_triangle_all_ones(self):
        g = triangle()
        assert is_flow(g, km(g, (1, 1), (1, 1), (1, 1)))

    def test_three_parallel_distinct(self):
        g = parallel(3)
        assert is_flow(g, km(g, (0, 1), (1, 0), (1, 1)))

    def test_single_edge(self):
        g = path(1)
        assert not is_flow(g, km(g, (0, 1)))

    def test_loop_never_obstructs(self):
        g = single_loop()
        for v in KLEIN:
            assert is_flow(g, km(g, v))


class TestIsDualFourFlow:
    def test_tree_from_labels(self):
        g = path(3)
        omega = {"v0": (0, 0), "v1": (1, 0), "v2": (1, 1), "v3": (0, 1)}
        values = {
            e.id: tuple((omega[e.u][i] + omega[e.v][i]) % 2 for i in (0, 1))
            for e in g.edges
        }
        assert is_dual_flow(g, KleinMap(values))

    def test_triangle_constant_fails(self):
        g = triangle()
        assert not is_dual_flow(g, km(g, (0, 1), (0, 1), (0, 1)))

    def test_zero(self):
        g = triangle()
        assert is_dual_flow(g, km(g, (0, 0), (0, 0), (0, 0)))

    def test_loop_forces_zero(self):
        g = single_loop()
        assert is_dual_flow(g, km(g, (0, 0)))
        assert not is_dual_flow(g, km(g, (1, 0)))


class TestEnumerations:
    def test_counts(self):
        for g in all_connected_multigraphs(4):
            tensions = _klein_maps(g.sorted_edge_ids, _tensions(g, _KLEIN_GROUP, None))
            assert len(tensions) == 4 ** (len(g.vertices) - kappa(g))
            assert all(is_dual_flow(g, t) for t in tensions)
            flows = enumerate_klein_circulations(g)
            assert len(flows) == 4 ** cyclomatic_number(g)
            assert all(is_flow(g, f) for f in flows)

    def test_parallel3_has_six_nz_flows(self):
        flows = [
            f for f in enumerate_klein_circulations(parallel(3))
            if f.is_nowhere_zero
        ]
        assert len(flows) == 6


class TestFourFlowPolynomial:
    def test_isolated_vertex(self):
        g = UndirectedGraph(frozenset({"v"}), ())
        assert four_flow_polynomial_normal_form(g).poly == Poly.constant(4)

    def test_single_edge_is_zero(self):
        g = path(1)
        nf = four_flow_polynomial_normal_form(g)
        assert nf.is_zero
        assert not has_nz_four_flow(g)

    def test_parallel3_nonzero(self):
        assert not four_flow_polynomial_normal_form(parallel(3)).is_zero

    def test_loop_contributes_nothing(self):
        g = single_loop()
        assert four_flow_polynomial_normal_form(g).poly == Poly.constant(4)
        assert has_nz_four_flow(g)


class TestFoldAgainstRawExpansion:
    @given(g=small_multigraphs(max_vertices=5, max_edges=6))
    @settings(max_examples=120, deadline=None)
    def test_fold_matches_normalized_raw(self, g):
        u = g.underlying()
        nf = four_flow_polynomial_normal_form(u)
        assert nf.poly == reduce_pair_reference(four_flow_polynomial_raw(u))

    @given(g=small_multigraphs(max_vertices=5, max_edges=6))
    @settings(max_examples=120, deadline=None)
    def test_membership_decides_on_the_packed_keys(self, g):
        u = g.underlying()
        assert has_nz_four_flow(u, "membership") == (
            not four_flow_polynomial_normal_form(u).is_zero
        )


class TestNormalFormBound:
    def test_message_names_stage_and_progress(self):
        with pytest.raises(BoundExceeded) as err:
            four_flow_polynomial_normal_form(complete(4), max_terms=30)
        assert str(err.value) == "Klein normal form exceeds 30 terms at vertex 2 of 3"

    def test_expansion_checked_before_it_is_built(self):
        # the (1,1) element on 14 parallel edges would expand to 3^14 terms
        with pytest.raises(BoundExceeded, match="vertex 1 of 1: one term expands"):
            four_flow_polynomial_normal_form(parallel(14), max_terms=100)

    def test_membership_propagates(self):
        with pytest.raises(BoundExceeded):
            has_nz_four_flow(complete(4), "membership", max_terms=10)

    def test_frontier_order_stays_under_the_bound(self):
        # the diamond's accumulator peaks at 185 terms when all four vertices
        # fold by most edges first, at 156 when three do, and at 141 in
        # frontier order
        assert len(four_flow_polynomial_normal_form(diamond(), max_terms=150).poly) == 136


class TestPackedNormalForms:
    @given(g=small_multigraphs(), h=small_multigraphs())
    @settings(max_examples=120, deadline=None)
    def test_equality_and_hash_match_the_polynomials(self, g, h):
        u = g.underlying()
        nf = four_flow_polynomial_normal_form(u)
        forms = [nf, conformal_pair_normal_form(u)]
        forms += [four_flow_polynomial_normal_form(h.underlying())]
        # the same packed keys over other edge ids
        renamed = UndirectedGraph.build([("f" + e.id, *e.ends()) for e in u.edges], u.vertices)
        forms.append(four_flow_polynomial_normal_form(renamed))
        for f1, f2 in product(forms, repeat=2):
            assert (f1 == f2) == (f1.poly == f2.poly)
            if f1 == f2:
                assert hash(f1) == hash(f2)


class TestHasNzFourFlow:
    def test_k4(self):
        assert has_nz_four_flow(complete(4))

    def test_single_edge(self):
        assert not has_nz_four_flow(path(1))

    def test_petersen_brute(self):
        assert not has_nz_four_flow(petersen(), method="brute")

    def test_petersen_membership_route(self):
        # the full normal form of the Petersen graph cancels to zero
        assert four_flow_polynomial_normal_form(petersen()).is_zero

    def test_methods_agree_on_family(self):
        for g in all_connected_multigraphs(4):
            has_nz_four_flow(g, method="all")  # raises on disagreement

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            has_nz_four_flow(triangle(), method="nope")


class TestKleinEval:
    def test_triangle_flow_value(self):
        g = triangle()
        phi = km(g, (1, 1), (1, 1), (1, 1))
        raw = four_flow_polynomial_raw(g)
        assert klein_eval(raw, eval_points_of(phi)) == 4**3

    def test_single_edge_nonflow(self):
        g = path(1)
        phi = km(g, (0, 1))
        assert klein_eval(four_flow_polynomial_raw(g), eval_points_of(phi)) == 0

    def test_empty_graph(self):
        g = UndirectedGraph(frozenset({"v"}), ())
        assert klein_eval(four_flow_polynomial_raw(g), {}) == 4

    def test_dichotomy(self):
        # 4^|V| at the point of every nowhere-zero flow, 0 at every other point
        for g in all_connected_multigraphs(4):
            raw = four_flow_polynomial_raw(g)
            top = 4 ** len(g.vertices)
            ids = g.sorted_edge_ids
            for combo in product(KLEIN[1:], repeat=len(ids)):
                phi = KleinMap(dict(zip(ids, combo)))
                expected = top if is_flow(g, phi) else 0
                assert klein_eval(raw, eval_points_of(phi)) == expected


class TestCoefficientTable:
    def test_edgeless(self):
        g = UndirectedGraph(frozenset({"v"}), ())
        assert four_flow_coefficient_table(g) == {(): 1}

    def test_single_edge_cancels(self):
        assert four_flow_coefficient_table(path(1)) == {}

    def test_matches_per_psi_counts(self):
        from flowpoly.fourflow import KLEIN_BASIC

        for g in all_connected_multigraphs(3):
            ids = g.sorted_edge_ids
            table = four_flow_coefficient_table(g)
            for combo in product(KLEIN_BASIC, repeat=len(ids)):
                psi = KleinMap(dict(zip(ids, combo)))
                even, odd = count_conformal_dual_four_flows(g, psi)
                assert table.get(combo, 0) == even - odd

    @given(g=small_multigraphs())
    @settings(max_examples=120, deadline=None)
    def test_equals_per_psi_counts_on_multigraphs(self, g):
        # loops, parallel edges, isolated vertices, several components
        u = g.underlying()
        ids = u.sorted_edge_ids
        expected = {}
        for combo in product(KLEIN[:3], repeat=len(ids)):
            even, odd = count_conformal_dual_four_flows(u, KleinMap(dict(zip(ids, combo))))
            if even != odd:
                expected[combo] = even - odd
        assert four_flow_coefficient_table(u) == expected
        assert has_nz_four_flow(u, "conformal") == bool(expected)

    def test_aggregation_bound(self):
        # 64 tensions fit the bound of 70, their conformal boxes do not
        with pytest.raises(BoundExceeded) as err:
            four_flow_coefficient_table(complete(4), max_states=70)
        assert str(err.value) == "conformal aggregation exceeds 70 steps"

    def test_decider_propagates_the_aggregation_bound(self):
        with pytest.raises(BoundExceeded, match="^conformal aggregation exceeds 70 steps$"):
            has_nz_four_flow(complete(4), "conformal", max_states=70)

    def test_main_identity_triangle(self):
        assert four_flow_polynomial_normal_form(
            triangle()
        ) == conformal_pair_normal_form(triangle())

    def test_main_identity_family_and_disconnected(self):
        for g in all_connected_multigraphs(4):
            assert four_flow_polynomial_normal_form(g) == conformal_pair_normal_form(g)
        two = disjoint_union(triangle(), parallel(2))
        assert four_flow_polynomial_normal_form(two) == conformal_pair_normal_form(two)


class TestGroupIndependence:
    def test_klein_agrees_with_z4(self):
        for g in all_connected_multigraphs(4):
            d = default_orientation(g)
            assert has_nz_four_flow(g) == has_nz_flow_membership(d, 4)

    def test_example_graph_case(self):
        g = example_graph()
        assert has_nz_four_flow(g.underlying()) == has_nz_flow_membership(g, 4)


class TestConformal4:
    def test_parity(self):
        g = triangle()
        assert parity4(km(g, (1, 1), (1, 1), (0, 0))) == "even"
        assert parity4(km(g, (1, 1), (0, 1), (0, 0))) == "odd"

    def test_conformal(self):
        g = triangle()
        psi = km(g, (0, 1), (1, 0), (0, 0))
        assert is_conformal4(km(g, (0, 1), (1, 1), (0, 0)), psi)
        assert not is_conformal4(km(g, (1, 0), (1, 1), (0, 0)), psi)
        with pytest.raises(ValueError):
            is_conformal4(psi, km(g, (1, 1), (0, 0), (0, 0)))

    @given(g=small_multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_counts_match_the_map_by_map_oracle(self, g):
        u = g.underlying()
        ids = [e.id for e in u.edges]
        tensions = _klein_maps(u.sorted_edge_ids, product_tensions(u, _KLEIN_GROUP, None))
        for values in product(KLEIN_BASIC, repeat=len(ids)):
            psi = KleinMap(dict(zip(ids, values)))
            split = [parity4(phi) for phi in tensions if is_conformal4(phi, psi)]
            expected = (split.count("even"), split.count("odd"))
            assert count_conformal_dual_four_flows(u, psi) == expected
