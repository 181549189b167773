import random

import pytest

from families import (
    all_connected_multigraphs,
    complete,
    cycle,
    default_orientation,
    directed_cycle,
    example_graph,
    path,
    petersen,
    single_loop,
    triangle,
)
from flowpoly.errors import PreconditionError
from flowpoly.flows import enumerate_flows, is_p_colorable
from flowpoly.formats import load_graph
from flowpoly.graphs import UndirectedGraph, is_bridgeless, is_chordal, reverse_arcs
from flowpoly.quotient import (
    conformal_normal_form,
    flow_polynomial_normal_form,
    has_nz_flow_membership,
)
from flowpoly.structure import (
    chordal_orientation,
    check_coloring_correspondence,
    check_planar_duality,
    verify_unique_zero_conformal,
)

# the cheap members; the full list with the larger graphs runs in the
# acceptance suite
CHORDAL_CORPUS = [
    "triangle.g",
    "k4.g",
    "diamond.g",
    "bowtie.g",
    "apollonian5.g",
    "triangle_multi.g",
    "parallel3.g",
    "single_loop.g",
]


class TestChordalOrientation:
    def test_triangle_directed_cycle(self):
        cert = chordal_orientation(triangle())
        assert cert.verified
        heads = {a.id: (a.tail, a.head) for a in cert.digraph.arcs}
        assert heads == {"e1": ("a", "b"), "e2": ("b", "c"), "e3": ("c", "a")}

    def test_k4_two_contractions_after_triangle(self):
        cert = chordal_orientation(complete(4))
        assert cert.verified
        sizes = [len(s.circuit) for s in cert.steps]
        assert sizes == [3, 2, 1]
        assert verify_unique_zero_conformal(cert.digraph)

    def test_deterministic(self):
        a = chordal_orientation(complete(4))
        b = chordal_orientation(complete(4))
        assert a.digraph == b.digraph
        assert a.steps == b.steps

    def test_edgeless(self):
        g = UndirectedGraph(frozenset({"v"}), ())
        cert = chordal_orientation(g)
        assert cert.verified
        assert cert.steps == ()
        assert cert.digraph.arcs == ()

    def test_rejects_bridge(self):
        with pytest.raises(PreconditionError):
            chordal_orientation(path(1))

    def test_rejects_non_chordal(self):
        with pytest.raises(PreconditionError):
            chordal_orientation(cycle(4))

    def test_corpus(self, corpus_dir):
        for name in CHORDAL_CORPUS:
            g = load_graph(corpus_dir / name).as_undirected()
            assert is_bridgeless(g) and is_chordal(g), name
            cert = chordal_orientation(g)
            assert cert.verified, name
            assert verify_unique_zero_conformal(cert.digraph), name
            assert has_nz_flow_membership(cert.digraph, 4), name


class TestVerifyUniqueZeroConformal:
    def test_triangle_orientation(self):
        cert = chordal_orientation(triangle())
        assert verify_unique_zero_conformal(cert.digraph)

    def test_c4_fails(self):
        # potentials 0,3,2,1 around the directed 4-cycle give the tension
        # 3,3,3,3 valued in {0,3}, a nonzero 0-conformal dual four-flow
        assert not verify_unique_zero_conformal(directed_cycle(4))

    def test_single_loop(self):
        d = default_orientation(single_loop())
        assert verify_unique_zero_conformal(d)


class TestPlanarDuality:
    def test_example_graph(self, embedded_example):
        g, rot = embedded_example
        report = check_planar_duality(g, rot, 3)
        assert report.nz_flow and report.agrees and report.bijection_ok
        # the dual normal form is three times the primal one
        nf = flow_polynomial_normal_form(g, 3)
        nfd = flow_polynomial_normal_form(report.dual.dual, 3)
        assert nfd == nf.scaled(3)

    def test_directed_cycle_p2(self, corpus_dir):
        parsed = load_graph(corpus_dir / "c3.g")
        g = parsed.as_digraph()
        report = check_planar_duality(g, parsed.rotation, 2)
        assert report.nz_flow and report.agrees and report.bijection_ok
        assert any(f.is_nowhere_zero for f in enumerate_flows(g, 2))

    def test_k4_not_3_flowing(self, corpus_dir):
        parsed = load_graph(corpus_dir / "k4_embedded.g")
        g = parsed.as_digraph()
        report = check_planar_duality(g, parsed.rotation, 3)
        assert not report.nz_flow
        assert report.dual_witness_psi is None
        assert report.agrees and report.bijection_ok
        # the brute force route agrees
        assert not any(f.is_nowhere_zero for f in enumerate_flows(g, 3))

    def test_bijection_on_corpus(self, corpus_dir):
        for name in ("example.g", "c3.g", "k4_embedded.g"):
            parsed = load_graph(corpus_dir / name)
            g = parsed.as_digraph()
            for p in (2, 3, 4):
                report = check_planar_duality(g, parsed.rotation, p)
                assert report.agrees, (name, p)
                assert report.bijection_ok, (name, p)


class TestColoringCorrespondence:
    def test_triangle(self):
        report = check_coloring_correspondence(triangle(), 3)
        assert report.colorable and report.dually_flowing and report.agrees
        assert report.coloring is not None

    def test_k4_p3(self):
        report = check_coloring_correspondence(complete(4), 3)
        assert not report.colorable and not report.dually_flowing
        assert report.agrees

    def test_petersen_p3(self):
        report = check_coloring_correspondence(petersen(), 3)
        assert report.colorable and report.dually_flowing and report.agrees

    def test_p1_is_rejected_by_the_tension_side(self):
        # the colorability search takes p = 1; the Z_1 tensions do not exist
        assert not is_p_colorable(triangle(), 1)
        with pytest.raises(ValueError, match="^p must be >= 2$"):
            check_coloring_correspondence(triangle(), 1)


class TestOrientationInvariance:
    def test_membership_stable_under_reversal(self):
        rng = random.Random(3)
        for g in all_connected_multigraphs(4):
            d = default_orientation(g)
            for p in (2, 3):
                base = has_nz_flow_membership(d, p)
                ids = list(d.sorted_arc_ids)
                flip = [a for a in ids if rng.random() < 0.5]
                assert has_nz_flow_membership(reverse_arcs(d, flip), p) == base

    def test_example_graph_full_reversal(self):
        g = example_graph()
        r = reverse_arcs(g)
        assert has_nz_flow_membership(r, 3)
        assert conformal_normal_form(r, 3) == flow_polynomial_normal_form(r, 3)
