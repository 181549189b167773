import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from families import small_multigraphs
from flowpoly.errors import GraphFormatError
from flowpoly.flows import ZpMap, coefficient_table, flow_conformal_table
from flowpoly.formats import (
    Rows,
    _json_text,
    dump_json,
    graph_to_text,
    klein_map_to_json,
    pair_poly_to_json,
    pair_poly_to_text,
    parse_graph_text,
    parse_zp_map,
    quotient_poly_to_json,
    quotient_poly_to_text,
    table_to_json,
    table_to_text,
    zp_map_to_json,
    zp_map_to_text,
)
from flowpoly.fourflow import (
    PairQuotientPoly,
    conformal_pair_normal_form,
    four_flow_coefficient_table,
    four_flow_polynomial_normal_form,
    normalize_pair,
)
from flowpoly.polynomials import Poly
from flowpoly.quotient import (
    QuotientPoly,
    conformal_normal_form,
    flow_polynomial_normal_form,
    normalize,
)


class TestGraphText:
    def test_digraph_round_trip(self):
        text = "a e1 v1 v2\na e2 v2 v1\na e3 v1 v2\n"
        parsed = parse_graph_text(text)
        assert parsed.kind == "digraph"
        assert graph_to_text(parsed.digraph) == text

    def test_undirected_round_trip(self):
        text = "e e1 a b\ne e2 b c\n"
        parsed = parse_graph_text(text)
        assert parsed.kind == "undirected"
        assert graph_to_text(parsed.undirected) == text

    def test_rotation_round_trip(self, corpus_dir):
        text = (corpus_dir / "example.g").read_text()
        parsed = parse_graph_text(text)
        out = graph_to_text(parsed.digraph, parsed.rotation)
        again = parse_graph_text(out)
        assert again.digraph == parsed.digraph
        assert again.rotation == parsed.rotation

    def test_comments_and_blanks(self):
        parsed = parse_graph_text("# hello\n\nv lonely\n a x1 u v # trailing\n")
        assert parsed.digraph.vertices == {"lonely", "u", "v"}

    def test_isolated_vertex_round_trip(self):
        parsed = parse_graph_text("v z\ne e1 a b\n")
        assert graph_to_text(parsed.undirected) == "v z\ne e1 a b\n"

    def test_mixed_records_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_graph_text("a e1 u v\ne e2 u v\n")

    def test_error_names_line(self):
        with pytest.raises(GraphFormatError) as err:
            parse_graph_text("a e1 u v\nbogus\n")
        assert "line 2" in str(err.value)

    def test_bad_id(self):
        with pytest.raises(GraphFormatError):
            parse_graph_text("a e+1 u v\n")

    def test_duplicate_arc_id(self):
        with pytest.raises(GraphFormatError):
            parse_graph_text("a e1 u v\na e1 v w\n")

    def test_bad_rot_end(self):
        with pytest.raises(GraphFormatError) as err:
            parse_graph_text("a e1 u v\nrot u e1*\n")
        assert "line 2" in str(err.value)


class TestZpMapText:
    def test_text_round_trip(self):
        m = parse_zp_map("p=3; e1=1; e2=2; e3=1")
        assert m == ZpMap(3, {"e1": 1, "e2": 2, "e3": 1})
        assert parse_zp_map(zp_map_to_text(m)) == m

    def test_json_round_trip(self):
        m = ZpMap(5, {"a": 4, "b": 0})
        assert parse_zp_map(json.dumps(zp_map_to_json(m))) == m

    def test_requires_p(self):
        with pytest.raises(GraphFormatError):
            parse_zp_map("e1=1")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p=3; e1=x; e2=1; e3=1", "bad value 'x' for 'e1'"),
            ("p=3; e1=1.5", "bad value '1.5' for 'e1'"),
            ("p=3; e1=", "bad value '' for 'e1'"),
            ("p=three; e1=1", "bad p 'three'"),
        ],
    )
    def test_non_integer_value(self, text, message):
        # the wording of the JSON branch
        with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
            parse_zp_map(text)


class TestKleinJson:
    def test_round_trip(self):
        from flowpoly.fourflow import KleinMap

        m = KleinMap({"e1": (0, 1), "e2": (1, 1)})
        data = json.loads(json.dumps(klein_map_to_json(m)))
        assert KleinMap(data["values"]) == m


class TestPolyForms:
    def test_worked_example_text(self, embedded_example):
        g, _ = embedded_example
        nf = flow_polynomial_normal_form(g, 3)
        assert (
            quotient_poly_to_text(nf)
            == "3*e1*e2 - 3*e1*e3 + 3*e2*e3 + 3*e2 + 3"
        )

    def test_json_sorted_and_stringly(self, embedded_example):
        g, _ = embedded_example
        nf = flow_polynomial_normal_form(g, 3)
        data = quotient_poly_to_json(nf)
        assert data["p"] == 3
        coeffs = [t["coeff"] for t in data["terms"]]
        assert all(isinstance(c, str) for c in coeffs)
        vectors = [
            tuple(t["exps"].get(a, 0) for a in ("e1", "e2", "e3"))
            for t in data["terms"]
        ]
        assert vectors == sorted(vectors)

    def test_zero_poly(self):
        assert quotient_poly_to_text(QuotientPoly(4, ("a", "b"), Poly.zero())) == "0"

    def test_exponents_rendered(self):
        p = Poly.monomial({"a": 2, "b": 1}, -7)
        assert quotient_poly_to_text(QuotientPoly(4, ("a", "b"), p)) == "-7*a^2*b"

    def test_pair_poly_forms(self):
        from families import triangle

        nf = four_flow_polynomial_normal_form(triangle())
        data = pair_poly_to_json(nf)
        assert all(
            isinstance(t["coeff"], str) and t["exps"] for t in data["terms"]
        ) or data["terms"]
        text = pair_poly_to_text(nf)
        assert "x_e1" in text or "y_e1" in text or text == "0"

    def test_dump_json_stable(self):
        payload = {"b": 1, "a": [3, 2]}
        assert dump_json(payload) == dump_json(payload)
        assert dump_json(payload).startswith('{\n  "a"')


class TestWritersAgainstPolyReference:
    """The packed-key writers print the bytes the Poly-based reference prints
    through the standard encoder."""

    @staticmethod
    def check(q, to_text, to_json, ref_text, ref_json):
        assert to_text(q) == ref_text(q)
        assert dump_json(to_json(q)) == oracles.dump_json(ref_json(q))
        assert to_json(q) == ref_json(q)  # Rows equal the list they print as

    @given(g=small_multigraphs(), p=st.sampled_from((2, 3, 4, 5)))
    @settings(max_examples=150, deadline=None)
    def test_zp_forms(self, g, p):
        for q in (flow_polynomial_normal_form(g, p), conformal_normal_form(g, p)):
            self.check(
                q,
                quotient_poly_to_text,
                quotient_poly_to_json,
                oracles.quotient_poly_to_text,
                oracles.quotient_poly_to_json,
            )

    @given(g=small_multigraphs())
    @settings(max_examples=150, deadline=None)
    def test_klein_forms(self, g):
        u = g.underlying()
        for q in (four_flow_polynomial_normal_form(u), conformal_pair_normal_form(u)):
            self.check(
                q,
                pair_poly_to_text,
                pair_poly_to_json,
                oracles.pair_poly_to_text,
                oracles.pair_poly_to_json,
            )

    def test_form_nested_in_a_payload(self):
        # the fragments of a Klein pair are indented for the depth they print at
        from families import triangle

        nf = four_flow_polynomial_normal_form(triangle())
        payload = {"a": [{"nf": pair_poly_to_json(nf)}], "b": None}
        reference = {"a": [{"nf": oracles.pair_poly_to_json(nf)}], "b": None}
        assert dump_json(payload) == oracles.dump_json(reference)

    @given(g=small_multigraphs(), p=st.sampled_from((2, 3, 4, 5)))
    @settings(max_examples=100, deadline=None)
    def test_tables(self, g, p):
        u = g.underlying()
        for table in (
            coefficient_table(g, p),
            flow_conformal_table(g, p),
            four_flow_coefficient_table(u),
        ):
            rows = table_to_json(table)
            assert dump_json({"p": p, "entries": rows}) == oracles.dump_json(
                {"p": p, "entries": oracles.table_entries(table)}
            )
            assert table_to_text(table) == oracles.table_to_text(table)


class TestFormsKeyOverSortedIds:
    """A form built over a permuted id tuple, by the constructor or by the
    normalizer, is the form over the sorted ids: same ids, keys, equality,
    hash and printed bytes, which TestWritersAgainstPolyReference checks
    against the reference."""

    @staticmethod
    def check(form, reference, ids, to_text, to_json):
        assert ids(form) == ids(reference) == tuple(sorted(ids(form)))
        assert form._packed == reference._packed
        assert form == reference and hash(form) == hash(reference)
        assert to_text(form) == to_text(reference)
        assert dump_json(to_json(form)) == dump_json(to_json(reference))

    @given(g=small_multigraphs(), p=st.sampled_from((2, 3, 4, 5)), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_zp_forms(self, g, p, data):
        nf = flow_polynomial_normal_form(g, p)
        shuffled = tuple(data.draw(st.permutations(nf.arcs)))
        for form in (QuotientPoly(p, shuffled, nf.poly), normalize(nf.poly, p, shuffled)):
            self.check(form, nf, lambda q: q.arcs, quotient_poly_to_text, quotient_poly_to_json)

    @given(g=small_multigraphs(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_klein_forms(self, g, data):
        nf = four_flow_polynomial_normal_form(g.underlying())
        shuffled = tuple(data.draw(st.permutations(nf.edges)))
        for form in (PairQuotientPoly(shuffled, nf.poly), normalize_pair(nf.poly, shuffled)):
            self.check(form, nf, lambda q: q.edges, pair_poly_to_text, pair_poly_to_json)

    def test_terms_print_in_sorted_id_order(self):
        form = QuotientPoly(3, ("b", "a"), Poly.variable("a") + Poly.variable("b"))
        assert form.arcs == ("a", "b")
        assert quotient_poly_to_text(form) == "a + b"


_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64 - 2, max_value=2**80)
    | st.integers(max_value=-1)
    | st.text()
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(), inner),
    max_leaves=25,
)


class TestCanonicalJson:
    """dump_json prints what the standard encoder prints with sorted keys
    and a two-space indent, plus a newline."""

    @given(obj=_values)
    @example(obj=[1, True, 2, False, None])
    @example(obj={"": {}, "a": [], "b": [[]], "c": {"d": {}}})
    @example(obj=[-(2**64) - 1, 2**64, 2**100])
    @example(obj={"\u00e9\n\"\\": "tab\there \u2603 \U0001f600 \x00"})
    @example(obj=(1, (2, ()), {"k": (True,)}))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_standard_encoder(self, obj):
        assert dump_json(obj) == oracles.dump_json(obj)

    @given(
        items=st.lists(_values, max_size=8),
        cuts=st.lists(st.integers(0, 8), max_size=4),
        wrap=st.integers(0, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_print_as_their_list(self, items, cuts, wrap):
        # batches may be empty, and the block may sit at any depth
        bounds = [0, *sorted(min(c, len(items)) for c in cuts), len(items)]
        render = lambda depth: (
            [_json_text(v, depth) for v in items[a:b]] for a, b in zip(bounds, bounds[1:])
        )
        rows, plain = Rows(render), list(items)
        for _ in range(wrap):
            rows, plain = {"x": [rows], "w": 0}, {"x": [plain], "w": 0}
        assert dump_json(rows) == oracles.dump_json(plain)

    def test_written_in_chunks_to_a_stream(self):
        import io

        payload = {"b": [1, 2], "a": "x"}
        out = io.StringIO()
        assert dump_json(payload, out) is None
        assert out.getvalue() == dump_json(payload)

    @pytest.mark.parametrize("obj", [{1: 2}, 1.5, {"a": {3}}, b"x"])
    def test_refuses_what_it_does_not_print(self, obj):
        with pytest.raises(TypeError):
            dump_json(obj)


class TestJsonMapErrors:
    @pytest.mark.parametrize(
        "doc",
        [
            {"values": {"e1": 1}},
            {"p": 3},
            {"p": 3, "values": [1]},
            {"p": 3, "values": {"e1": 1.5}},
            {"p": 3, "values": {"e1": [1]}},
            {"p": "3", "values": {"e1": 1}},
        ],
    )
    def test_zp_map(self, doc):
        with pytest.raises(GraphFormatError):
            parse_zp_map(json.dumps(doc))


class TestGraphTextRoundTrip:
    @given(g=small_multigraphs(), undirected=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_parse_of_print(self, g, undirected):
        # an edgeless undirected graph prints as v records only and parses
        # back as a digraph; as_undirected() takes it back
        g = g.underlying() if undirected else g
        text = graph_to_text(g)
        parsed = parse_graph_text(text)
        again = parsed.as_undirected() if undirected else parsed.as_digraph()
        records = lambda h: set(h.edges if undirected else h.arcs)
        assert (again.vertices, records(again)) == (g.vertices, records(g))
        assert graph_to_text(again) == text
