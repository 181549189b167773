"""Text and JSON forms for graphs, maps, normal forms and coefficient tables.

Graph text format, one record per line, `#` starts a comment:

    v <id>                     optional explicit vertex
    a <id> <tail> <head>       directed arc
    e <id> <u> <v>             undirected edge
    rot <vertex> <end> ...     end is <arcid>+ (tail end) or <arcid>- (head end)

A file is directed or undirected, never both. Ids are alphanumeric
tokens (underscores allowed).

Output is byte-stable and streamed. dump_json is the one JSON writer: it
prints, byte for byte, what the standard library's encoder prints with
sorted keys and a two-space indent, plus a newline, for dicts with str
keys, lists, tuples, str, int, bool and None, and writes it to a stream in
chunks. A Rows value is a list rendered lazily, one batch of item texts at
a time. Normal forms and coefficient tables print as Rows in JSON and as
chunked text. Each term or row joins per-(id, digit) fragments built once
per call, such as `"a": 2`, `a^2` or `e1=(0,1)`; the forms and tables join
them straight from their packed keys (text_batches), a few digits at a
time. No term dict, payload list or whole-document string is built, so
printing holds no more than the packed form, its sorted keys and one batch
of rows.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

from .embedding import End, RotationSystem
from .errors import GraphFormatError
from .flows import ConformalTable
from .fourflow import KleinMap, PairQuotientPoly
from .graphs import Digraph, UndirectedGraph, orient
from .quotient import QuotientPoly

_ID = re.compile(r"^[A-Za-z0-9_]+$")


def _check_id(token: str, line: int) -> str:
    if not _ID.match(token):
        raise GraphFormatError(f"bad id {token!r}", line)
    return token


@dataclass(frozen=True)
class ParsedGraph:
    kind: str  # "digraph" | "undirected"
    digraph: Digraph | None
    undirected: UndirectedGraph | None
    rotation: RotationSystem | None

    def as_digraph(self) -> Digraph:
        """The digraph itself, or the stored-order orientation."""
        if self.digraph is not None:
            return self.digraph
        return orient(self.undirected)

    def as_undirected(self) -> UndirectedGraph:
        if self.undirected is not None:
            return self.undirected
        return self.digraph.underlying()


def parse_graph_text(text: str) -> ParsedGraph:
    vertices: list[str] = []
    arcs: list[tuple[str, str, str]] = []
    edges: list[tuple[str, str, str]] = []
    rotations: dict[str, tuple[End, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "v":
            if len(fields) != 2:
                raise GraphFormatError("v takes exactly one id", lineno)
            vertices.append(_check_id(fields[1], lineno))
        elif tag == "a":
            if len(fields) != 4:
                raise GraphFormatError("a takes id, tail, head", lineno)
            arcs.append(tuple(_check_id(f, lineno) for f in fields[1:]))
        elif tag == "e":
            if len(fields) != 4:
                raise GraphFormatError("e takes id, u, v", lineno)
            edges.append(tuple(_check_id(f, lineno) for f in fields[1:]))
        elif tag == "rot":
            if len(fields) < 2:
                raise GraphFormatError("rot takes a vertex and its ends", lineno)
            v = _check_id(fields[1], lineno)
            if v in rotations:
                raise GraphFormatError(f"duplicate rot for {v!r}", lineno)
            ends = []
            for tok in fields[2:]:
                if len(tok) < 2 or tok[-1] not in "+-":
                    raise GraphFormatError(f"bad arc end {tok!r}", lineno)
                ends.append(End(_check_id(tok[:-1], lineno), tok[-1] == "+"))
            rotations[v] = tuple(ends)
        else:
            raise GraphFormatError(f"unknown record {tag!r}", lineno)
    if arcs and edges:
        raise GraphFormatError("file mixes directed and undirected records")
    rotation = RotationSystem(rotations) if rotations else None
    try:
        if edges:
            return ParsedGraph(
                "undirected", None, UndirectedGraph.build(edges, vertices), rotation
            )
        return ParsedGraph(
            "digraph", Digraph.build(arcs, vertices), None, rotation
        )
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def load_graph(path) -> ParsedGraph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def graph_to_text(g, rotation: RotationSystem | None = None) -> str:
    touched = {w for r in g.records for w in r.ends()}
    lines = [f"v {v}" for v in g.sorted_vertices if v not in touched]
    tag = g.kind[0]  # "a" for an arc, "e" for an edge
    for rid in g.sorted_ids:
        a, b = g.by_id[rid].ends()
        lines.append(f"{tag} {rid} {a} {b}")
    if rotation is not None:
        for v in sorted(rotation.orders):
            ends = " ".join(str(e) for e in rotation.orders[v])
            lines.append(f"rot {v} {ends}")
    return "\n".join(lines) + "\n"


def _unique(pairs) -> dict:
    """The (key, value) pairs of a map file as a dict; a repeated key is
    bad input."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise GraphFormatError(f"repeated key {key!r} in the map")
        out[key] = value
    return out


def parse_zp_map(text: str) -> "ZpMap":
    """Either the `p=3; e1=1; ...` text form or the JSON form. A key
    repeated in the text, or in any JSON object, is bad input."""
    from .flows import ZpMap

    text = text.strip()
    if text.startswith("{"):
        data = json.loads(text, object_pairs_hook=_unique)
        if not isinstance(data, dict) or "p" not in data or "values" not in data:
            raise GraphFormatError("a JSON map is an object with keys p, values")
        if not isinstance(data["values"], dict):
            raise GraphFormatError('the "values" of a JSON map must be an object')
        for k, v in data["values"].items():
            if type(v) is not int:
                raise GraphFormatError(f"bad value {v!r} for {k!r}")
        if type(data["p"]) is not int:
            raise GraphFormatError(f"bad p {data['p']!r}")
        return ZpMap(data["p"], data["values"])
    parts = [chunk.strip() for chunk in text.split(";") if chunk.strip()]
    pairs = []
    for part in parts:
        if "=" not in part:
            raise GraphFormatError(f"bad assignment {part!r}")
        key, val = (s.strip() for s in part.split("=", 1))
        try:
            pairs.append((key, int(val)))
        except ValueError:
            raise GraphFormatError(
                f"bad p {val!r}" if key == "p" else f"bad value {val!r} for {key!r}"
            ) from None
    values = _unique(pairs)
    if "p" not in values:
        raise GraphFormatError("map text must set p")
    return ZpMap(values.pop("p"), values)


def zp_map_to_text(m) -> str:
    parts = [f"p={m.p}"] + [f"{a}={m.values[a]}" for a in sorted(m.values)]
    return "; ".join(parts)


def zp_map_to_json(m) -> dict:
    return {"p": m.p, "values": {a: m.values[a] for a in sorted(m.values)}}


def klein_map_to_json(m: KleinMap) -> dict:
    return {"values": {e: list(m.values[e]) for e in sorted(m.values)}}


_FLUSH = 1 << 16  # characters gathered before each write


def _emit(chunks, out):
    """The joined chunks, or None once they are written to out, a few
    chunks per write."""
    if out is None:
        return "".join(chunks)
    buf, size = [], 0
    for chunk in chunks:
        buf.append(chunk)
        size += len(chunk)
        if size >= _FLUSH:
            out.write("".join(buf))
            buf, size = [], 0
    out.write("".join(buf))


def _indent(depth: int) -> str:
    return "\n" + "  " * depth


class Rows:
    """A JSON list that dump_json renders lazily: render(depth) yields
    batches of item texts, each item nested `depth` levels deep. Iterating
    parses the items back, so Rows equal the list they print as."""

    def __init__(self, render):
        self._render = render

    def chunks(self, depth: int):
        inner = _indent(depth + 1)
        lead = "[" + inner
        for batch in self._render(depth + 1):
            if batch:
                yield lead + ("," + inner).join(batch)
                lead = "," + inner
        yield "[]" if lead[0] == "[" else _indent(depth) + "]"

    def __iter__(self):
        for batch in self._render(0):
            yield from map(json.loads, batch)

    def __eq__(self, other):
        if not isinstance(other, (list, Rows)):
            return NotImplemented
        return list(self) == list(other)


def _json(obj, depth: int):
    """The chunks of obj's canonical JSON text, nested `depth` levels deep."""
    if isinstance(obj, str):
        yield _quote(obj)
    elif obj is None:
        yield "null"
    elif obj is True:
        yield "true"
    elif obj is False:
        yield "false"
    elif isinstance(obj, int):
        yield int.__repr__(obj)
    elif isinstance(obj, Rows):
        yield from obj.chunks(depth)
    elif isinstance(obj, dict):
        # _quote refuses a key that is not a str
        items = ((_quote(key) + ": ", obj[key]) for key in sorted(obj))
        yield from _nested("{", "}", items, depth)
    elif isinstance(obj, (list, tuple)):
        yield from _nested("[", "]", (("", item) for item in obj), depth)
    else:
        raise TypeError(f"{type(obj).__name__} is not a JSON value here")


def _nested(start: str, end: str, items, depth: int):
    """A dict's or a list's chunks from (prefix, value) items."""
    inner = _indent(depth + 1)
    lead = start + inner
    for prefix, value in items:
        yield lead + prefix
        yield from _json(value, depth + 1)
        lead = "," + inner
    yield start + end if lead[0] == start else _indent(depth) + end


def _json_text(obj, depth: int) -> str:
    return "".join(_json(obj, depth))


def dump_json(obj, out=None):
    """Canonical JSON: sorted keys, two-space indent, trailing newline, as
    the standard library's encoder prints it. Returned, or written to out
    in chunks when out is given."""
    return _emit(chain(_json(obj, 0), ("\n",)), out)


def _json_rows(batches, value, first: str, second: str, quoted: bool) -> Rows:
    """Rows of {first: c, second: {id: value(code), ...}} items from the
    text_batches(frag) of a form or a table; c prints as a JSON string when
    quoted. The keys first < second print in that order."""

    def render(depth):
        i1, i2 = _indent(depth + 1), _indent(depth + 2)
        mark = '"' if quoted else ""
        head, mid, end = f'{{{i1}"{first}": {mark}', f'{mark},{i1}"{second}": ', _indent(depth) + "}"
        frag = lambda i, k: f",{i2}{_quote(i)}: {_json_text(value(k), depth + 2)}"
        for coeffs, texts in batches(frag):
            yield [
                f"{head}{c}{mid}{{{s[1:]}{i1}}}{end}" if s else f"{head}{c}{mid}{{}}{end}"
                for c, s in zip(coeffs, texts)
            ]

    return Rows(render)


def _text_terms(q, factor):
    """Chunks of the signed sum of terms by descending key; `factor`
    renders an id and its nonzero digit, and the factors of a term follow
    the sorted ids."""
    lead = ""
    for coeffs, texts in q.text_batches(lambda i, d: "*" + factor(i, d), True):
        terms = [
            ("- " if c < 0 else "+ ")
            + (s[1:] if s and c in (1, -1) else f"{abs(c)}{s}")
            for c, s in zip(coeffs, texts)
        ]
        if not lead:
            first = terms[0]
            terms[0] = first[2:] if first[0] == "+" else "-" + first[2:]
        yield lead + " ".join(terms)
        lead = " "
    if not lead:
        yield "0"


def quotient_poly_to_json(q: QuotientPoly) -> dict:
    return {"p": q.p, "terms": _json_rows(q.text_batches, int, "coeff", "exps", True)}


def quotient_poly_to_text(q: QuotientPoly, out=None):
    """The text form, returned or written to out."""
    return _emit(_text_terms(q, lambda a, d: f"{a}^{d}" if d > 1 else a), out)


def pair_poly_to_json(q: PairQuotientPoly) -> dict:
    pair = lambda d: (d >> 1, d & 1)
    return {"terms": _json_rows(q.text_batches, pair, "coeff", "exps", True)}


def pair_poly_to_text(q: PairQuotientPoly, out=None):
    """The text form, returned or written to out."""
    return _emit(_text_terms(q, lambda e, d: f"x_{e}" if d == 2 else f"y_{e}"), out)


def table_to_json(table: ConformalTable) -> Rows:
    """{"c", "psi"} items by ascending psi; psi maps every id to its value."""
    return _json_rows(table.text_batches, table.code_values.__getitem__, "c", "psi", False)


def table_to_text(table: ConformalTable, out=None):
    """One `c(a=0; b=1) = 2` line per psi by ascending psi, returned or
    written to out; a pair value prints as (0,1)."""
    text = lambda v: f"({v[0]},{v[1]})" if isinstance(v, tuple) else str(v)
    values = [text(v) for v in table.code_values]
    lines = (
        "".join([f"c({s[2:]}) = {c}\n" for c, s in zip(coeffs, texts)])
        for coeffs, texts in table.text_batches(lambda i, k: f"; {i}={values[k]}")
    )
    return _emit(lines, out)
