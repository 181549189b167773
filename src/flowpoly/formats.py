"""Text and JSON forms for graphs, maps, and polynomials.

Graph text format, one record per line, `#` starts a comment:

    v <id>                     optional explicit vertex
    a <id> <tail> <head>       directed arc
    e <id> <u> <v>             undirected edge
    rot <vertex> <end> ...     end is <arcid>+ (tail end) or <arcid>- (head end)

A file is directed or undirected, never both. Ids are alphanumeric
tokens (underscores allowed).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .embedding import End, RotationSystem
from .errors import GraphFormatError
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


def parse_zp_map(text: str) -> "ZpMap":
    """Either the `p=3; e1=1; ...` text form or the JSON form."""
    from .flows import ZpMap

    text = text.strip()
    if text.startswith("{"):
        data = _json_map(text, ("p", "values"), _is_int)
        if not _is_int(data["p"]):
            raise GraphFormatError(f"bad p {data['p']!r}")
        return ZpMap(data["p"], data["values"])
    parts = [chunk.strip() for chunk in text.split(";") if chunk.strip()]
    p = None
    values = {}
    for part in parts:
        if "=" not in part:
            raise GraphFormatError(f"bad assignment {part!r}")
        key, val = (s.strip() for s in part.split("=", 1))
        if key == "p":
            p = int(val)
        else:
            values[key] = int(val)
    if p is None:
        raise GraphFormatError("map text must set p")
    return ZpMap(p, values)


def zp_map_to_text(m) -> str:
    parts = [f"p={m.p}"] + [f"{a}={m.values[a]}" for a in sorted(m.values)]
    return "; ".join(parts)


def zp_map_to_json(m) -> dict:
    return {"p": m.p, "values": {a: m.values[a] for a in sorted(m.values)}}


def parse_klein_map(text: str) -> KleinMap:
    is_pair = lambda v: isinstance(v, list) and all(map(_is_int, v))
    data = _json_map(text, ("values",), is_pair)
    return KleinMap({k: tuple(v) for k, v in data["values"].items()})


def _is_int(v) -> bool:
    return type(v) is int


def _json_map(text: str, keys: tuple[str, ...], is_value) -> dict:
    """A JSON map document, checked to be an object with these keys whose
    "values" object holds only values passing is_value."""
    data = json.loads(text)
    if not isinstance(data, dict) or any(k not in data for k in keys):
        raise GraphFormatError(f"a JSON map is an object with keys {', '.join(keys)}")
    if not isinstance(data["values"], dict):
        raise GraphFormatError('the "values" of a JSON map must be an object')
    for k, v in data["values"].items():
        if not is_value(v):
            raise GraphFormatError(f"bad value {v!r} for {k!r}")
    return data


def klein_map_to_json(m: KleinMap) -> dict:
    return {"values": {e: list(m.values[e]) for e in sorted(m.values)}}


def _terms_to_json(q, exp) -> list[dict]:
    """Terms by ascending exponent vector; `exp` renders a digit."""
    return [
        {"coeff": str(c), "exps": {i: exp(d) for i, d in digits}}
        for c, digits in q.digit_terms()
    ]


def _terms_to_text(q, factor) -> str:
    """Terms by descending exponent vector; `factor` renders an id and its
    nonzero digit."""
    bits = []
    for c, digits in q.digit_terms(descending=True):
        factors = [factor(i, d) for i, d in digits]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        body = "*".join(factors)
        if bits:
            bits.append(f"- {body}" if c < 0 else f"+ {body}")
        else:
            bits.append(f"-{body}" if c < 0 else body)
    return " ".join(bits) if bits else "0"


def quotient_poly_to_json(q: QuotientPoly) -> dict:
    return {"p": q.p, "terms": _terms_to_json(q, lambda d: d)}


def quotient_poly_to_text(q: QuotientPoly) -> str:
    return _terms_to_text(q, lambda a, d: f"{a}^{d}" if d > 1 else a)


def pair_poly_to_json(q: PairQuotientPoly) -> dict:
    return {"terms": _terms_to_json(q, lambda d: [d >> 1, d & 1])}


def pair_poly_to_text(q: PairQuotientPoly) -> str:
    return _terms_to_text(q, lambda e, d: f"x_{e}" if d == 2 else f"y_{e}")


def dump_json(obj) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
