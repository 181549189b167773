"""The benchmark's workloads: seeded inputs, and the items that run and
check them through the public flowpoly API.

Input generation (`generate`) is pure Python and does not import flowpoly,
so its determinism can be tested on its own. `build` turns generated inputs
into items bound to an imported flowpoly package; items look every
function up on the package at call time, so traced passes see the
span-recording wrappers.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import string
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"
REFS = Path(__file__).resolve().parent / "refs" / "corpus_cli.json"


class CheckFailed(Exception):
    """An item's output disagrees with its reference or with another route."""


@dataclass(frozen=True)
class Item:
    name: str
    run: Callable[[], int]  # runs and checks one item, returns stdout bytes


@dataclass(frozen=True)
class Generated:
    """Seeded inputs: (item name, payload) pairs and the names of the items
    that also make up the tracemalloc pass."""

    entries: tuple
    memory_subset: tuple

    def digest(self) -> str:
        blob = json.dumps(self.entries, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _tokens(rng: random.Random, prefix: str, count: int) -> list[str]:
    out: set[str] = set()
    while len(out) < count:
        out.add(prefix + "".join(rng.choices(string.ascii_lowercase, k=7)))
    return sorted(out)


def relabel(text: str, rng: random.Random) -> str:
    """Rename every vertex and arc id of a graph text with fresh seeded
    tokens. The renaming keeps the sort order of the ids, so the program's
    id tie-breaks, and with them its work, do not depend on the seed."""
    records = []
    vertices: set[str] = set()
    arcs: set[str] = set()
    for raw in text.splitlines():
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        tag = fields[0]
        if tag == "v":
            vertices.add(fields[1])
        elif tag in ("a", "e"):
            arcs.add(fields[1])
            vertices.update(fields[2:])
        elif tag == "rot":
            vertices.add(fields[1])
        records.append(fields)
    vmap = dict(zip(sorted(vertices), _tokens(rng, "v", len(vertices))))
    amap = dict(zip(sorted(arcs), _tokens(rng, "e", len(arcs))))
    lines = []
    for fields in records:
        tag = fields[0]
        if tag == "v":
            lines.append(f"v {vmap[fields[1]]}")
        elif tag in ("a", "e"):
            _, aid, u, v = fields
            lines.append(f"{tag} {amap[aid]} {vmap[u]} {vmap[v]}")
        else:
            ends = " ".join(amap[end[:-1]] + end[-1] for end in fields[2:])
            lines.append(f"rot {vmap[fields[1]]} {ends}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- nf-dense

NF_DENSE = (
    ("zp", "w5", 4),
    ("zp", "k5", 4),
    ("zp", "apollonian5", 4),
    ("zp", "k4", 5),
    ("klein", "w5", 4),
    ("klein", "k5", 4),
    ("klein", "apollonian5", 4),
)


def generate_nf_dense(seed: int) -> Generated:
    rng = random.Random(f"nf-dense/{seed}")
    entries = []
    for group, graph, p in NF_DENSE:
        text = relabel((CORPUS / f"{graph}.g").read_text(encoding="utf-8"), rng)
        name = f"{group}:{graph}:p{p}"
        entries.append((name, {"group": group, "p": p, "text": text}))
    return Generated(
        tuple(entries), ("zp:apollonian5:p4", "klein:apollonian5:p4")
    )


def build_nf_dense(fp, generated: Generated) -> list[Item]:
    items = []
    for name, payload in generated.entries:
        parsed = fp.formats.parse_graph_text(payload["text"])
        if payload["group"] == "zp":
            items.append(Item(name, _zp_item(fp, parsed.as_digraph(), payload["p"])))
        else:
            items.append(Item(name, _klein_item(fp, parsed.as_undirected())))
    return items


def _zp_item(fp, d, p):
    def run() -> int:
        nf = fp.flow_polynomial_normal_form(d, p)
        if nf != fp.conformal_normal_form(d, p):
            raise CheckFailed("normal form differs from the conformal route")
        return 0

    return run


def _klein_item(fp, u):
    def run() -> int:
        nf = fp.four_flow_polynomial_normal_form(u)
        if nf != fp.fourflow.conformal_pair_normal_form(u):
            raise CheckFailed("Klein normal form differs from the conformal route")
        return 0

    return run


# ------------------------------------------------------------- enum-sparse

ENUM_ITEMS = 100
# Vertex counts cycled per modulus. At p=4 and 9 vertices the conformal
# aggregation exceeds the default work bound. The doubled 8 puts the median
# item inside one size class (p=3, 8 vertices), not on a class boundary
# where it would jump between class times from run to run.
ENUM_SIZES = {3: (7, 8, 8, 9), 4: (6, 7)}
ENUM_CHORDS = (2, 3, 4)


def random_sparse_digraph(rng: random.Random, n: int, chords: int) -> str:
    """A random spanning tree on n vertices plus `chords` extra arcs
    between vertices not yet adjacent, every arc randomly oriented."""
    vertices = _tokens(rng, "v", n)
    rng.shuffle(vertices)
    pairs = [(vertices[k], vertices[rng.randrange(k)]) for k in range(1, n)]
    adjacent = {frozenset(pair) for pair in pairs}
    free = [
        (u, v) for i, u in enumerate(vertices) for v in vertices[i + 1 :]
        if frozenset((u, v)) not in adjacent
    ]
    pairs += rng.sample(free, chords)
    ids = _tokens(rng, "a", len(pairs))
    rng.shuffle(ids)
    lines = []
    for aid, (u, v) in zip(ids, pairs):
        if rng.random() < 0.5:
            u, v = v, u
        lines.append(f"a {aid} {u} {v}")
    return "\n".join(lines) + "\n"


def generate_enum_sparse(seed: int) -> Generated:
    """A fixed schedule of sizes (p alternating 3, 4; vertex and chord
    counts cycled), with the seed drawing each graph's shape and ids."""
    rng = random.Random(f"enum-sparse/{seed}")
    entries = []
    for i in range(ENUM_ITEMS):
        p = 3 if i % 2 == 0 else 4
        sizes = ENUM_SIZES[p]
        n = sizes[(i // 2) % len(sizes)]
        chords = ENUM_CHORDS[(i // 2) % len(ENUM_CHORDS)]
        text = random_sparse_digraph(rng, n, chords)
        entries.append(
            (f"{i:03d}:n{n}:c{chords}:p{p}", {"p": p, "n": n, "m": n - 1 + chords, "text": text})
        )
    memory = tuple(name for name, _ in entries[:6])
    return Generated(tuple(entries), memory)


def build_enum_sparse(fp, generated: Generated) -> list[Item]:
    items = []
    for name, payload in generated.entries:
        d = fp.formats.parse_graph_text(payload["text"]).as_digraph()
        items.append(Item(name, _enum_item(fp, d, payload["p"], payload["n"], payload["m"])))
    return items


def _enum_item(fp, d, p, n, m):
    def run() -> int:
        conformal = fp.has_nz_flow_conformal(d, p)
        witness = fp.find_nz_flow(d, p)
        if conformal != (witness is not None):
            raise CheckFailed("conformal and brute-force deciders disagree")
        if witness is not None and not (witness.is_nowhere_zero and fp.is_flow(d, witness)):
            raise CheckFailed("brute-force witness is not a nowhere-zero flow")
        # the generator builds connected graphs: cyclomatic m-n+1, kappa 1
        if len(fp.enumerate_flows(d, p)) != p ** (m - n + 1):
            raise CheckFailed("flow count is not p^cyclomatic")
        if len(fp.enumerate_dual_flows(d, p)) != p ** (n - 1):
            raise CheckFailed("tension count is not p^(|V|-kappa)")
        psi = fp.ZpMap(p, {a: 0 for a in d.sorted_arc_ids})
        by_subset = fp.count_conformal_dual_flows(d, psi, p, "subset")
        by_tension = fp.count_conformal_dual_flows(d, psi, p, "tension")
        if (by_subset.even, by_subset.odd) != (by_tension.even, by_tension.odd):
            raise CheckFailed("conformal count methods disagree")
        if not fp.check_coloring_correspondence(d.underlying(), p).agrees:
            raise CheckFailed("coloring correspondence fails")
        if p == 4:
            u = d.underlying()
            table = fp.four_flow_coefficient_table(u)
            klein_witness = fp.find_nz_four_flow(u)
            by_table = any(c != 0 for c in table.values())
            if not by_table == (klein_witness is not None) == (witness is not None):
                raise CheckFailed("Klein table, Klein brute force and Z_4 disagree")
        return 0

    return run


# -------------------------------------------------------------- corpus-cli

def corpus_commands() -> list[tuple[str, ...]]:
    """The fixed command lines, paths relative to the repository root."""

    def g(name):
        return f"corpus/{name}.g"

    cmds = []
    for graph in ("example", "c3", "k4_embedded"):
        for p in ("3", "4", "5"):
            cmds.append(("verify", "-p", p, g(graph)))
    cmds += [
        ("verify", "-p", "4", g("w4")),
        ("verify", "-p", "3", g("w5")),
        ("verify", "-p", "4", g("w5")),
        ("verify", "-p", "3", g("apollonian5")),
        ("verify", "-p", "3", g("k5")),
        ("verify", "-p", "3", g("fan7")),
        ("verify", "-p", "5", g("k4")),
        # mid-sized checks (100-300 ms) so that the median item lies in a
        # cluster of similar times rather than in the gap above the tiny ones
        ("verify", "-p", "3", g("k4")),
        ("verify", "-p", "4", g("k4")),
        ("verify", "-p", "4", g("diamond")),
        ("verify", "-p", "5", g("diamond")),
        ("verify", "-p", "3", g("bowtie")),
        ("verify", "-p", "4", g("bowtie")),
        ("verify", "-p", "5", g("c5")),
        ("verify", "-p", "5", g("triangle_multi")),
        ("verify", "-p", "4", g("two_triangles_disjoint")),
        ("four-flow", "--json", "--table", g("apollonian5")),
        ("planar-check", "-p", "3", g("k4_embedded")),
        ("coeff-table", "-p", "4", g("w5")),
        ("normal-form", "--json", "-p", "4", g("w4")),
        ("color", "-p", "3", g("petersen")),
        ("dual", g("k4_embedded")),
    ]
    # outputs with golden files, checked when the references are recorded
    cmds += list(GOLDEN)
    return cmds


GOLDEN = {
    ("normal-form", "-p", "3", "corpus/example.g"): "example_normal_form_p3.txt",
    ("normal-form", "-p", "3", "--json", "corpus/example.g"): "example_normal_form_p3.json",
    ("coeff-table", "-p", "3", "--json", "corpus/example.g"): "example_coeff_table_p3.json",
    ("dual", "corpus/example.g"): "example_dual.txt",
    ("four-flow", "--json", "corpus/parallel3.g"): "parallel3_four_flow.json",
    ("chordal-orient", "corpus/k4.g"): "k4_chordal_cert.json",
}


def generate_corpus_cli(seed: int) -> Generated:
    rng = random.Random(f"corpus-cli/{seed}")
    cmds = corpus_commands()
    rng.shuffle(cmds)
    entries = tuple((" ".join(argv), {"argv": list(argv)}) for argv in cmds)
    memory = (
        "verify -p 4 corpus/k4_embedded.g",
        "coeff-table -p 4 corpus/w5.g",
    )
    return Generated(entries, memory)


def run_cli(fp, argv) -> tuple[int, bytes]:
    """flowpoly.cli.main in process, stdout captured, stderr discarded."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = fp.cli.main(list(argv))
    return code, out.getvalue().encode("utf-8")


def build_corpus_cli(fp, generated: Generated) -> list[Item]:
    refs = json.loads(REFS.read_text(encoding="utf-8"))
    items = []
    for name, payload in generated.entries:
        ref = refs[name]
        items.append(Item(name, _cli_item(fp, payload["argv"], ref)))
    return items


def _cli_item(fp, argv, ref):
    def run() -> int:
        code, out = run_cli(fp, argv)
        if code != ref["exit"]:
            raise CheckFailed(f"exit code {code}, reference {ref['exit']}")
        if hashlib.sha256(out).hexdigest() != ref["sha256"]:
            raise CheckFailed("stdout differs from the reference")
        return len(out)

    return run


# ---------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], Generated]
    build: Callable[..., list[Item]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("nf-dense", generate_nf_dense, build_nf_dense),
        Workload("enum-sparse", generate_enum_sparse, build_enum_sparse),
        Workload("corpus-cli", generate_corpus_cli, build_corpus_cli),
    )
}
