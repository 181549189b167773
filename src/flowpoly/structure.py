"""Constructive structural checks built on the flow machinery.

chordal_orientation realizes the inductive orientation of a bridgeless
chordal graph: repeatedly pick a circuit of size at most three, orient it
as a directed cycle, contract it, and recurse; the certificate records
every step. Its `verified` flag means that the trace was replayed: each
step's circuit is again the one find_small_circuit picks on the contracted
graph, the orientation matches the recorded directions, and every edge is
used once. The defining property, that the zero map is the only
0-conformal dual four-flow, is not checked here;
verify_unique_zero_conformal checks it by exhaustive enumeration.

check_planar_duality ties nowhere-zero flow existence of an embedded
digraph to conformal flow counts on its plane dual and also verifies the
underlying value bijection between tensions of the primal and flows of
the dual, which is what validates the left-to-right dual convention.
"""

from __future__ import annotations

from dataclasses import dataclass

from .embedding import PlaneDual, RotationSystem, plane_dual
from .errors import PreconditionError, VerificationError
from .flows import (
    ZpMap,
    _circulations,
    _conformal_counts,
    _map_of,
    _tensions,
    _zp,
    coloring_from_dual_flow,
    flow_conformal_table,
    is_p_colorable,
)
from .graphs import (
    Digraph,
    UndirectedGraph,
    _small_circuit_walk,
    contract,
    find_small_circuit,
    is_bridgeless,
    is_chordal,
    orient,
)
from .quotient import has_nz_flow_membership


@dataclass(frozen=True)
class OrientationStep:
    """One induction step: the chosen circuit and its directed cycle,
    as (edge id, keep stored endpoint order) flags."""

    circuit: tuple[str, ...]
    directions: tuple[tuple[str, bool], ...]


@dataclass(frozen=True)
class OrientationCertificate:
    digraph: Digraph
    steps: tuple[OrientationStep, ...]
    verified: bool

    def as_dict(self) -> dict:
        return {
            "steps": [
                {
                    "circuit": list(s.circuit),
                    "orientation": [
                        (eid if keep else f"-{eid}")
                        for eid, keep in s.directions
                    ],
                }
                for s in self.steps
            ],
            "orientation": {
                a.id: [a.tail, a.head] for a in self.digraph.arcs
            },
            "verified": self.verified,
        }


def chordal_orientation(g: UndirectedGraph) -> OrientationCertificate:
    """Orient a bridgeless chordal graph so that the zero map is its only
    0-conformal dual four-flow; certificate carries the contraction trace.
    """
    if not is_bridgeless(g):
        raise PreconditionError("graph has a bridge")
    if not is_chordal(g):
        raise PreconditionError("graph is not chordal")

    steps: list[OrientationStep] = []
    flags: dict[str, bool] = {}
    current = g
    while current.edges:
        circ = _small_circuit_walk(current)
        if circ is None:
            raise PreconditionError(
                "no circuit of size <= 3 in a nonempty contraction; "
                "the inductive assumption failed for the graph with edges "
                f"{current.sorted_edge_ids}"
            )
        # walked as found, the circuit is a directed cycle: its steps are the flags
        steps.append(OrientationStep(tuple(sorted(circ.edge_ids)), circ.steps))
        for eid, keep in circ.steps:
            flags[eid] = keep
        current = contract(current, circ.edge_ids)

    choice = {}
    for e in g.edges:
        if flags[e.id]:
            choice[e.id] = (e.u, e.v)
        else:
            choice[e.id] = (e.v, e.u)
    oriented = orient(g, choice)
    verified = _replay_trace(g, steps, oriented)
    return OrientationCertificate(oriented, tuple(steps), verified)


def _replay_trace(
    g: UndirectedGraph, steps: list[OrientationStep], oriented: Digraph
) -> bool:
    current = g
    seen: set[str] = set()
    for step in steps:
        ids = set(step.circuit)
        if ids & seen or not ids <= set(current.edge_by_id):
            return False
        circ = find_small_circuit(current)
        if circ is None or set(circ.edge_ids) != ids:
            return False
        seen |= ids
        current = contract(current, ids)
        for eid, keep in step.directions:
            e = g.edge_by_id[eid]
            arc = oriented.arc_by_id[eid]
            expected = (e.u, e.v) if keep else (e.v, e.u)
            if (arc.tail, arc.head) != expected:
                return False
    return not current.edges and seen == set(g.edge_by_id)


def verify_unique_zero_conformal(d: Digraph, max_states: int | None = None) -> bool:
    """True when the zero map is the only dual 4-flow valued in {0, 3}."""
    for values in _tensions(d, _zp(4), max_states):
        codes = set(values)
        if codes <= {0, 3} and 3 in codes:
            return False
    return True


@dataclass(frozen=True)
class PlanarReport:
    p: int
    nz_flow: bool
    dual_witness_psi: dict[str, int] | None
    counts: dict[str, int] | None
    agrees: bool
    bijection_ok: bool
    dual: PlaneDual

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "nz_flow": self.nz_flow,
            "dual_witness_psi": self.dual_witness_psi,
            "counts": self.counts,
            "agrees": self.agrees,
            "bijection_ok": self.bijection_ok,
        }


def check_planar_duality(
    g: Digraph,
    rot: RotationSystem,
    p: int,
    max_states: int | None = None,
    max_terms: int | None = None,
) -> PlanarReport:
    """Cross-check flow existence against conformal counts on the dual.

    Computes (a) nowhere-zero p-flow existence of g by the membership
    route and (b) existence of a nowhere-(p-1) map psi on the dual whose
    even and odd conformal flow counts differ; reports whether they agree.
    Also checks that tensions of g and flows of the dual coincide as value
    tuples under the identity arc bijection.
    """
    result = plane_dual(g, rot)
    return _planar_report(g, result, p, has_nz_flow_membership(g, p, max_terms), max_states)


def _planar_report(g: Digraph, result: PlaneDual, p: int, nz: bool, max_states) -> PlanarReport:
    """check_planar_duality on the plane dual of g, given (a) as nz; verify
    passes the answer of the normal form it has built."""
    dual = result.dual
    table = flow_conformal_table(dual, p, max_states)
    if table:
        # every entry is nonzero, so the least psi is the first imbalance;
        # Z_p values are their own codes
        psi = min(table)
        even, odd = _conformal_counts(dual, p, [psi], False, "auto", max_states)[0]
        witness = dict(zip(dual.sorted_arc_ids, psi))
        counts_dict = {"even": even, "odd": odd}
        dual_route = even != odd
        if not dual_route:
            raise VerificationError(
                "table reported an imbalance the direct count does not see"
            )
    else:
        witness = None
        counts_dict = None
        dual_route = False

    # the dual keeps the primal arc ids, so both sets are over the same sorted ids
    tensions = set(_tensions(g, _zp(p), max_states))
    bijection_ok = tensions == set(_circulations(dual, _zp(p), max_states))

    return PlanarReport(
        p=p,
        nz_flow=nz,
        dual_witness_psi=witness,
        counts=counts_dict,
        agrees=(nz == dual_route),
        bijection_ok=bijection_ok,
        dual=result,
    )


@dataclass(frozen=True)
class ColoringReport:
    p: int
    colorable: bool
    dually_flowing: bool
    agrees: bool
    coloring: dict[str, int] | None


def check_coloring_correspondence(
    g: UndirectedGraph, p: int, max_states: int | None = None
) -> ColoringReport:
    """Colorability against nowhere-zero tension existence on one fixed
    orientation (reorienting only negates arc values, so existence does
    not depend on the choice). On success the tension is turned into a
    coloring, which is checked to be proper."""
    colorable = is_p_colorable(g, p, max_states)
    d = orient(g)
    values = next((v for v in _tensions(d, _zp(p), max_states) if all(v)), None)
    flowing = values is not None
    coloring = None
    if flowing:
        coloring = coloring_from_dual_flow(d, _map_of(ZpMap, p, d.sorted_arc_ids, values))
        for e in g.edges:
            if not e.is_loop and coloring[e.u] == coloring[e.v]:
                raise RuntimeError("constructed coloring is not proper; this is a bug")
    return ColoringReport(
        p=p,
        colorable=colorable,
        dually_flowing=flowing,
        agrees=(colorable == flowing),
        coloring=coloring,
    )
