"""Exact nowhere-zero flow computations on directed multigraphs.

The package decides nowhere-zero p-flow existence three independent ways
(flow-polynomial ideal membership, conformal dual-flow parity counts, and
brute-force enumeration), provides the Klein four-flow variant, plane
duality through rotation systems, and the constructive orientation of
bridgeless chordal graphs. Everything is exact integer arithmetic.

Every route runs on code tuples and packed integer keys, and a normal form
comes only from a graph. Poly, flow_polynomial_raw and cyclotomic_eval are
the expanded Z_p references that the packed fold and the evaluator are
tested against.
"""

from .cyclotomic import CyclotomicInt, cyclotomic_eval, cyclotomic_polynomial
from .embedding import End, PlaneDual, RotationSystem, plane_dual, trace_faces
from .errors import (
    BoundExceeded,
    EmbeddingError,
    FlowPolyError,
    GraphFormatError,
    PreconditionError,
    VerificationError,
)
from .flows import (
    ConformalCount,
    ConformalTable,
    ZpMap,
    coefficient_table,
    coloring_from_dual_flow,
    count_conformal_dual_flows,
    count_conformal_flows,
    enumerate_dual_flows,
    enumerate_flows,
    find_nz_flow,
    has_nz_flow_brute,
    has_nz_flow_conformal,
    is_dual_flow,
    is_flow,
    is_p_colorable,
)
from .fourflow import (
    KleinMap,
    PairQuotientPoly,
    enumerate_klein_circulations,
    find_nz_four_flow,
    four_flow_coefficient_table,
    four_flow_polynomial_normal_form,
    has_nz_four_flow,
)
from .graphs import (
    Arc,
    Circuit,
    Digraph,
    Edge,
    UndirectedGraph,
    circuits,
    connected_components,
    contract,
    find_small_circuit,
    is_bridgeless,
    is_chordal,
    kappa,
    orient,
    reverse_arcs,
)
from .polynomials import Poly
from .quotient import (
    QuotientPoly,
    conformal_normal_form,
    flow_poly_eval,
    flow_polynomial_normal_form,
    flow_polynomial_raw,
    has_nz_flow_membership,
    surplus_eval,
)
from .structure import (
    ColoringReport,
    OrientationCertificate,
    PlanarReport,
    chordal_orientation,
    check_coloring_correspondence,
    check_planar_duality,
    verify_unique_zero_conformal,
)

__version__ = "0.1.0"
