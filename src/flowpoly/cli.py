"""Command-line front end.

Exit codes: 0 success, 1 a verification cross-check disagreed, 2 bad
input (parse or validation errors), 3 an enumeration or term bound was
exceeded, 4 an internal error (a bug; the traceback goes to stderr).

Each command builds every artifact (normal form, coefficient table,
witness) at most once and passes it on to the checks that need it. Output
goes to stdout in chunks through the writers of formats.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from itertools import product

from . import __version__
from .embedding import plane_dual
from .errors import (
    BoundExceeded,
    EmbeddingError,
    GraphFormatError,
    PreconditionError,
    VerificationError,
)
from .flows import (
    ZpMap,
    _circulations,
    _conformal_counts,
    _flow_test,
    _tensions,
    _zp,
    count_conformal_dual_flows,
    count_conformal_flows,
    find_nz_flow,
    has_nz_flow_brute,
    has_nz_flow_conformal,
    coefficient_table,
    coloring_from_dual_flow,
    is_p_colorable,
)
from .formats import (
    dump_json,
    graph_to_text,
    klein_map_to_json,
    load_graph,
    pair_poly_to_json,
    pair_poly_to_text,
    parse_zp_map,
    quotient_poly_to_json,
    quotient_poly_to_text,
    table_to_json,
    table_to_text,
    zp_map_to_json,
    zp_map_to_text,
)
from .fourflow import (
    four_flow_coefficient_table,
    four_flow_polynomial_normal_form,
    conformal_pair_normal_form,
    find_nz_four_flow,
    has_nz_four_flow,
    _three_way_answer,
)
from .graphs import cyclomatic_number, kappa
from .quotient import (
    _evaluator,
    conformal_normal_form,
    flow_polynomial_normal_form,
    has_nz_flow_membership,
)
from .structure import (
    _planar_report,
    chordal_orientation,
    check_coloring_correspondence,
    check_planar_duality,
)


def _color(text: str, code: str) -> str:
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _yes(flag: bool) -> str:
    return _color("YES", "32") if flag else _color("NO", "31")


def _read_map(path, g, p: int, name: str) -> ZpMap:
    """The Z_p map in a file, checked against the command's p and g's arcs."""
    with open(path, encoding="utf-8") as fh:
        phi = parse_zp_map(fh.read())
    if phi.p != p:
        raise PreconditionError(f"{name} has p={phi.p}, command uses p={p}")
    phi.check_domain(g)
    return phi


def cmd_normal_form(args) -> int:
    g = load_graph(args.file).as_digraph()
    nf = flow_polynomial_normal_form(g, args.p, max_terms=args.bound)
    if args.json:
        dump_json(quotient_poly_to_json(nf), sys.stdout)
    else:
        quotient_poly_to_text(nf, sys.stdout)
        sys.stdout.write("\n")
    return 0


def cmd_nz_flow(args) -> int:
    g = load_graph(args.file).as_digraph()
    witness = None
    if args.method == "membership":
        answer = has_nz_flow_membership(g, args.p, max_terms=args.bound)
    elif args.method == "conformal":
        answer = has_nz_flow_conformal(g, args.p, max_states=args.bound)
    else:
        witness = find_nz_flow(g, args.p, max_states=args.bound)
        answer = witness is not None
    if args.json:
        payload = {"answer": answer, "method": args.method}
        if witness is not None:
            payload["witness"] = zp_map_to_json(witness)
        dump_json(payload, sys.stdout)
    else:
        print(_yes(answer))
        if witness is not None:
            print(f"witness: {zp_map_to_text(witness)}")
    return 0


def cmd_conformal(args) -> int:
    g = load_graph(args.file).as_digraph()
    psi = _read_map(args.psi, g, args.p, "psi")
    if args.dual:
        counts = count_conformal_dual_flows(g, psi, args.p, max_states=args.bound)
    else:
        counts = count_conformal_flows(g, psi, args.p, max_states=args.bound)
    if args.json:
        payload = {
            "dual": bool(args.dual),
            "even": counts.even,
            "odd": counts.odd,
            "c": counts.coefficient,
        }
        dump_json(payload, sys.stdout)
    else:
        kind = "dual flows" if args.dual else "flows"
        print(
            f"{counts.even} even, {counts.odd} odd conformal {kind}; "
            f"c(psi) = {counts.coefficient}"
        )
    return 0


def cmd_coeff_table(args) -> int:
    g = load_graph(args.file).as_digraph()
    table = coefficient_table(g, args.p, max_states=args.bound)
    if args.json:
        dump_json({"p": args.p, "entries": table_to_json(table)}, sys.stdout)
    elif table:
        table_to_text(table, sys.stdout)
    else:
        print("(all coefficients are zero)")
    return 0


def cmd_four_flow(args) -> int:
    g = load_graph(args.file).as_undirected()
    nf = four_flow_polynomial_normal_form(g, max_terms=args.bound)
    # the table is built only to be printed; else the decider answers
    if args.table:
        table = four_flow_coefficient_table(g, max_states=args.bound)
        by_conformal = bool(table)
    else:
        by_conformal = has_nz_four_flow(g, "conformal", max_states=args.bound)
    witness = find_nz_four_flow(g, max_states=args.bound)
    answer = _three_way_answer(not nf.is_zero, by_conformal, witness is not None)
    if args.json:
        payload = {"normal_form": pair_poly_to_json(nf), "nz_four_flow": answer}
        if witness is not None:
            payload["witness"] = klein_map_to_json(witness)
        if args.table:
            payload["table"] = table_to_json(table)
        dump_json(payload, sys.stdout)
        return 0
    print(f"nowhere-zero four-flow: {_yes(answer)}")
    sys.stdout.write("normal form: ")
    pair_poly_to_text(nf, sys.stdout)
    sys.stdout.write("\n")
    if witness is not None:
        pairs = "; ".join(
            f"{e}=({v[0]},{v[1]})" for e, v in sorted(witness.values.items())
        )
        print(f"witness: {pairs}")
    if args.table:
        table_to_text(table, sys.stdout)
    return 0


def cmd_chordal_orient(args) -> int:
    g = load_graph(args.file).as_undirected()
    cert = chordal_orientation(g)
    dump_json(cert.as_dict(), sys.stdout)
    return 0


def cmd_planar_check(args) -> int:
    parsed = load_graph(args.file)
    if parsed.rotation is None:
        raise PreconditionError("planar-check needs rot records in the file")
    g = parsed.as_digraph()
    report = check_planar_duality(
        g, parsed.rotation, args.p, max_states=args.bound, max_terms=args.bound
    )
    dump_json(report.as_dict(), sys.stdout)
    return 0 if (report.agrees and report.bijection_ok) else 1


def cmd_dual(args) -> int:
    parsed = load_graph(args.file)
    if parsed.rotation is None:
        raise PreconditionError("dual needs rot records in the file")
    g = parsed.as_digraph()
    result = plane_dual(g, parsed.rotation)
    sys.stdout.write(graph_to_text(result.dual, result.rotation))
    return 0


def cmd_color(args) -> int:
    parsed = load_graph(args.file)
    g = parsed.as_undirected()
    if args.from_dual_flow:
        d = parsed.as_digraph()
        phi = _read_map(args.from_dual_flow, d, args.p, "the dual flow")
        omega = coloring_from_dual_flow(d, phi)
        if args.json:
            dump_json({"coloring": omega}, sys.stdout)
        else:
            print("; ".join(f"{v}={omega[v]}" for v in sorted(omega)))
        return 0
    answer = is_p_colorable(g, args.p, max_states=args.bound)
    if args.json:
        dump_json({"colorable": answer, "p": args.p}, sys.stdout)
    else:
        print(_yes(answer))
    return 0


def _verify_checks(args):
    parsed = load_graph(args.file)
    g = parsed.as_digraph()
    p = args.p
    bound = args.bound

    nf = flow_polynomial_normal_form(g, p, max_terms=bound)
    identity = conformal_normal_form(g, p, max_states=bound)
    by_membership = not nf.is_zero
    # the identity is p^kappa times the table, so it is zero just when the table is
    by_conformal = not identity.is_zero
    by_brute = has_nz_flow_brute(g, p, max_states=bound)
    yield (
        "deciders-agree",
        by_membership == by_conformal == by_brute,
        f"membership={by_membership} conformal={by_conformal} brute={by_brute}",
    )

    flows = sum(1 for _ in _circulations(g, _zp(p), bound))
    tensions = sum(1 for _ in _tensions(g, _zp(p), bound))
    ok_counts = flows == p ** cyclomatic_number(g) and tensions == p ** (len(g.vertices) - kappa(g))
    yield ("enumeration-counts", ok_counts, f"{flows} flows, {tensions} tensions")

    yield (
        "normal-form-identity",
        nf == identity,
        "polynomial route vs conformal route",
    )

    n_assignments = (p - 1) ** len(g.arcs)
    if n_assignments > 4096:
        yield ("evaluation-dichotomy", True, "skipped (too many points)")
    # each vertex at each point builds a factor or takes a product in Z[rho],
    # about p^2 coordinate operations either way
    elif n_assignments * len(g.vertices) * p * p > 2**24:
        yield ("evaluation-dichotomy", True, "skipped (too much ring work)")
    else:
        # the value from the ring against the one the group flow test predicts
        evaluate = _evaluator(g, p)
        conserves = _flow_test(g, _zp(p))
        pv = p ** len(g.vertices)
        ok = all(
            evaluate(codes).as_int() == (pv if conserves(codes) else 0)
            for codes in product(range(1, p), repeat=len(g.arcs))
        )
        yield ("evaluation-dichotomy", ok, f"{n_assignments} points")

    few = n_assignments <= 256  # else psi = 0 only
    psis = list(product(range(p - 1 if few else 1), repeat=len(g.arcs)))
    by_subsets = _conformal_counts(g, p, psis, True, "subset", bound)
    by_tensions = _conformal_counts(g, p, psis, True, "tension", bound)
    detail = f"{n_assignments} psi checked" if few else "psi = 0 only"
    yield ("conformal-count-methods", by_subsets == by_tensions, detail)

    report = check_coloring_correspondence(g.underlying(), p, max_states=bound)
    yield (
        "coloring-correspondence",
        report.agrees,
        f"colorable={report.colorable} dually_flowing={report.dually_flowing}",
    )

    if parsed.rotation is not None:
        parsed.rotation.validate(g)
        if kappa(g) == 1:  # plane duality needs a connected graph
            dual = plane_dual(g, parsed.rotation)
            planar = _planar_report(g, dual, p, by_membership, bound)
            yield (
                "planar-duality",
                planar.agrees and planar.bijection_ok,
                f"nz_flow={planar.nz_flow} bijection_ok={planar.bijection_ok}",
            )

    if p == 4:
        u = parsed.as_undirected()
        nf4 = four_flow_polynomial_normal_form(u, max_terms=bound)
        identity4 = conformal_pair_normal_form(u, max_states=bound)
        witness4 = find_nz_four_flow(u, max_states=bound)
        klein = _three_way_answer(
            not nf4.is_zero, not identity4.is_zero, witness4 is not None
        )
        yield (
            "four-flow-group-independence",
            klein == by_membership,
            f"klein={klein} z4={by_membership}",
        )
        yield ("four-flow-identity", nf4 == identity4, "pair normal form")


def cmd_verify(args) -> int:
    failures = 0
    for name, ok, detail in _verify_checks(args):
        status = _color("ok", "32") if ok else _color("FAIL", "31")
        print(f"{status:4s} {name}: {detail}" if detail else f"{status:4s} {name}")
        if not ok:
            failures += 1
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowpoly",
        description=(
            "Exact nowhere-zero flow computations: flow polynomials, ideal "
            "normal forms, conformal dual-flow counts, plane duality, and "
            "the chordal orientation construction."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, p_required=True, **extra):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(fn=fn)
        if p_required:
            sp.add_argument("-p", type=int, required=True, help="modulus, at least 2")
        sp.add_argument(
            "--bound",
            type=int,
            default=None,
            help="override the enumeration/term bounds",
        )
        sp.add_argument("file", help="graph file")
        return sp

    sp = add("normal-form", cmd_normal_form, "normal form of the flow polynomial")
    sp.add_argument("--json", action="store_true")

    sp = add("nz-flow", cmd_nz_flow, "decide nowhere-zero p-flow existence")
    sp.add_argument(
        "--method",
        choices=("membership", "conformal", "brute"),
        default="membership",
    )
    sp.add_argument("--json", action="store_true")

    sp = add("conformal", cmd_conformal, "even/odd conformal counts for a psi")
    sp.add_argument("--psi", required=True, help="map file (text or JSON)")
    sp.add_argument(
        "--dual", action="store_true", help="count dual flows instead of flows"
    )
    sp.add_argument("--json", action="store_true")

    sp = add("coeff-table", cmd_coeff_table, "nonzero conformal coefficients")
    sp.add_argument("--json", action="store_true")

    sp = add("four-flow", cmd_four_flow, "Klein four-flow analysis", p_required=False)
    sp.add_argument("--table", action="store_true", help="include the c(psi) table")
    sp.add_argument("--json", action="store_true")

    add(
        "chordal-orient",
        cmd_chordal_orient,
        "orientation certificate for a bridgeless chordal graph",
        p_required=False,
    )

    add("planar-check", cmd_planar_check, "plane-duality cross check")

    add("dual", cmd_dual, "plane dual in graph text format", p_required=False)

    sp = add("color", cmd_color, "p-colorability, or a coloring from a tension")
    sp.add_argument(
        "--from-dual-flow",
        metavar="MAPFILE",
        help="construct the coloring induced by this nowhere-zero tension",
    )
    sp.add_argument("--json", action="store_true")

    add("verify", cmd_verify, "run every applicable cross-check")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "p", None) is not None and args.p < 2:
        print("error: p must be at least 2", file=sys.stderr)
        return 2
    if args.bound is not None and args.bound < 1:
        print("error: --bound must be at least 1", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GraphFormatError, EmbeddingError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
