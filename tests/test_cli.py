import hashlib
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from collections import Counter

import pytest

import oracles
from flowpoly import cli
from flowpoly.cli import main
from flowpoly.cyclotomic import CyclotomicInt
from flowpoly.flows import (
    ZpMap,
    coefficient_table,
    count_conformal_flows,
    find_nz_flow,
    is_p_colorable,
)
from flowpoly.formats import load_graph, parse_zp_map
from flowpoly.fourflow import (
    KleinMap,
    find_nz_four_flow,
    four_flow_coefficient_table,
    four_flow_polynomial_normal_form,
)
from flowpoly.quotient import flow_polynomial_normal_form
from flowpoly.structure import chordal_orientation, check_planar_duality


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNormalForm:
    def test_matches_golden_text(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "normal-form", "-p", 3, corpus_dir / "example.g")
        assert code == 0
        golden = (corpus_dir / "golden" / "example_normal_form_p3.txt").read_text()
        assert out == golden

    def test_matches_golden_json(self, capsys, corpus_dir):
        code, out, _ = run(
            capsys, "normal-form", "-p", 3, "--json", corpus_dir / "example.g"
        )
        assert code == 0
        golden = (corpus_dir / "golden" / "example_normal_form_p3.json").read_text()
        assert out == golden

    def test_byte_stable(self, capsys, corpus_dir):
        _, first, _ = run(
            capsys, "normal-form", "-p", 3, "--json", corpus_dir / "example.g"
        )
        _, second, _ = run(
            capsys, "normal-form", "-p", 3, "--json", corpus_dir / "example.g"
        )
        assert first == second


class TestNzFlow:
    def test_membership_yes(self, capsys, corpus_dir):
        code, out, _ = run(
            capsys, "nz-flow", "-p", 3, "--method", "membership",
            corpus_dir / "example.g",
        )
        assert code == 0
        assert out.strip() == "YES"

    def test_brute_witness(self, capsys, corpus_dir):
        code, out, _ = run(
            capsys, "nz-flow", "-p", 3, "--method", "brute", "--json",
            corpus_dir / "example.g",
        )
        assert code == 0
        data = json.loads(out)
        assert data["answer"] is True
        values = data["witness"]["values"]
        assert tuple(values[a] for a in ("e1", "e2", "e3")) in (
            (1, 2, 1), (2, 1, 2),
        )

    def test_petersen_brute_no(self, capsys, corpus_dir):
        code, out, _ = run(
            capsys, "nz-flow", "-p", 4, "--method", "brute",
            corpus_dir / "petersen.g",
        )
        assert code == 0
        assert out.strip() == "NO"

    def test_single_edge_no(self, capsys, corpus_dir):
        for method in ("membership", "conformal", "brute"):
            code, out, _ = run(
                capsys, "nz-flow", "-p", 5, "--method", method,
                corpus_dir / "single_edge.g",
            )
            assert code == 0
            assert out.strip() == "NO"


class TestConformal:
    def test_dual_counts(self, capsys, corpus_dir):
        code, out, _ = run(
            capsys, "conformal", "-p", 3,
            "--psi", corpus_dir / "example_psi_110.map",
            "--dual", "--json", corpus_dir / "example.g",
        )
        assert code == 0
        data = json.loads(out)
        assert (data["even"], data["odd"], data["c"]) == (1, 0, 1)

    def test_flow_counts(self, capsys, corpus_dir):
        code, out, _ = run(
            capsys, "conformal", "-p", 3,
            "--psi", corpus_dir / "example_psi_110.map",
            "--json", corpus_dir / "example.g",
        )
        data = json.loads(out)
        assert (data["even"], data["odd"], data["c"]) == (3, 0, 3)

    def test_text_counts(self, capsys, corpus_dir):
        argv = ("conformal", "-p", 3, "--psi", corpus_dir / "example_psi_110.map")
        code, out, _ = run(capsys, *argv, corpus_dir / "example.g")
        assert code == 0 and out == "3 even, 0 odd conformal flows; c(psi) = 3\n"
        code, out, _ = run(capsys, *argv, "--dual", corpus_dir / "example.g")
        assert code == 0 and out == "1 even, 0 odd conformal dual flows; c(psi) = 1\n"


class TestCoeffTable:
    def test_golden(self, capsys, corpus_dir):
        code, out, _ = run(
            capsys, "coeff-table", "-p", 3, "--json", corpus_dir / "example.g"
        )
        assert code == 0
        golden = (corpus_dir / "golden" / "example_coeff_table_p3.json").read_text()
        assert out == golden


class TestFourFlow:
    def test_parallel3(self, capsys, corpus_dir):
        code, out, _ = run(
            capsys, "four-flow", "--json", corpus_dir / "parallel3.g"
        )
        assert code == 0
        golden = (corpus_dir / "golden" / "parallel3_four_flow.json").read_text()
        assert out == golden

    def test_single_edge(self, capsys, corpus_dir):
        code, out, _ = run(
            capsys, "four-flow", "--json", corpus_dir / "single_edge.g"
        )
        data = json.loads(out)
        assert data["nz_four_flow"] is False
        assert data["normal_form"]["terms"] == []


class TestChordalOrient:
    def test_k4_golden(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "chordal-orient", corpus_dir / "k4.g")
        assert code == 0
        golden = (corpus_dir / "golden" / "k4_chordal_cert.json").read_text()
        assert out == golden

    def test_rejects_c4(self, capsys, corpus_dir):
        code, _, err = run(capsys, "chordal-orient", corpus_dir / "c4.g")
        assert code == 2
        assert "chordal" in err


class TestPlanarAndDual:
    def test_planar_check(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "planar-check", "-p", 3, corpus_dir / "example.g")
        assert code == 0
        data = json.loads(out)
        assert data["agrees"] and data["bijection_ok"] and data["nz_flow"]

    def test_dual_golden(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "dual", corpus_dir / "example.g")
        assert code == 0
        golden = (corpus_dir / "golden" / "example_dual.txt").read_text()
        assert out == golden

    def test_planar_check_needs_rot(self, capsys, corpus_dir):
        code, _, err = run(capsys, "planar-check", "-p", 3, corpus_dir / "triangle.g")
        assert code == 2
        assert "rot" in err

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_undirected_embedded_file(self, capsys, tmp_path, corpus_dir, p):
        # k4_embedded with its arc records as edges: planar-check and dual
        # read it, and verify runs the planar-duality check on it too
        text = (corpus_dir / "k4_embedded.g").read_text()
        path = tmp_path / "k4_embedded_undirected.g"
        path.write_text(re.sub(r"^a ", "e ", text, flags=re.MULTILINE))
        code, out, _ = run(capsys, "planar-check", "-p", p, path)
        assert code == 0
        data = json.loads(out)
        assert data["agrees"] and data["bijection_ok"]
        code, out, _ = run(capsys, "verify", "-p", p, path)
        assert code == 0, out
        expect = f"ok   planar-duality: nz_flow={data['nz_flow']} bijection_ok=True"
        assert expect in out.splitlines()

    @pytest.mark.parametrize("p", [3, 4])
    def test_disconnected_embedded_file(self, capsys, tmp_path, p):
        # two disjoint digons, each with a plane rotation: verify runs every
        # other check and prints no planar-duality line, as for a file
        # without rot; planar-check and dual still refuse the file
        text = (
            "a e1 u v\na e2 v u\na f1 x y\na f2 y x\n"
            "rot u e1+ e2-\nrot v e1- e2+\nrot x f1+ f2-\nrot y f1- f2+\n"
        )
        path = tmp_path / "two_digons.g"
        path.write_text(text)
        code, out, err = run(capsys, "verify", "-p", p, path)
        assert (code, err) == (0, "")
        names = [line.split()[1].rstrip(":") for line in out.splitlines()]
        assert "planar-duality" not in names and "coloring-correspondence" in names
        assert ("four-flow-identity" in names) == (p == 4)
        for argv in (["planar-check", "-p", p], ["dual"]):
            code, _, err = run(capsys, *argv, path)
            assert (code, err) == (2, "error: plane duality requires a connected graph\n")
        # a bad rotation still exits 2
        path.write_text(text.replace("rot y f1- f2+", "rot y f1+ f2+"))
        code, _, err = run(capsys, "verify", "-p", p, path)
        assert code == 2 and "arc end f1+ listed at 'y'" in err


class TestColor:
    def test_verdicts(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "color", "-p", 3, corpus_dir / "triangle.g")
        assert code == 0 and out.strip() == "YES"
        code, out, _ = run(capsys, "color", "-p", 3, corpus_dir / "k4.g")
        assert code == 0 and out.strip() == "NO"

    def test_from_dual_flow(self, capsys, corpus_dir):
        code, out, _ = run(
            capsys, "color", "-p", 3,
            "--from-dual-flow", corpus_dir / "example_tension_121.map",
            "--json", corpus_dir / "example.g",
        )
        assert code == 0
        data = json.loads(out)
        assert data["coloring"] == {"v1": 0, "v2": 1}

    def test_from_dual_flow_text(self, capsys, corpus_dir):
        code, out, _ = run(
            capsys, "color", "-p", 3,
            "--from-dual-flow", corpus_dir / "example_tension_121.map",
            corpus_dir / "example.g",
        )
        assert code == 0 and out == "v1=0; v2=1\n"


class TestVerify:
    def test_example_passes(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "verify", "-p", 3, corpus_dir / "example.g")
        assert code == 0
        assert "FAIL" not in out
        assert "deciders-agree" in out

    def test_p4_includes_four_flow_checks(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "verify", "-p", 4, corpus_dir / "triangle.g")
        assert code == 0
        assert "four-flow-group-independence" in out

    def test_bundled_corpus(self, capsys, corpus_dir):
        small_enough_for_p4 = (
            "example.g", "k4.g", "c3.g", "c4.g", "c5.g", "w4.g", "bowtie.g",
            "diamond.g", "two_triangles_disjoint.g", "triangle.g",
            "parallel3.g", "single_edge.g", "single_loop.g", "path3.g",
            "triangle_multi.g",
        )
        everything = small_enough_for_p4 + (
            "w5.g", "w6.g", "petersen.g", "k5.g", "fan7.g", "flower8.g",
            "apollonian5.g",
        )
        for name in everything:
            for p in (2, 3):
                code, out, _ = run(capsys, "verify", "-p", p, corpus_dir / name)
                assert code == 0, (name, p, out)
        for name in small_enough_for_p4:
            code, out, _ = run(capsys, "verify", "-p", 4, corpus_dir / name)
            assert code == 0, (name, out)

    def assert_only_the_dichotomy_fails(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "verify", "-p", 3, corpus_dir / "example.g")
        assert code == 1
        failed = [line for line in out.splitlines() if not line.startswith("ok ")]
        assert failed == ["FAIL evaluation-dichotomy: 8 points", "1 check(s) failed"]

    def test_wrong_residue_zero_factor_fails_the_dichotomy(
        self, capsys, monkeypatch, corpus_dir
    ):
        # p + 1 instead of p at every conserving vertex: wrong only at flows
        def make(fn):
            return lambda p, r: fn(p, r) + CyclotomicInt.one(p) if r == 0 else fn(p, r)

        patch_everywhere(monkeypatch, "_vertex_factor", make)
        self.assert_only_the_dichotomy_fails(capsys, corpus_dir)

    def test_expected_values_come_from_the_flow_test(self, capsys, monkeypatch, corpus_dir):
        # a check that read its expected value off the evaluator's own
        # residues would still pass here
        monkeypatch.setattr(cli, "_flow_test", lambda g, group: lambda codes: False)
        self.assert_only_the_dichotomy_fails(capsys, corpus_dir)


class TestEvaluationWork:
    def test_factors_are_built_for_the_residues_read(self, capsys, monkeypatch, tmp_path):
        # one vertex and no arc: one point, whose one residue is 0
        g = tmp_path / "vertex.g"
        g.write_text("v a\n")
        calls = count_calls(monkeypatch, "_vertex_factor")
        code, out, _ = run(capsys, "verify", "-p", 101, g)
        assert code == 0
        assert "ok   evaluation-dichotomy: 1 points" in out.splitlines()
        assert calls["_vertex_factor"] == 1

    @pytest.mark.parametrize("p, detail", [(199, "198 points"), (211, "skipped (too much ring work)")])
    def test_the_check_is_guarded_by_its_ring_work(self, capsys, corpus_dir, p, detail):
        # p - 1 points at 2 vertices, about p^2 coordinate operations each:
        # 199 is the last prime within 2^24 of them
        code, out, _ = run(capsys, "verify", "-p", p, corpus_dir / "single_edge.g")
        assert code == 0
        assert f"ok   evaluation-dichotomy: {detail}" in out.splitlines()


class TestErrors:
    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.g"
        bad.write_text("a e1 u\n")
        code, _, err = run(capsys, "nz-flow", "-p", 3, bad)
        assert code == 2
        assert "line 1" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "nz-flow", "-p", 3, "no_such_file.g")
        assert code == 2

    def test_bound_exceeded_exit_3(self, capsys, corpus_dir):
        code, _, err = run(
            capsys, "nz-flow", "-p", 3, "--method", "brute", "--bound", 2,
            corpus_dir / "example.g",
        )
        assert code == 3
        assert "bound" in err.lower() or "exceed" in err.lower()

    def _exits_3_quickly(self, capsys, *argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert code == 3
        assert out == ""
        return err

    def test_normal_form_bound_exit_3(self, capsys, corpus_dir):
        err = self._exits_3_quickly(
            capsys, "normal-form", "-p", 3, "--bound", 100, corpus_dir / "w5.g"
        )
        assert "Z_3 normal form exceeds 100 terms at vertex" in err

    def test_four_flow_bound_exit_3(self, capsys, corpus_dir):
        err = self._exits_3_quickly(
            capsys, "four-flow", "--bound", 100, corpus_dir / "k4.g"
        )
        assert "Klein normal form exceeds 100 terms at vertex" in err

    def test_huge_p_normal_form_exits_before_expanding(self, capsys, corpus_dir):
        for p in (1000, 150):
            err = self._exits_3_quickly(
                capsys, "normal-form", "-p", p, "--bound", 100, corpus_dir / "k4.g"
            )
            assert "exceed" in err.lower()

    def test_many_parallel_edges_four_flow_exits_before_expanding(
        self, capsys, tmp_path
    ):
        g = tmp_path / "parallel14.g"
        g.write_text("".join(f"e e{i:02d} u v\n" for i in range(14)))
        err = self._exits_3_quickly(capsys, "four-flow", "--bound", 100, g)
        assert "exceed" in err.lower()

    @pytest.mark.parametrize(
        "argv",
        [
            ("nz-flow", "--method", "brute", "c3.g"),
            ("normal-form", "c3.g"),
            ("coeff-table", "c3.g"),
            ("verify", "c3.g"),
            ("planar-check", "k4_embedded.g"),
        ],
    )
    def test_huge_p_ends_in_a_bound_error_in_bounded_memory(self, corpus_dir, argv):
        # in a child with 256 MiB of address space, where a table of 10^8
        # codes does not fit: the bound is checked before any O(p) table
        limit = 256 * 2**20
        cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        command, *flags, name = argv
        done = subprocess.run(
            [sys.executable, "-m", "flowpoly", command, "-p", "100000000", *flags, corpus_dir / name],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            preexec_fn=cap,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (done.returncode, done.stdout) == (3, ""), done.stderr
        assert re.fullmatch(r"error: [^\n]*exceed[^\n]*\n", done.stderr)

    def test_p_below_two_exit_2(self, capsys, corpus_dir):
        code, _, err = run(capsys, "nz-flow", "-p", 1, corpus_dir / "example.g")
        assert code == 2

    @pytest.mark.parametrize(
        "argv", [("verify", "-p", 3), ("coeff-table", "-p", 3), ("four-flow",)]
    )
    @pytest.mark.parametrize("bound", [-5, 0])
    def test_bound_below_one_exit_2(self, capsys, corpus_dir, argv, bound):
        # a bound below 1 can never be met, so it is bad input, not a bound error
        code, out, err = run(capsys, *argv, "--bound", bound, corpus_dir / "example.g")
        assert (code, out, err) == (2, "", "error: --bound must be at least 1\n")

    def test_bound_of_one_is_accepted(self, capsys, corpus_dir):
        code, _, err = run(capsys, "coeff-table", "-p", 3, "--bound", 1, corpus_dir / "example.g")
        assert code == 3 and "exceed" in err


def patch_everywhere(monkeypatch, name, make):
    """Rebind `name`, in every flowpoly module that holds it, to
    make(original)."""
    modules = [m for n, m in sys.modules.items() if n.startswith("flowpoly")]
    fn = next(getattr(m, name) for m in modules if hasattr(m, name))
    replacement = make(fn)
    for m in modules:
        if getattr(m, name, None) is fn:
            monkeypatch.setattr(m, name, replacement)


def count_calls(monkeypatch, *names, per_group=False):
    """Calls of each of `names`, or per_group, of each name and the name of
    the group it was called with, its second argument."""
    calls = Counter()
    for name in names:

        def make(fn, name=name):
            def counted(*args, **kwargs):
                calls[(name, args[1].name) if per_group else name] += 1
                return fn(*args, **kwargs)

            return counted

        patch_everywhere(monkeypatch, name, make)
    return calls


def count_maps(monkeypatch):
    """A Counter of the ZpMap and KleinMap objects built while it lives,
    through the checked constructors and through the trusted _map_of."""
    built = Counter()
    for cls in (ZpMap, KleinMap):

        def make(init, name=cls.__name__):
            def counted(self, *args, **kwargs):
                built[name] += 1
                init(self, *args, **kwargs)

            return counted

        monkeypatch.setattr(cls, "__init__", make(cls.__init__))

    def trusted(fn):
        def counted(cls, *args):
            built[cls.__name__] += 1
            return fn(cls, *args)

        return counted

    patch_everywhere(monkeypatch, "_map_of", trusted)
    return built


class TestMapsOnlyAtTheEdge:
    def test_verify_builds_only_the_coloring_tension(self, capsys, monkeypatch, corpus_dir):
        # the counts and the planar re-count run on code tuples; the one map
        # is the nowhere-zero tension handed to coloring_from_dual_flow
        built = count_maps(monkeypatch)
        code, out, _ = run(capsys, "verify", "-p", 3, corpus_dir / "example.g")
        assert code == 0, out
        assert "enumeration-counts: 9 flows, 3 tensions" in out
        assert "planar-duality" in out
        assert built == {"ZpMap": 1}

    def test_planar_check_builds_no_map(self, capsys, monkeypatch, corpus_dir):
        built = count_maps(monkeypatch)
        code, out, _ = run(capsys, "planar-check", "-p", 3, corpus_dir / "example.g")
        assert code == 0
        assert json.loads(out)["dual_witness_psi"] == {"e1": 0, "e2": 0, "e3": 0}
        assert not built


class TestComputeOnce:
    KLEIN = ("_fold", "_tension_sums", "four_flow_coefficient_table", "find_nz_four_flow")

    def test_verify_p4_builds_each_artifact_once(self, capsys, monkeypatch, corpus_dir):
        # the conformal normal forms build on the packed sums, not on the
        # tables; one fold, one table and one witness search per group
        names = ("_fold", "_tension_sums", "_nz_flow")
        calls = count_calls(monkeypatch, *names, per_group=True)
        code, out, _ = run(capsys, "verify", "-p", 4, corpus_dir / "k4.g")
        assert code == 0, out
        assert "four-flow-identity" in out
        assert calls == {(name, group): 1 for name in names for group in ("Z_4", "Klein")}

    @pytest.mark.parametrize("p, name", [(4, "k4_embedded.g"), (5, "example.g")])
    def test_verify_with_rot_records_folds_once(self, capsys, monkeypatch, corpus_dir, p, name):
        # the plane-duality check takes the membership answer of verify's
        # own normal form instead of folding again
        calls = count_calls(monkeypatch, "_fold", per_group=True)
        code, out, _ = run(capsys, "verify", "-p", p, corpus_dir / name)
        assert code == 0, out
        assert "planar-duality: nz_flow=" in out
        assert calls[("_fold", f"Z_{p}")] == 1

    def test_four_flow_table_builds_each_artifact_once(
        self, capsys, monkeypatch, corpus_dir
    ):
        calls = count_calls(monkeypatch, *self.KLEIN)
        code, _, _ = run(capsys, "four-flow", "--table", corpus_dir / "k4.g")
        assert code == 0
        assert calls == dict.fromkeys(self.KLEIN, 1)

    def test_four_flow_without_table_builds_no_table(self, capsys, monkeypatch, corpus_dir):
        # the conformal answer comes from the Klein decider
        calls = count_calls(monkeypatch, *self.KLEIN)
        code, _, _ = run(capsys, "four-flow", corpus_dir / "k4.g")
        assert code == 0
        assert calls == {"_fold": 1, "find_nz_four_flow": 1}

    @pytest.mark.parametrize(
        "argv", [("verify", "-p", "4"), ("four-flow",), ("four-flow", "--table")]
    )
    def test_lost_witness_is_a_disagreement(self, capsys, monkeypatch, corpus_dir, argv):
        # K4 has a nowhere-zero four-flow, so a missing witness must be caught
        patch_everywhere(monkeypatch, "find_nz_four_flow", lambda fn: lambda *a, **k: None)
        code, _, err = run(capsys, *argv, corpus_dir / "k4.g")
        assert code == 1
        assert "four-flow methods disagree" in err


class TestInternalErrors:
    @pytest.mark.parametrize("exc", [RuntimeError("boom"), AssertionError("a bug")])
    def test_unexpected_exception_exits_4(self, capsys, monkeypatch, corpus_dir, exc):
        def broken(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_dual", broken)
        code, out, err = run(capsys, "dual", corpus_dir / "example.g")
        assert code == 4
        assert out == ""
        assert err.startswith("internal error:")
        assert "Traceback" in err and type(exc).__name__ in err

    def test_an_improper_constructed_coloring_exits_4(self, capsys, monkeypatch, corpus_dir):
        # the coloring is the package's own construction from a tension it
        # found, so an improper one is a bug, not two routes disagreeing
        monochrome = lambda fn: lambda d, phi: dict.fromkeys(d.vertices, 0)
        patch_everywhere(monkeypatch, "coloring_from_dual_flow", monochrome)
        code, out, err = run(capsys, "verify", "-p", 3, corpus_dir / "example.g")
        assert code == 4
        assert "FAIL" not in out and "check(s) failed" not in out
        assert err.startswith("internal error:")
        assert "RuntimeError: constructed coloring is not proper; this is a bug" in err

    def test_seeded_fuzz_never_crashes(self, capsys, tmp_path, corpus_dir):
        # mutated corpus texts end in a result, a disagreement, bad input or
        # an exceeded bound, never in an internal error
        rng = random.Random(20261018)
        texts = [p.read_text() for p in sorted(corpus_dir.glob("*.g"))]
        pool = ["a", "e", "v", "rot", "#", "x", "e1+", "e1-", "v1", "-1", "", "\t", "u u"]
        commands = [
            ("nz-flow", "-p", "3", "--method", "membership"),
            ("nz-flow", "-p", "2", "--method", "brute"),
            ("four-flow",),
            ("verify", "-p", "2"),
            ("dual",),
            ("chordal-orient",),
            ("color", "-p", "3"),
            ("planar-check", "-p", "2"),
        ]
        path = tmp_path / "fuzz.g"
        codes = Counter()
        for _ in range(200):
            lines = rng.choice(texts).splitlines()
            i = rng.randrange(len(lines))
            tokens = lines[i].split()
            roll = rng.random()
            if roll < 0.25:
                del lines[i]
            elif roll < 0.35:
                lines.insert(i, lines[i])
            elif roll < 0.75 and tokens:
                # another token of the same text: a new end, id or tag
                tokens[rng.randrange(len(tokens))] = rng.choice(
                    " ".join(lines).split()
                )
                lines[i] = " ".join(tokens)
            else:
                tokens.insert(rng.randint(0, len(tokens)), rng.choice(pool))
                lines[i] = " ".join(tokens)
            path.write_text("\n".join(lines) + "\n")
            argv = rng.choice(commands) + ("--bound", "4000", path)
            code, _, err = run(capsys, *argv)
            assert code in (0, 1, 2, 3), (argv, path.read_text(), err)
            codes[code] += 1
        assert codes[0] and codes[2]


class TestMapFileErrors:
    @pytest.mark.parametrize(
        "doc", ['{"values": {"e1": 1}}', '{"p": 3, "values": [1]}', '{"p": 3, "values": {"e1": "x"}}']
    )
    @pytest.mark.parametrize("flag", ["--psi", "--from-dual-flow"])
    def test_malformed_json_map_exits_2(self, capsys, tmp_path, corpus_dir, doc, flag):
        bad = tmp_path / "bad.map"
        bad.write_text(doc)
        command = "conformal" if flag == "--psi" else "color"
        code, _, err = run(capsys, command, "-p", 3, flag, bad, corpus_dir / "example.g")
        assert code == 2
        assert "internal error" not in err

    @pytest.mark.parametrize(
        "doc, key",
        [
            ("p=3; e1=2; e1=1; e2=2; e3=1", "e1"),
            ("p=5; p=3; e1=1; e2=2; e3=1", "p"),
            ('{"p": 3, "values": {"e1": 2, "e1": 1, "e2": 2, "e3": 1}}', "e1"),
            ('{"p": 5, "p": 3, "values": {"e1": 1, "e2": 2, "e3": 1}}', "p"),
        ],
    )
    @pytest.mark.parametrize("flag", ["--psi", "--from-dual-flow"])
    def test_repeated_key_exits_2(self, capsys, tmp_path, corpus_dir, doc, key, flag):
        # read with the last value of each key, the map is the tension of
        # example_tension_121.map
        bad = tmp_path / "repeated.map"
        bad.write_text(doc)
        command = "conformal" if flag == "--psi" else "color"
        code, out, err = run(capsys, command, "-p", 3, flag, bad, corpus_dir / "example.g")
        assert (code, out, err) == (2, "", f"error: repeated key {key!r} in the map\n")

    @pytest.mark.parametrize("flag", ["--psi", "--from-dual-flow"])
    @pytest.mark.parametrize(
        "doc, message",
        [("p=3; e1=x; e2=1; e3=1", "bad value 'x' for 'e1'"), ("p=x; e1=1; e2=1; e3=1", "bad p 'x'")],
    )
    def test_non_integer_text_value_exits_2(self, capsys, tmp_path, corpus_dir, flag, doc, message):
        bad = tmp_path / "bad.map"
        bad.write_text(doc)
        command = "conformal" if flag == "--psi" else "color"
        code, out, err = run(capsys, command, "-p", 3, flag, bad, corpus_dir / "example.g")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("flag", ["--psi", "--from-dual-flow"])
    def test_modulus_mismatch_exits_2(self, capsys, corpus_dir, flag):
        # the map file sets p=3
        command = "conformal" if flag == "--psi" else "color"
        psi = corpus_dir / "example_psi_110.map"
        code, out, err = run(capsys, command, "-p", 5, flag, psi, corpus_dir / "example.g")
        assert code == 2 and out == ""
        assert "has p=3, command uses p=5" in err


class TestOutputPathStaysPacked:
    @pytest.mark.parametrize(
        "argv",
        [
            ["normal-form", "-p", 3, "--json"],
            ["four-flow", "--json"],
            ["four-flow", "--json", "--table"],
            ["coeff-table", "-p", 3, "--json"],
        ],
    )
    def test_json_output_never_decodes(self, capsys, monkeypatch, corpus_dir, argv):
        # no decoded form or table, no payload list and no standard encoder
        def refuse(*args, **kwargs):
            raise AssertionError("a payload was built on the output path")

        # forms (through .poly) and tables decode on their one packed base
        monkeypatch.setattr("flowpoly.flows._Packed._decode", refuse)
        monkeypatch.setattr("flowpoly.formats.json.dumps", refuse)
        for name in ("quotient_poly_to_json", "pair_poly_to_json", "table_entries", "dump_json"):
            monkeypatch.setattr(oracles, name, refuse)
        code, out, _ = run(capsys, *argv, corpus_dir / "k4.g")
        monkeypatch.undo()
        assert code == 0
        assert json.loads(out)


def _reference_output(argv, path):
    """What the command prints, built from the API through the oracle
    serialisers and the standard encoder."""
    parsed = load_graph(path)
    d, u = parsed.as_digraph(), parsed.as_undirected()
    command, flags = argv[0], set(argv)
    p = int(argv[argv.index("-p") + 1]) if "-p" in flags else None
    if command == "normal-form":
        nf = flow_polynomial_normal_form(d, p)
        if "--json" in flags:
            return oracles.dump_json(oracles.quotient_poly_to_json(nf))
        return oracles.quotient_poly_to_text(nf) + "\n"
    if command == "coeff-table":
        table = coefficient_table(d, p)
        if "--json" in flags:
            return oracles.dump_json({"p": p, "entries": oracles.table_entries(table)})
        return oracles.table_to_text(table) or "(all coefficients are zero)\n"
    if command == "four-flow":
        nf, table = four_flow_polynomial_normal_form(u), four_flow_coefficient_table(u)
        witness = find_nz_four_flow(u)
        if "--json" not in flags:
            lines = [
                f"nowhere-zero four-flow: {'YES' if witness else 'NO'}\n",
                f"normal form: {oracles.pair_poly_to_text(nf)}\n",
            ]
            if witness is not None:
                pairs = "; ".join(f"{e}=({a},{b})" for e, (a, b) in sorted(witness.values.items()))
                lines.append(f"witness: {pairs}\n")
            return "".join(lines) + oracles.table_to_text(table)
        payload = {"normal_form": oracles.pair_poly_to_json(nf), "nz_four_flow": witness is not None}
        if witness is not None:
            payload["witness"] = {"values": {e: list(v) for e, v in witness.values.items()}}
        payload["table"] = oracles.table_entries(table)
        return oracles.dump_json(payload)
    if command == "nz-flow":
        witness = find_nz_flow(d, p)
        payload = {"answer": witness is not None, "method": "brute"}
        if witness is not None:
            payload["witness"] = {"p": p, "values": dict(witness.values)}
        return oracles.dump_json(payload)
    if command == "conformal":
        with open(argv[argv.index("--psi") + 1]) as fh:
            psi = parse_zp_map(fh.read())
        counts = count_conformal_flows(d, psi, p)
        payload = {"dual": False, "even": counts.even, "odd": counts.odd, "c": counts.coefficient}
        return oracles.dump_json(payload)
    if command == "color":
        return oracles.dump_json({"colorable": is_p_colorable(u, p), "p": p})
    if command == "chordal-orient":
        return oracles.dump_json(chordal_orientation(u).as_dict())
    if command == "planar-check":
        return oracles.dump_json(check_planar_duality(d, parsed.rotation, p).as_dict())
    raise ValueError(command)


def _differential_cases():
    graphs = ("example", "c3", "k4", "diamond", "bowtie", "w4", "triangle_multi",
              "parallel3", "two_triangles_disjoint", "single_loop", "path3")
    for name in graphs:
        for p in ("2", "3", "4", "5"):
            yield name, ("normal-form", "-p", p, "--json")
            yield name, ("normal-form", "-p", p)
            yield name, ("coeff-table", "-p", p, "--json")
            yield name, ("coeff-table", "-p", p)
        yield name, ("four-flow", "--json", "--table")
        yield name, ("four-flow", "--table")
        yield name, ("nz-flow", "-p", "3", "--method", "brute", "--json")
        yield name, ("color", "-p", "3", "--json")
    yield "example", ("conformal", "-p", "3", "--psi", "PSI", "--json")
    yield "k4", ("chordal-orient",)
    for p in ("2", "3", "4"):
        yield "k4_embedded", ("planar-check", "-p", p)


class TestOutputAgainstOracles:
    """Every JSON-emitting command, and the normal-form, coeff-table and
    four-flow --table text, against the reference serialisers: same bytes."""

    @pytest.mark.parametrize(
        "name,argv", [pytest.param(n, a, id=f"{n}:{' '.join(a)}") for n, a in _differential_cases()]
    )
    def test_same_bytes(self, capsys, corpus_dir, name, argv):
        psi = str(corpus_dir / "example_psi_110.map")
        argv = [psi if a == "PSI" else a for a in argv]
        path = corpus_dir / f"{name}.g"
        code, out, err = run(capsys, *argv, path)
        assert code == 0, err
        assert_same_text(out, _reference_output(argv, path))


def assert_same_text(out: str, ref: str) -> None:
    """out == ref exactly. A mismatch reports the lengths, the SHA-256
    digests and the first differing line, not a diff of two long texts."""
    if out == ref:
        return
    lines, ref_lines = out.splitlines(keepends=True), ref.splitlines(keepends=True)
    at = next(
        (i for i, (a, b) in enumerate(zip(lines, ref_lines)) if a != b),
        min(len(lines), len(ref_lines)),
    )
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
    pytest.fail(
        f"output differs from the reference at line {at + 1}: "
        f"{lines[at:at + 1]!r} != {ref_lines[at:at + 1]!r}; "
        f"lengths {len(out)} and {len(ref)}, sha256 {digest(out)} and {digest(ref)}",
        pytrace=False,
    )
