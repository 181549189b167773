"""Record the corpus-cli references: exit code and SHA-256 of stdout for
every command line, validated once before they are written.

    python3 bench/record_refs.py

Validation: every `verify` exits 0; every four-flow and Z_p normal form
printed as JSON equals the conformal route computed through the API; and
the commands listed in workloads.GOLDEN reproduce corpus/golden/ byte for
byte. Nothing is written if a check fails.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

from run import ROOT, import_flowpoly
from workloads import CORPUS, GOLDEN, REFS, corpus_commands, run_cli


def validate(fp, argv, code, out: bytes) -> list[str]:
    problems = []
    if argv[0] == "verify" and code != 0:
        problems.append("verify did not exit 0")
    if argv in GOLDEN:
        golden = (CORPUS / "golden" / GOLDEN[argv]).read_bytes()
        if out != golden:
            problems.append(f"differs from golden/{GOLDEN[argv]}")
    parsed = fp.formats.load_graph(argv[-1])
    if argv[0] == "four-flow":
        conformal = fp.fourflow.conformal_pair_normal_form(parsed.as_undirected())
        if json.loads(out)["normal_form"] != fp.formats.pair_poly_to_json(conformal):
            problems.append("four-flow normal form differs from the conformal route")
    if argv[0] == "normal-form" and "--json" in argv:
        p = int(argv[argv.index("-p") + 1])
        conformal = fp.conformal_normal_form(parsed.as_digraph(), p)
        if json.loads(out) != fp.formats.quotient_poly_to_json(conformal):
            problems.append("normal form differs from the conformal route")
    return problems


def main() -> int:
    os.chdir(ROOT)
    fp = import_flowpoly()
    refs = {}
    failed = False
    for argv in corpus_commands():
        name = " ".join(argv)
        code, out = run_cli(fp, argv)
        for problem in validate(fp, argv, code, out):
            print(f"{name}: {problem}", file=sys.stderr)
            failed = True
        refs[name] = {"exit": code, "sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out)}
        print(f"{code} {len(out):>9d} {name}", file=sys.stderr)
    if failed:
        print("references not written", file=sys.stderr)
        return 1
    REFS.parent.mkdir(exist_ok=True)
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(refs)} references to {REFS.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
