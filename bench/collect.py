"""Run the benchmark over several seeds and summarise it in one result file.

    python3 bench/collect.py --seeds 1-10 --out bench/results/BENCH_baseline.json

For every workload in BENCHMARK.json (or those named with --workloads) it
makes one untraced run per seed, then one traced run on the first seed,
each as its own process through the BENCHMARK.json command. The result
file holds, per workload, every end-to-end value with its median,
quartiles and spread (interquartile distance over median) against the
metric's bound, and the per-layer metrics with each time metric's share of
the traced wall time. Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, environment

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, trace: int, record: Path) -> dict:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
        "--out", str(record),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    data = json.loads(record.read_text())
    record.unlink()
    return data


def summarise(values: list[float], bound: float | None) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else None
    out = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        out["bound"] = bound
        out["spread_within_third_of_bound"] = spread is not None and spread < bound / 3
    return out


def collect_workload(name: str, seeds: list[int], scratch: Path) -> dict:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    runs = []
    for seed in seeds:
        data = run_once(name, seed, 0, scratch)
        runs.append(data)
        print(f"{name} seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in data["result"]["metrics"].items()
        ), file=sys.stderr)
    end_to_end = {}
    for metric in SPEC["end_to_end"]:
        key = metric["name"]
        values = [r["result"]["metrics"][key]["value"] for r in runs]
        end_to_end[key] = {"unit": metric["unit"], **summarise(values, bounds[key])}

    traced = run_once(name, seeds[0], 1, scratch)
    layers = traced["result"]["metrics"]
    wall = layers["bench.traced_wall_s"]["value"]
    shares = {
        k: v["value"] / wall
        for k, v in layers.items()
        if v["unit"] == "s" and k != "bench.traced_wall_s"
    }
    return {
        "seeds": seeds,
        "runs": len(runs) + 1,
        "items_per_pass": runs[0]["items_per_pass"],
        "passes_per_run": [r["detail"]["passes"] for r in runs],
        "attempted": sum(r["result"]["attempted"] for r in runs),
        "failed": sum(r["result"]["failed"] for r in runs),
        "end_to_end": end_to_end,
        "per_layer": {
            "seed": seeds[0],
            "metrics": {k: v["value"] for k, v in layers.items()},
            "share_of_traced_wall": shares,
            "self_time_sum_check": sum(shares.values()),
            "memory_items": traced["detail"]["memory_items"],
            "item_calls": traced["detail"]["item_calls"],
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", help="comma-separated, default all")
    parser.add_argument("--out", required=True, help="result file to write")
    args = parser.parse_args()

    out = Path(args.out).resolve()
    scratch = out.with_name(out.name + ".run.json")
    seeds = parse_seeds(args.seeds)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in SPEC["workloads"]]
    result = {
        "environment": environment(),
        "command": SPEC["command"],
        "run_seconds": SPEC["run_seconds"],
        "workloads": {},
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    for name in names:
        result["workloads"][name] = collect_workload(name, seeds, scratch)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    for name, w in result["workloads"].items():
        for key, m in w["end_to_end"].items():
            flag = "" if m["spread_within_third_of_bound"] else "  <-- spread >= bound/3"
            print(f"{name:12s} {key:14s} median {m['median']:.5g} {m['unit']:7s} "
                  f"spread {m['spread']:.3f} bound {m['bound']}{flag}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
