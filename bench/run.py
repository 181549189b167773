"""flowpoly benchmark: one workload per process, sequential, no threads.

    python3 bench/run.py --workload nf-dense --seed 1 --seconds 30 --trace 0

With --trace 0 the run sets up the workload several times (importing
flowpoly afresh and building its inputs each time), runs one untimed
warm-up pass, then timed passes over the workload's items while another
whole pass fits in --seconds (at least one), and reports the end-to-end
metrics. With --trace 1 it runs the warm-up pass, one untraced pass, one
traced pass with every SPANS function of bench/tracing.py wrapped, and a
tracemalloc pass over the workload's memory subset, and reports the
per-layer metrics.

Every item checks its own output; a failing or raising item is counted
and the run goes on. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; a human-readable summary goes
to stderr. --out FILE also writes a result record with the environment,
per-item times and per-item fold and table calls.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 21

sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class SetupError(Exception):
    pass


def import_flowpoly():
    """Import flowpoly afresh from this checkout's src directory."""
    for name in [n for n in sys.modules if n == "flowpoly" or n.startswith("flowpoly.")]:
        del sys.modules[name]
    try:
        fp = importlib.import_module("flowpoly")
        importlib.import_module("flowpoly.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import flowpoly from {SRC}: {exc}") from exc
    if Path(fp.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"flowpoly imported from {fp.__file__}, not from {SRC}")
    return fp


def set_up(workload, seed: int):
    """SETUP_REPEATS timed set-ups; returns their times and the last one's
    package and items."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        fp = import_flowpoly()
        generated = workload.generate(seed)
        items = workload.build(fp, generated)
        times.append(time.perf_counter() - start)
    return times, fp, generated, items


def run_pass(items, tracer=None):
    """One pass over the items. Returns (wall seconds, item seconds,
    failures, stdout bytes)."""
    gc.collect()
    times = []
    failures = []
    out_bytes = 0
    start = time.perf_counter()
    for item in items:
        if tracer is not None:
            tracer.begin_item(item.name)
        t0 = time.perf_counter()
        try:
            out_bytes += item.run()
        except (Exception, SystemExit) as exc:  # an item never stops the run
            failures.append(f"{item.name}: {type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - t0)
    return time.perf_counter() - start, times, failures, out_bytes


def metric(value, unit):
    return {"value": value, "unit": unit}


def warm_up(items):
    """An untimed, checked pass. The first pass in a process runs 10-15%
    slower than later ones while the allocator grows its arenas and the
    graphs fill their cached properties, so timing starts after it."""
    _, _, failures, _ = run_pass(items)
    return failures


def measure_end_to_end(items, seconds: float):
    start = time.perf_counter()
    failures = warm_up(items)
    walls, item_times = [], []
    while True:
        wall, times, failed, _ = run_pass(items)
        walls.append(wall)
        item_times.extend(times)
        failures.extend(failed)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > seconds:
            break
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = statistics.median(walls)
    deciles = statistics.quantiles(item_times, n=10, method="inclusive")
    attempted = len(item_times) + len(items)
    metrics = {
        "wall_s": metric(wall_s, "s"),
        "items_per_s": metric(len(items) / wall_s, "items/s"),
        "item_ms_p50": metric(1000 * deciles[4], "ms"),
        "item_ms_p90": metric(1000 * deciles[8], "ms"),
        "peak_rss_mib": metric(rss_mib, "MiB"),
        "ok_frac": metric(1 - len(failures) / attempted, "frac"),
    }
    detail = {"passes": len(walls), "pass_walls_s": walls, "item_s": item_times}
    return metrics, attempted, failures, detail


def measure_per_layer(items, memory_subset):
    failures = warm_up(items)
    untraced_wall, _, untraced_failures, _ = run_pass(items)
    tracer = tracing.Tracer()
    with tracer.active():
        traced_wall, _, traced_failures, out_bytes = run_pass(items, tracer)
    memory = tracing.MemoryTracer()
    subset = [item for item in items if item.name in memory_subset]
    with memory.active():
        _, _, memory_failures, _ = run_pass(subset)
    failures += untraced_failures + traced_failures + memory_failures

    tracer.counts["formats.bytes_out"] = out_bytes
    metrics = {name: metric(tracer.self_s[name], "s") for name in tracing.TIME_METRICS}
    metrics.update({name: metric(tracer.counts[name], "count") for name in tracing.COUNT_METRICS})
    metrics.update({name: metric(memory.peak_kib[name], "KiB") for name in tracing.MEMORY})
    metrics["bench.traced_wall_s"] = metric(traced_wall, "s")
    metrics["bench.unattributed_s"] = metric(traced_wall - tracer.covered_s, "s")
    metrics["bench.trace_overhead_frac"] = metric(traced_wall / untraced_wall - 1, "frac")
    attempted = 3 * len(items) + len(subset)
    detail = {
        "untraced_wall_s": untraced_wall,
        "memory_items": [item.name for item in subset],
        "item_calls": {name: dict(calls) for name, calls in tracer.item_calls.items()},
    }
    return metrics, attempted, failures, detail


def git_sha() -> str:
    """HEAD of the checkout's own .git, read as files; "unknown" without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(),
        "nproc": nproc,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write a result record to this file")
    args = parser.parse_args(argv)
    out = Path(args.out).resolve() if args.out else None

    os.chdir(ROOT)
    workload = WORKLOADS[args.workload]
    try:
        setup_times, fp, generated, items = set_up(workload, args.seed)
    except (SetupError, OSError, KeyError, ValueError) as exc:
        print(f"error: set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, attempted, failures, detail = measure_per_layer(items, generated.memory_subset)
    else:
        metrics, attempted, failures, detail = measure_end_to_end(items, args.seconds)
        metrics = {"setup_s": metric(statistics.median(setup_times), "s"), **metrics}

    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} "
        f"items/pass={len(items)} attempted={attempted} failed={len(failures)}",
        file=sys.stderr,
    )
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6f} {m['unit']}", file=sys.stderr)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    if out is not None:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "items_per_pass": len(items),
            "inputs_sha256": generated.digest(),
            "environment": environment(),
            "setup_s": setup_times,
            "failures": failures,
            "detail": detail,
            "result": result,
        }
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
