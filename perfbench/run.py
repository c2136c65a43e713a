"""Benchmark entry point: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload table4-quick --seed 1 --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` measures the workload
untraced and reports the end-to-end metrics; ``--trace 1`` also runs it
a second time with spans recorded around each layer's entry points and
reports the per-layer metrics (including how much slower the traced
run was).  Both print a human-readable report, then, as the last line
of standard output, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).

Set-up (imports in a fresh interpreter, the temp results store, the
server start until it has answered its first request) is repeated
five times and its median reported as ``setup_s``.  The load generator
never uses more threads, connections or pool workers than there are
CPUs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.spans import Patcher, Recorder, by_name  # noqa: E402
from perfbench.stats import median, percentile  # noqa: E402

SETUP_REPEATS = 5

#: End-to-end metrics (every workload reports all of them); the unit and
#: what the generic name means on each workload.
END_TO_END = {
    "setup_s": ("s", "imports in a fresh interpreter + temp store / server start to healthy"),
    "throughput": ("1/s", "cells_per_s | serve_rps | plans_per_s"),
    "latency_ms": ("ms", "campaign makespan | serve_p90_ms | mean plan time"),
    "peak_rss_mb": ("MB", "largest of the benchmark process and its children"),
}

def host_reference_ms() -> float:
    """Median time of a fixed pure-Python loop, to show how fast the host
    ran around a measurement (shared machines change speed by ~2x)."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        times.append(time.perf_counter() - started)
    return 1e3 * median(times)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(workload, run, setup_s: float) -> Dict[str, float]:
    return {
        "setup_s": setup_s,
        "throughput": run.ops / run.wall,
        "latency_ms": workload.latency_ms(run),
        "peak_rss_mb": _peak_rss_mb(),
    }


def _per_op(run) -> float:
    return run.wall / run.ops if run.ops else math.nan


def per_layer(traced, untraced) -> Dict[str, float]:
    """Every per-layer metric, from the traced run's spans and outputs.

    Layers a workload does not reach read 0.  ``loadgen.cpu_frac`` is
    taken from the untraced run, the one the end-to-end numbers come
    from.
    """
    names = by_name(traced.records + traced.remote_records)

    def calls(name: str) -> float:
        return float(names.get(name, {}).get("count", 0))

    def self_s(name: str) -> float:
        return names.get(name, {}).get("self", 0.0)

    def mean(name: str, scale: float) -> float:
        entry = names.get(name)
        return scale * entry["total"] / entry["count"] if entry and entry["count"] else 0.0

    grid = names.get("models.grid", {})
    jobs = [r["total"] for r in traced.records if r["name"] == "orchestration.job"]
    lanes = traced.lanes
    busy = sum(jobs)
    local = by_name(traced.records)
    attributed = sum(entry["self"] for name, entry in local.items()
                     if layers.layer_of(name) is not None)
    values = {metric.name: 0.0 for metric in layers.PER_LAYER}
    values.update({
        "simkit.events": calls("simkit.step"),
        "simkit.self_s": self_s("simkit.step"),
        "mpi.digest_calls": calls("mpi.payload_digest"),
        "mpi.digest_self_s": self_s("mpi.payload_digest"),
        "mpi.post_send_self_s": self_s("mpi.post_send"),
        "redundancy.votes": calls("redundancy.vote"),
        "redundancy.vote_self_s": self_s("redundancy.vote"),
        "redundancy.isend_self_s": self_s("redundancy.isend"),
        "checkpoint.self_s": self_s("checkpoint.take") + self_s("checkpoint.restore"),
        "orchestration.cell_wall_p50_s": percentile(jobs, 50) if jobs else 0.0,
        "orchestration.cell_wall_max_s": max(jobs) if jobs else 0.0,
        "orchestration.pool_utilization": busy / (lanes * traced.wall) if jobs else 0.0,
        "orchestration.straggler_s": traced.wall - busy / lanes if jobs else 0.0,
        "store.get_us": mean("store.get", 1e6),
        "store.put_us": mean("store.put", 1e6),
        "models.evaluate_calls": calls("models.evaluate"),
        "models.evaluate_us": mean("models.evaluate", 1e6),
        "models.grid_cells": float(grid.get("units", 0)),
        "models.grid_us_per_cell": 1e6 * grid["total"] / grid["units"]
        if grid.get("units") else 0.0,
        "models.recommend_us": mean("models.recommend", 1e6),
        "models.crossover_ms": mean("models.crossover", 1e3),
        "experiments.render_self_s": self_s("experiments.render"),
        "unattributed_frac": 1.0 - attributed / (lanes * traced.wall),
        "trace_overhead_frac": _per_op(traced) / _per_op(untraced) - 1.0,
        "loadgen.cpu_frac": untraced.cpu / untraced.wall,
        "experiments.paper_rel_err": traced.paper_rel_err,
    })
    values.update(traced.counts)
    return values


def _measure(workload, ctx, fixture, patcher=None):
    """One run, checked after its wrappers and its fixture are gone."""
    try:
        try:
            run = workload.measure(ctx, fixture, patcher.recorder if patcher else None)
        finally:
            if patcher is not None:
                patcher.restore()
    except BaseException:
        workload.teardown(ctx, fixture)
        raise
    run.remote_records = workload.teardown(ctx, fixture)
    workload.check(ctx, run)
    return run


def main(argv: List[str] = None) -> int:
    from perfbench.workloads import WORKLOADS, Context, import_probe

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    out_root = ROOT / ".perfbench"
    out_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    workload = WORKLOADS[args.workload]
    ctx = Context(root=ROOT, workdir=workdir, seed=args.seed,
                  seconds=args.seconds, nproc=nproc)
    reference = [host_reference_ms()]
    try:
        setups = []
        fixture = None
        for repeat in range(SETUP_REPEATS):
            imports = import_probe(ctx, workload.modules)
            started = time.perf_counter()
            fixture = workload.setup(ctx)
            setups.append(imports + time.perf_counter() - started)
            if repeat < SETUP_REPEATS - 1:
                workload.teardown(ctx, fixture)
        for module in workload.modules:  # imports are set-up, not measured
            __import__(module)
        untraced = _measure(workload, ctx, fixture)
        traced = None
        if args.trace:
            fixture = workload.setup(ctx, traced=True)
            patcher = Patcher(Recorder())
            layers.install(patcher)
            traced = _measure(workload, ctx, fixture, patcher)
            ctx.tally.check(traced.fingerprints == untraced.fingerprints,
                            "traced run's results differ from the untraced run's")
            with open(out_root / f"spans-{args.workload}.json", "w") as handle:
                json.dump(traced.records + traced.remote_records, handle)
        e2e = end_to_end(workload, untraced, median(setups))
        reference.append(host_reference_ms())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = ctx.tally
    layer_values = per_layer(traced, untraced) if traced is not None else None
    if layer_values is not None:
        units = {m.name: m.unit for m in layers.PER_LAYER}
        metrics = {name: {"value": layer_values[name], "unit": units[name]}
                   for name in units}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name][0]}
                   for name, value in e2e.items()}
    for name, metric in metrics.items():
        if not math.isfinite(metric["value"]):  # JSON has no inf or nan
            tally.check(False, f"{name} is {metric['value']}")
            metric["value"] = None
    report(args, nproc, workload, untraced, traced, setups, e2e, layer_values, tally,
           reference)
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    line = json.dumps(result, allow_nan=False)
    (out_root / f"result-{args.workload}-trace{args.trace}.json").write_text(line + "\n")
    print(line, flush=True)
    return 0


def report(args, nproc, workload, untraced, traced, setups, e2e, layer_values,
           tally, reference) -> None:
    """The human-readable part of the output (everything but the last line)."""
    throughput, latency, op = workload.labels
    lat = untraced.latencies
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} nproc={nproc} lanes={untraced.lanes}")
    print(f"  why: {workload.why}")
    print(f"  host reference loop: {reference[0]:.3f} ms before, {reference[1]:.3f} ms after")
    print(f"  setup_s = {e2e['setup_s']!r} s (median of {', '.join(f'{s:.4f}' for s in setups)})")
    print(f"  {throughput} = {e2e['throughput']!r} 1/s "
          f"({untraced.ops} {op}s in {untraced.wall:.3f} s)")
    p50, p90, p99 = (1e3 * percentile(lat, q) if lat else math.nan for q in (50, 90, 99))
    print(f"  {latency}_p50_ms = {p50!r} ms, {latency}_p90_ms = {p90!r} ms, "
          f"{latency}_p99_ms = {p99!r} ms (nearest rank over {len(lat)} sample(s))")
    print(f"  latency_ms = {e2e['latency_ms']!r} ms ({END_TO_END['latency_ms'][1]})")
    print(f"  peak_rss_mb = {e2e['peak_rss_mb']!r} MB")
    print(f"  paper_rel_err = {untraced.paper_rel_err!r} (mean relative error against the paper)")
    print(f"  error_rate = {tally.failed}/{tally.attempted} = {tally.error_rate!r}")
    for note in untraced.notes:
        print(f"  untraced: {note}")
    for failure in tally.failures:
        print(f"  FAILED: {failure}")
    for problem in tally.problems:
        print(f"  PROBLEM: {problem}")
    if traced is not None:
        for note in traced.notes:
            print(f"  traced: {note}")
        print(f"  traced window {traced.wall:.3f} s for {traced.ops} {op}s; per-layer:")
        for line in layers.describe(layer_values):
            print(line)


if __name__ == "__main__":
    sys.exit(main())
