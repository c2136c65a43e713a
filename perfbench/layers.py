"""What a traced run wraps, and what each per-layer metric should move.

``TARGETS`` lists the public entry points wrapped per layer; the span
name's prefix is the layer.  ``PER_LAYER`` is the per-layer metric
catalogue: name, unit, which way is better, and the end-to-end metric
it should move on which workload (``BENCHMARK.json`` lists the same
names; a unit test keeps the two in step).
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional

__all__ = ["PER_LAYER", "TARGETS", "Target", "install", "layer_of"]


class Target(NamedTuple):
    module: str
    qualname: str
    span: str
    group: bool = False


#: Modules that must be imported before patching, so that every module
#: which imported a wrapped function by name is found and patched too.
IMPORTS = (
    "repro.simkit.env",
    "repro.mpi.datatypes",
    "repro.mpi.runtime",
    "repro.redundancy",
    "repro.redundancy.voting",
    "repro.redundancy.interpose",
    "repro.checkpoint.service",
    "repro.checkpoint.restart",
    "repro.orchestration.job",
    "repro.store",
    "repro.models",
    "repro.models.combined",
    "repro.models.grid",
    "repro.models.advisor",
    "repro.models.optimize",
    "repro.service.batching",
    "repro.service.server",
    "repro.util.plot",
    "repro.experiments.runner",
    "repro.experiments.table4",
    "repro.experiments.table5",
    "repro.experiments.fig13",
    "repro.experiments.fig14",
)

TARGETS = (
    Target("repro.simkit.env", "Environment.step", "simkit.step"),
    Target("repro.mpi.datatypes", "payload_digest", "mpi.payload_digest"),
    Target("repro.mpi.runtime", "SimMPI.post_send", "mpi.post_send"),
    Target("repro.redundancy.voting", "vote", "redundancy.vote"),
    Target("repro.redundancy.interpose", "RedComm.isend", "redundancy.isend"),
    Target("repro.checkpoint.service", "CheckpointService.take_checkpoint",
           "checkpoint.take"),
    Target("repro.checkpoint.restart", "RestartManager.restore_states",
           "checkpoint.restore"),
    # One job is one campaign cell: its spans share the job span's id.
    Target("repro.orchestration.job", "ResilientJob.run", "orchestration.job",
           group=True),
    Target("repro.store", "ResultsStore.get_report", "store.get"),
    Target("repro.store", "ResultsStore.get_object", "store.get"),
    Target("repro.store", "ResultsStore.put_report", "store.put"),
    Target("repro.store", "ResultsStore.put_object", "store.put"),
    Target("repro.models.combined", "CombinedModel.evaluate", "models.evaluate"),
    Target("repro.models.grid", "evaluate_grid", "models.grid"),
    Target("repro.models.advisor", "recommend", "models.recommend"),
    Target("repro.models.optimize", "find_crossover", "models.crossover"),
    Target("repro.models.optimize", "throughput_break_even", "models.break_even"),
    Target("repro.util.plot", "ascii_plot", "experiments.render"),
    Target("repro.util.plot", "ascii_heatmap", "experiments.render"),
    Target("repro.experiments.runner", "ExperimentResult.render",
           "experiments.render"),
)


def _grid_cells(grid) -> int:
    return int(grid.total_time.size)


#: Work-unit extractors by span name.
UNITS = {"models.grid": _grid_cells}


def install(patcher) -> None:
    """Import every layer module, then wrap every target."""
    import importlib

    for module in IMPORTS:
        importlib.import_module(module)
    for target in TARGETS:
        patcher.patch(target.module, target.qualname, target.span,
                      group=target.group, units=UNITS.get(target.span))


def layer_of(span: str) -> Optional[str]:
    """The layer a span name belongs to (``None`` for benchmark spans)."""
    layer = span.split(".", 1)[0]
    return None if layer == "bench" else layer


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: What it should move, on which workload (the prediction).
    moves: str


_ALL = "all workloads"

PER_LAYER: List[Metric] = [
    Metric("simkit.events", "count", "lower",
           "cells_per_s on table4-quick and table5-serial; no change on serve-mixed or plan-sweep"),
    Metric("simkit.self_s", "s", "lower",
           "cells_per_s on table4-quick and table5-serial; no change on serve-mixed or plan-sweep"),
    Metric("mpi.p2p_messages", "count", "lower", "cells_per_s on both campaign workloads"),
    Metric("mpi.p2p_bytes", "B", "lower", "cells_per_s on both campaign workloads"),
    Metric("mpi.digest_calls", "count", "lower",
           "cells_per_s on both campaign workloads (lazy replica digests show here)"),
    Metric("mpi.digest_self_s", "s", "lower", "cells_per_s on both campaign workloads"),
    Metric("mpi.post_send_self_s", "s", "lower", "cells_per_s on both campaign workloads"),
    Metric("redundancy.votes", "count", "lower", "cells_per_s on both campaign workloads"),
    Metric("redundancy.vote_self_s", "s", "lower", "cells_per_s on both campaign workloads"),
    Metric("redundancy.isend_self_s", "s", "lower", "cells_per_s on both campaign workloads"),
    Metric("redundancy.amplification", "ratio", "lower", "cells_per_s on both campaign workloads"),
    Metric("redundancy.dropped_ratio", "ratio", "lower", "cells_per_s on both campaign workloads"),
    Metric("checkpoint.commits", "count", "lower",
           "cells_per_s on table4-quick only; no change on table5-serial"),
    Metric("checkpoint.self_s", "s", "lower",
           "cells_per_s on table4-quick only; no change on table5-serial"),
    Metric("checkpoint.sim_frac", "ratio", "lower",
           "cells_per_s on table4-quick only; no change on table5-serial"),
    Metric("faults.injected", "count", "lower", "reported on table4-quick"),
    Metric("faults.rollbacks", "count", "lower", "reported on table4-quick"),
    Metric("faults.attempts_per_cell", "ratio", "lower",
           "reported on table4-quick (wasted-work ratio)"),
    Metric("orchestration.cell_wall_p50_s", "s", "lower",
           "cells_per_s on table4-quick; no change on table5-serial"),
    Metric("orchestration.cell_wall_max_s", "s", "lower",
           "cells_per_s on table4-quick; no change on table5-serial"),
    Metric("orchestration.pool_utilization", "ratio", "higher",
           "cells_per_s on table4-quick (chunked submission shows here); no change on table5-serial"),
    Metric("orchestration.straggler_s", "s", "lower",
           "cells_per_s on table4-quick; no change on table5-serial"),
    Metric("store.get_us", "us", "lower",
           "cells_per_s on table4-quick and serve_p50_ms on serve-mixed"),
    Metric("store.put_us", "us", "lower",
           "cells_per_s on table4-quick and serve_p50_ms on serve-mixed"),
    Metric("store.hits", "count", "higher",
           "cells_per_s on table4-quick and serve_p50_ms on serve-mixed"),
    Metric("store.misses", "count", "lower",
           "cells_per_s on table4-quick and serve_p50_ms on serve-mixed"),
    Metric("store.writes", "count", "lower",
           "cells_per_s on table4-quick and serve_p50_ms on serve-mixed"),
    Metric("service.mean_batch_size", "req/batch", "higher",
           "serve_p50_ms and serve_rps on serve-mixed (deleting the batcher shows here)"),
    Metric("service.shed", "count", "lower", "serve_rps on serve-mixed"),
    Metric("service.recommend_lru_hits", "count", "higher",
           "serve_p50_ms on serve-mixed (deleting the memo shows here)"),
    Metric("service.recommend_store_hits", "count", "higher",
           "serve_p50_ms on serve-mixed (deleting the memo shows here)"),
    Metric("service.model_share", "ratio", "higher", "serve_p50_ms and serve_rps on serve-mixed"),
    Metric("models.evaluate_calls", "count", "lower",
           "plans_per_s on plan-sweep; serve_p50_ms only slightly"),
    Metric("models.evaluate_us", "us", "lower",
           "plans_per_s on plan-sweep; serve_p50_ms only slightly"),
    Metric("models.grid_cells", "count", "lower", "plans_per_s on plan-sweep"),
    Metric("models.grid_us_per_cell", "us", "lower",
           "plans_per_s on plan-sweep; serve_p50_ms only slightly"),
    Metric("models.recommend_us", "us", "lower", "plans_per_s on plan-sweep"),
    Metric("models.crossover_ms", "ms", "lower", "plans_per_s on plan-sweep"),
    Metric("experiments.render_self_s", "s", "lower", "plans_per_s on plan-sweep"),
    Metric("experiments.paper_rel_err", "ratio", "lower",
           "nothing on any workload: it tracks results, so a speed-up must leave it unchanged"),
    Metric("unattributed_frac", "ratio", "lower", _ALL),
    Metric("trace_overhead_frac", "ratio", "lower", _ALL),
    Metric("loadgen.cpu_frac", "ratio", "lower", _ALL),
]


def describe(values: Dict[str, Any]) -> List[str]:
    """Human-readable per-layer lines, each with its prediction."""
    lines = []
    for metric in PER_LAYER:
        value = values[metric.name]
        lines.append(f"  {metric.name:32s} {value!r:>24} {metric.unit:9s} -> {metric.moves}")
    return lines
