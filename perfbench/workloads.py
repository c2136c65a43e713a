"""The four benchmark workloads.

Each workload builds its inputs from the seed, sets up what a user
would (a temp results store, a running server), runs the program
through its public surface for the measured window, checks every
output, and returns a :class:`Run`.  When a
:class:`~perfbench.spans.Recorder` is passed, the run is the traced
one and the recorder collects spans.

Nothing here reaches into the program's internals: it calls
``run_experiment``, ``recommend``, the ``repro-exp serve`` process over
HTTP, and reads what those already return (``JobReport`` fields,
``ResultsStore.stats()``, ``GET /metrics``, the executor's metrics
registry, the model caches' ``cache_info``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import random
import re
import selectors
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from .spans import Recorder, merge_parts
from .stats import Tally, percentile

__all__ = ["WORKLOADS", "Context", "Run"]

perf = time.perf_counter


@dataclass
class Context:
    """What every workload gets: paths, seed, window and the tally."""

    root: Path
    workdir: Path
    seed: int
    seconds: float
    nproc: int
    tally: Tally = field(default_factory=Tally)

    @property
    def src(self) -> Path:
        return self.root / "src"

    def tempdir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.workdir)


@dataclass
class Run:
    """One measured (traced or untraced) run of a workload."""

    #: Wall seconds of the measured window.
    wall: float
    #: Operations completed in the window (cells, requests, plans).
    ops: int
    #: Latency of each operation in the window, seconds.
    latencies: List[float]
    #: CPU seconds this process used during the window.
    cpu: float
    #: Parallel lanes doing the work (pool workers, connections).
    lanes: int
    #: What the program returned, for :meth:`check` to verify.
    raw: Any = None
    #: Spans of the load-generating process and its pool workers.
    records: List[Dict[str, Any]] = field(default_factory=list)
    #: Spans from another process the requests ran in (the server).
    remote_records: List[Dict[str, Any]] = field(default_factory=list)
    #: Mean relative error against the paper's reference numbers.
    paper_rel_err: float = math.nan
    #: Per-layer values read from the program's own outputs.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Informational lines for the human-readable report.
    notes: List[str] = field(default_factory=list)
    #: Result fingerprints, to compare the traced run with the untraced one.
    fingerprints: List[str] = field(default_factory=list)


class Workload:
    """Protocol: set up, measure (maybe traced), tear down, check.

    ``check`` runs after any span wrappers are removed, so the work of
    verifying answers never shows up in the traced layers.
    """

    name = ""
    why = ""
    #: The workload's own names for its throughput, its latency (the
    #: prefix of its percentiles) and one operation, used in the
    #: human-readable report.
    labels: Tuple[str, str, str]
    #: Modules the set-up probe imports in a fresh interpreter.
    modules: Tuple[str, ...] = ()

    def setup(self, ctx: Context, traced: bool = False):
        return None

    def measure(self, ctx: Context, fixture, recorder: Optional[Recorder] = None) -> Run:
        raise NotImplementedError

    def teardown(self, ctx: Context, fixture) -> List[Dict[str, Any]]:
        """Release the fixture; returns spans recorded in another process."""
        return []

    def check(self, ctx: Context, run: Run) -> None:
        raise NotImplementedError

    def latency_ms(self, run: Run) -> float:
        """The gated latency: the p90 of the operations' latencies (on
        the campaigns, one grid makespan per pass)."""
        return 1e3 * percentile(run.latencies or [math.nan], 90)


def _span(recorder: Optional[Recorder], name: str):
    return recorder.span(name) if recorder is not None else contextlib.nullcontext()


def import_probe(ctx: Context, modules: Tuple[str, ...]) -> float:
    """Seconds a fresh interpreter takes to import ``modules``."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(ctx.src)!r})\n"
        "t = time.perf_counter()\n"
        + "".join(f"import {m}\n" for m in modules)
        + "print(repr(time.perf_counter() - t))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ctx.root, capture_output=True,
        text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


# -- campaigns -------------------------------------------------------------------


def _cell_fingerprint(cell) -> str:
    report = cell.report
    fields = (
        cell.node_mtbf, cell.redundancy, report.completed,
        report.total_time.hex(), report.attempts, report.failures_injected,
        report.rollbacks, report.checkpoints_committed,
        report.time_in_checkpoints.hex(), report.checkpoint_union_time.hex(),
        sorted(report.counters.items()),
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


class Pass(NamedTuple):
    """One run of a whole campaign grid."""

    seconds: float
    cells: list  # CampaignCell, completed cells only
    failed: List[str]  # cells the program reported as failed
    registry: Any  # the executor's MetricsRegistry
    store: Any  # the ResultsStore it wrote to, if any


class Campaign(Workload):
    """A simulated campaign grid run through ``run_experiment``.

    The window holds at least one whole grid; further passes (each with
    a fresh store) run while the window lasts.
    """

    experiment = ""
    labels = ("cells_per_s", "makespan", "cell")
    #: Grid cells one pass must complete.
    cells = 0
    #: Fan cells out over one pool worker per CPU (else run serially).
    pooled = False
    uses_store = False
    extra_params: Dict[str, Any] = {}

    def workers(self, ctx: Context) -> int:
        return ctx.nproc if self.pooled else 1

    def paper_minutes(self, setup, cell) -> float:
        raise NotImplementedError

    def setup(self, ctx: Context, traced: bool = False):
        if not self.uses_store:
            return None
        from repro.store import ResultsStore

        return ResultsStore(ctx.tempdir("store-"))

    def measure(self, ctx: Context, store, recorder: Optional[Recorder] = None) -> Run:
        from repro.errors import ReproError
        from repro.experiments.runner import run_experiment
        from repro.experiments.table4 import ScaledSetup
        from repro.obs import ObsSession
        from repro.orchestration import CampaignExecutionError
        from repro.store import ResultsStore

        workers = self.workers(ctx)
        if workers > ctx.nproc:
            raise RuntimeError(f"{workers} pool workers exceed nproc={ctx.nproc}")
        setup = ScaledSetup(base_seed=ctx.seed)
        parts_dir = ctx.tempdir("parts-")
        if recorder is not None:
            recorder.parts_dir = parts_dir
        passes: List[Pass] = []
        started, cpu0 = perf(), time.process_time()
        with _span(recorder, f"bench.{self.name}"):
            while True:
                cells: list = []
                failed: List[str] = []
                obs = ObsSession(metrics=True)
                params = {"setup": setup, "workers": workers, "progress": cells.append,
                          "obs": obs, **self.extra_params}
                if self.uses_store:
                    params["store"] = store
                t0 = perf()
                try:
                    run_experiment(self.experiment, **params)
                except CampaignExecutionError as error:
                    # Completed cells already reached ``progress``.
                    failed = [f"cell r={o.spec.redundancy} mtbf={o.spec.node_mtbf}: "
                              f"{o.error_type}: {o.error}" for o in error.failures]
                except ReproError as error:
                    ctx.tally.check(False, f"{self.experiment} raised {error!r}")
                passes.append(Pass(perf() - t0, cells, failed, obs.metrics, store))
                if perf() - started >= ctx.seconds:
                    break
                if self.uses_store:
                    store = ResultsStore(ctx.tempdir("store-"))
        wall = perf() - started
        return Run(
            wall=wall,
            ops=sum(len(p.cells) for p in passes),
            latencies=[p.seconds for p in passes],
            cpu=time.process_time() - cpu0,
            lanes=workers,
            raw=(setup, passes),
            records=recorder.records + merge_parts(parts_dir) if recorder else [],
        )

    def check(self, ctx: Context, run: Run) -> None:
        setup, passes = run.raw
        cells = []
        for done in passes:
            for cell in done.cells:
                ctx.tally.op(cell.report.completed and not cell.cached,
                             f"cell r={cell.redundancy} mtbf={cell.node_mtbf} did not complete")
            for what in done.failed:
                ctx.tally.op(False, what)
            for _missing in range(self.cells - len(done.cells) - len(done.failed)):
                ctx.tally.op(False, "cell missing from the campaign result")
            cells.extend(done.cells)
        # Every pass runs the same seed, so every pass must agree.  Pooled
        # cells complete in any order: fingerprint them in grid order.
        prints = [
            [_cell_fingerprint(c) for c in sorted(
                done.cells, key=lambda c: (c.node_mtbf or 0.0, c.redundancy))]
            for done in passes
        ]
        ctx.tally.check(all(p == prints[0] for p in prints),
                        "passes over the same grid disagree")
        run.fingerprints = prints[0]
        digest = hashlib.sha256("".join(run.fingerprints).encode()).hexdigest()[:16]
        run.notes.append(f"{len(passes)} pass(es) of {self.cells} cells; "
                         f"cell-report digest {digest}")
        errors = []
        for cell in passes[0].cells:
            paper = self.paper_minutes(setup, cell)
            ours = setup.sim_to_paper_minutes(cell.report.total_time)
            errors.append(abs(ours - paper) / paper)
        run.paper_rel_err = sum(errors) / len(errors) if errors else 1.0
        self._counts(run, passes, cells)

    def _counts(self, run: Run, passes, cells) -> None:
        def total(key: str) -> float:
            return float(sum(c.report.counters.get(key, 0.0) for c in cells))

        messages, sends = total("p2p_messages"), total("app_sends")
        sim_time = sum(c.report.total_time for c in cells)
        counts = {
            "mpi.p2p_messages": messages,
            "mpi.p2p_bytes": total("p2p_bytes"),
            "redundancy.amplification": messages / sends if sends else 0.0,
            "redundancy.dropped_ratio": total("p2p_dropped") / messages if messages else 0.0,
            "checkpoint.commits": float(sum(c.report.checkpoints_committed for c in cells)),
            "checkpoint.sim_frac": sum(c.report.checkpoint_union_time for c in cells)
            / sim_time if sim_time else 0.0,
            "faults.injected": float(sum(c.report.failures_injected for c in cells)),
            "faults.rollbacks": float(sum(c.report.rollbacks for c in cells)),
            "faults.attempts_per_cell": sum(c.report.attempts for c in cells) / len(cells)
            if cells else 0.0,
        }
        utilizations = []
        for done in passes:
            utilizations.append(
                done.registry.snapshot()["gauges"].get("campaign.utilization", 0.0))
            if done.store is not None:
                stats = done.store.stats()
                for key in ("hits", "misses", "writes"):
                    counts[f"store.{key}"] = counts.get(f"store.{key}", 0.0) + stats[key]
        run.counts = counts
        run.notes.append(
            "executor registry: utilization "
            + ", ".join(f"{u:.4f}" for u in utilizations)
            + f" (busy cell-seconds over wall x {run.lanes} lane(s))")
        run.notes.append(
            f"job reports: {int(messages)} p2p messages over {int(sends)} app sends, "
            f"{int(counts['faults.injected'])} failures, "
            f"{int(counts['faults.rollbacks'])} rollbacks, "
            f"{int(counts['checkpoint.commits'])} checkpoints over {len(cells)} cells")
        if self.uses_store:
            run.notes.append("store: " + ", ".join(
                f"{k} {int(counts[f'store.{k}'])}" for k in ("hits", "misses", "writes")
            ) + f" over {len(cells)} cells")


class Table4Quick(Campaign):
    name = "table4-quick"
    why = ("Paper Table 4 quick grid with failures, Daly C/R, process pool and "
           "store writes: the headline experiment and the campaign --quick user path")
    experiment = "table4"
    cells = 15  # 3 MTBFs x 5 degrees
    pooled = True
    uses_store = True
    extra_params = {"quick": True}
    modules = ("repro.experiments.runner", "repro.experiments.table4", "repro.store")

    def check(self, ctx: Context, run: Run) -> None:
        super().check(ctx, run)
        _setup, passes = run.raw
        ctx.tally.check(
            run.counts["store.misses"] == len(passes) * self.cells
            and run.counts["store.writes"] == run.ops and run.counts["store.hits"] == 0,
            "a fresh store must see one miss per cell and one write per completed cell",
        )

    def paper_minutes(self, setup, cell) -> float:
        from repro.experiments.table4 import PAPER_TABLE4
        from repro.models.redundancy import PAPER_REDUNDANCY_GRID

        hours = next(h for h in PAPER_TABLE4 if setup.mtbf_to_sim(h) == cell.node_mtbf)
        return PAPER_TABLE4[hours][PAPER_REDUNDANCY_GRID.index(cell.redundancy)]


class Table5Serial(Campaign):
    name = "table5-serial"
    why = ("Paper Table 5 failure-free sweep, serial and storeless: the same "
           "simkit/mpi/redundancy hot path without faults, C/R, pool or store")
    experiment = "table5"
    cells = 9  # 1x-3x in 0.25x steps
    modules = ("repro.experiments.runner", "repro.experiments.table5")

    def paper_minutes(self, setup, cell) -> float:
        from repro.experiments.table5 import PAPER_OBSERVED
        from repro.models.redundancy import PAPER_REDUNDANCY_GRID

        return PAPER_OBSERVED[PAPER_REDUNDANCY_GRID.index(cell.redundancy)]


# -- serving ---------------------------------------------------------------------

#: Paper Table 2 (a 168 h job, 5 y node MTBF, r=1): useful-work share.
TABLE2_POINTS = {100: 0.96, 1_000: 0.92, 10_000: 0.75, 100_000: 0.35}
RECOMMEND_SHARE = 0.1
POOL_SIZE = 28
_READY = re.compile(r":(\d+) ")

_SERVE = (
    "import sys\n"
    "sys.path.insert(0, {src!r})\n"
    "from repro.cli import main\n"
    "raise SystemExit(main(sys.argv[1:]))\n"
)
_SERVE_TRACED = (
    "import sys\n"
    "sys.path[:0] = [{root!r}, {src!r}]\n"
    "from perfbench.serve_traced import main\n"
    "raise SystemExit(main(sys.argv[1:]))\n"
)


def table2_models():
    """The paper's Table 2 parameter sets, as served model requests."""
    from repro import units
    from repro.models import CombinedModel

    return [
        CombinedModel(
            virtual_processes=nodes, redundancy=1.0, node_mtbf=units.years(5.0),
            alpha=0.0, base_time=units.hours(168.0),
            checkpoint_cost=units.minutes(10), restart_cost=units.minutes(12),
        )
        for nodes in TABLE2_POINTS
    ]


def request_pool(seed: int):
    """Seeded model parameter sets the requests draw from (with repeats).

    The paper's Table 2 sets come first; the rest span machine sizes,
    MTBFs and C/R costs where every degree of the paper grid finishes.
    """
    from repro import units
    from repro.models import CombinedModel
    from repro.models.redundancy import PAPER_REDUNDANCY_GRID

    rng = random.Random(seed)
    pool = table2_models()
    while len(pool) < POOL_SIZE:
        pool.append(CombinedModel(
            virtual_processes=int(10 ** rng.uniform(3.0, 4.7)),
            redundancy=rng.choice(PAPER_REDUNDANCY_GRID),
            node_mtbf=units.years(rng.uniform(3.0, 10.0)),
            alpha=rng.uniform(0.1, 0.3),
            base_time=units.hours(rng.uniform(24.0, 168.0)),
            checkpoint_cost=units.minutes(rng.uniform(2.0, 10.0)),
            restart_cost=units.minutes(rng.uniform(5.0, 15.0)),
        ))
    return pool


class Server:
    """A ``repro-exp serve`` subprocess with a fresh store."""

    def __init__(self, ctx: Context, traced: bool) -> None:
        self.store_dir = ctx.tempdir("serve-store-")
        self.parts_dir = ctx.tempdir("serve-parts-") if traced else None
        self.stderr = open(os.path.join(ctx.workdir, "serve-stderr.log"), "ab")
        code = (_SERVE_TRACED if traced else _SERVE).format(
            root=str(ctx.root), src=str(ctx.src))
        argv = [sys.executable, "-c", code]
        if traced:
            argv.append(self.parts_dir)
        argv += ["serve", "--host", "127.0.0.1", "--port", "0",
                 "--store", self.store_dir]
        self.proc = subprocess.Popen(argv, cwd=ctx.root, stdout=subprocess.PIPE,
                                     stderr=self.stderr)
        try:
            self.port = self._await_ready(timeout=60.0)
            self._await_healthy(timeout=30.0)
        except BaseException:
            self.kill()
            raise

    def _await_ready(self, timeout: float) -> int:
        deadline = perf() + timeout
        buffer = b""
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while b"\n" not in buffer:
                left = deadline - perf()
                if left <= 0 or not selector.select(left):
                    raise RuntimeError("server printed no ready line in time")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError("server exited before its ready line")
                buffer += chunk
        line = buffer.split(b"\n", 1)[0].decode()
        match = _READY.search(line)
        if match is None:
            raise RuntimeError(f"unexpected ready line {line!r}")
        self._rest = buffer.split(b"\n", 1)[1]
        return int(match.group(1))

    def _await_healthy(self, timeout: float) -> None:
        """Wait for one ``GET /healthz`` answer.

        ``repro-exp serve`` prints its ready line before its event loop
        installs the SIGTERM handler, so a SIGTERM right after the line
        can kill it (exit -15) instead of draining it.  The first answer
        comes from that event loop, after the handler is in place.
        """
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        if response.status != 200 or body.get("status") != "ok":
            raise RuntimeError(f"server not healthy: {response.status} {body!r}")

    def stop(self) -> Tuple[int, str]:
        """SIGTERM, wait for the drain; returns (exit code, stdout tail)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            return -1, "server did not drain within 30 s"
        finally:
            self.stderr.close()
        return self.proc.returncode, (self._rest + out).decode()

    def kill(self) -> None:
        self.proc.kill()
        self.proc.communicate()
        self.stderr.close()


class Request(NamedTuple):
    """One request the closed loop sent, and what came back."""

    kind: str  # "evaluate" or "recommend"
    index: int  # into the request pool
    start: float
    end: float
    answer: Optional[Dict[str, Any]]
    error: Optional[str]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class ServeMixed(Workload):
    name = "serve-mixed"
    why = ("Closed loop over one connection to a repro-exp serve process, ~90% "
           "/evaluate and 10% /recommend with repeats: HTTP+JSON, micro-batcher "
           "and store, no simkit")
    labels = ("serve_rps", "serve", "request")
    modules = ("repro.service.client", "repro.models")

    def setup(self, ctx: Context, traced: bool = False) -> Server:
        return Server(ctx, traced)

    def teardown(self, ctx: Context, server: Server) -> List[Dict[str, Any]]:
        """Drain the server; returns the spans a traced server wrote."""
        code, tail = server.stop()
        ctx.tally.check(code == 0 and "drained:" in tail,
                        f"server did not drain cleanly (exit {code}): {tail.strip()[-200:]}")
        return merge_parts(server.parts_dir) if server.parts_dir is not None else []

    def measure(self, ctx: Context, server: Server, recorder=None) -> Run:
        import http.client

        from repro.errors import ReproError
        from repro.service.client import ServeClient

        pool = request_pool(ctx.seed)
        failures = (ReproError, OSError, http.client.HTTPException, ValueError)

        def call(client, kind: str, index: int):
            try:
                if kind == "recommend":
                    return client.recommend(pool[index]), None
                return client.evaluate(pool[index]), None
            except failures as error:
                return None, f"{type(error).__name__}: {error}"

        # Warm-up (checked, not timed): every Table 2 set once, so the
        # paper comparison always has its answers, and one /recommend per
        # pool model, so the window sees the steady state (store hits)
        # rather than a first-answer tail whose share of the samples
        # would change with the request rate.
        warm = [("evaluate", i) for i in range(len(TABLE2_POINTS))]
        warm += [("recommend", i) for i in range(len(pool))]
        # One connection, from this one thread: with the server that keeps
        # at most two CPUs busy.  Two connections would keep both CPUs of
        # a 2-CPU host saturated, so latencies would move with whatever
        # else the host runs.
        ctx.tally.check(threading.active_count() <= ctx.nproc,
                        f"{threading.active_count()} threads exceed nproc={ctx.nproc}")
        outcomes: List[Request] = []
        timed: List[Request] = []
        rng = random.Random(ctx.seed * 1009)
        with ServeClient(port=server.port, timeout=30.0) as client:
            for kind, index in warm:
                t0 = perf()
                answer, error = call(client, kind, index)
                outcomes.append(Request(kind, index, t0, perf(), answer, error))
            cpu0 = time.process_time()
            started = perf()
            while perf() - started < ctx.seconds:
                kind = "recommend" if rng.random() < RECOMMEND_SHARE else "evaluate"
                index = rng.randrange(len(pool))
                t0 = perf()
                answer, error = call(client, kind, index)
                timed.append(Request(kind, index, t0, perf(), answer, error))
            wall = perf() - started
            cpu = time.process_time() - cpu0
            metrics = client.metrics()
        if recorder is not None:
            for r in timed:
                recorder.add("service.request", r.start, r.end, kind=r.kind)
        latencies = [r.seconds for r in timed if r.error is None]
        return Run(
            wall=wall, ops=len(latencies), latencies=latencies, cpu=cpu,
            lanes=1, raw=(pool, outcomes + timed, len(warm), metrics),
            records=list(recorder.records) if recorder is not None else [],
        )

    def check(self, ctx: Context, run: Run) -> None:
        pool, outcomes, warm, metrics = run.raw
        timed = outcomes[warm:]
        model_seconds = self._verify(ctx, pool, outcomes)
        run.paper_rel_err = self._paper_rel_err(outcomes)
        rtt = sum(r.seconds for r in timed)
        run.counts = self._counts(metrics)
        run.counts["service.model_share"] = (
            sum(model_seconds[r.kind, r.index] for r in timed) / rtt if rtt else 0.0
        )
        recommends = sum(1 for r in timed if r.kind == "recommend")
        run.notes.append(
            f"closed loop: {run.lanes} keep-alive connection(s), {len(timed)} timed "
            f"requests ({recommends} /recommend) over {run.wall:.3f} s, plus {warm} "
            f"warm-up requests; pool of {len(pool)} models"
        )
        batcher, cache = metrics["batcher"], metrics["recommend_cache"]
        run.notes.append(
            f"/metrics: {batcher['evaluations']} evaluations in {batcher['batches']} "
            f"batches, shed {batcher['shed']}; recommend LRU {cache['hits']} hits / "
            f"{cache['hits'] + cache['misses']} lookups, store hits {cache['store_hits']}"
        )
        run.notes.append(
            f"model share: in-process model time over round-trip time of the "
            f"{len(timed)} timed requests = {run.counts['service.model_share']:.4f}"
        )
        run.fingerprints = [f"{r.kind}:{r.index}:{r.error is None}" for r in outcomes[:warm]]

    @staticmethod
    def _counts(metrics: Dict[str, Any]) -> Dict[str, float]:
        batcher, cache = metrics["batcher"], metrics["recommend_cache"]
        store = metrics.get("store") or {}
        return {
            "service.mean_batch_size": float(batcher["mean_batch_size"]),
            "service.shed": float(batcher["shed"]),
            "service.recommend_lru_hits": float(cache["hits"]),
            "service.recommend_store_hits": float(cache["store_hits"]),
            "store.hits": float(store.get("hits", 0)),
            "store.misses": float(store.get("misses", 0)),
            "store.writes": float(store.get("writes", 0)),
        }

    @staticmethod
    def _verify(ctx: Context, pool, outcomes) -> Dict[tuple, float]:
        """Check every answer against the in-process model; time the model.

        Returns the in-process model seconds per (kind, pool index): the
        fastest of three scalar evaluations, or of three uncached
        ``recommend`` calls.
        """
        from repro.errors import ModelDivergence
        from repro.models.advisor import clear_recommend_cache, recommend
        from repro.models.optimize import clear_model_cache
        from repro.service.batching import model_to_dict
        from repro.service.server import recommendation_to_dict

        def roundtrip(value):
            return json.loads(json.dumps(value))

        expected: Dict[tuple, Any] = {}
        seconds: Dict[tuple, float] = {}
        for key in sorted({(r.kind, r.index) for r in outcomes}):
            kind, index = key
            model = pool[index]
            timings = []
            for _ in range(3):
                if kind == "recommend":
                    clear_recommend_cache()
                    clear_model_cache()
                t0 = perf()
                try:
                    value = recommend(model) if kind == "recommend" else model.evaluate()
                except ModelDivergence:
                    value = None
                timings.append(perf() - t0)
            seconds[key] = min(timings)
            if kind == "recommend":
                expected[key] = None if value is None else roundtrip(
                    {"model": model_to_dict(model), **recommendation_to_dict(value)})
            elif value is None:
                expected[key] = {"model": roundtrip(model_to_dict(model)),
                                 "total_time": math.inf, "diverged": True}
            else:
                expected[key] = {
                    "model": roundtrip(model_to_dict(model)),
                    "redundant_time": value.redundant_time,
                    "total_processes": value.total_processes,
                    "system_reliability": value.system_reliability,
                    "failure_rate": value.failure_rate,
                    "system_mtbf": value.system_mtbf,
                    "checkpoint_interval": value.checkpoint_interval,
                    "total_time": value.total_time,
                    "diverged": False,
                }
        for r in outcomes:
            want = expected[r.kind, r.index]
            if r.error is not None or want is None:
                ctx.tally.op(False, f"{r.kind} #{r.index}: {r.error or 'no answer expected'}")
            elif r.kind == "recommend":
                ctx.tally.op(r.answer == want, f"recommend #{r.index} differs from in-process")
            else:
                same = all(r.answer.get(k) == v for k, v in want.items())
                ctx.tally.op(same, f"evaluate #{r.index} not bit-identical to the scalar model")
        return seconds

    @staticmethod
    def _paper_rel_err(outcomes) -> float:
        """Served Table 2 work shares (t_Red / T_total) against the paper."""
        errors = []
        for index, paper in enumerate(TABLE2_POINTS.values()):
            answer = next((r.answer for r in outcomes if r.kind == "evaluate"
                           and r.index == index and r.answer is not None), None)
            if answer is None or not math.isfinite(answer["total_time"]):
                errors.append(1.0)
                continue
            share = answer["redundant_time"] / answer["total_time"]
            errors.append(abs(share - paper) / paper)
        return sum(errors) / len(errors)


# -- planning --------------------------------------------------------------------

#: Paper Fig. 13/14 reference points and where our findings keep them.
FIG_POINTS = (
    ("fig13", "crossover_1x_to_2x_processes", 4_351),
    ("fig13", "crossover_1x_to_3x_processes", 12_551),
    ("fig14", "two_2x_jobs_fit_in_one_1x_job_at", 78_536),
    ("fig14", "3x_beats_2x_beyond", 771_251),
)


def plan_inputs(seed: int):
    """Endless seeded machine parameter sets; the paper's own set first.

    Each item is ``(fig13/fig14 parameters, N for the recommendation,
    (N, r) for the grid spot check)``.
    """
    from repro.models.redundancy import PAPER_REDUNDANCY_GRID

    rng = random.Random(seed)
    first = True
    while True:
        if first:
            params: Dict[str, float] = {}
            first = False
        else:
            params = {
                "base_time_hours": rng.uniform(64.0, 256.0),
                "node_mtbf_years": rng.uniform(2.0, 10.0),
                "alpha": rng.uniform(0.1, 0.3),
                "checkpoint_cost": 60.0 * rng.uniform(4.0, 15.0),
                "restart_cost": 60.0 * rng.uniform(8.0, 30.0),
            }
        processes = int(10 ** rng.uniform(3.0, 5.0))
        spot = (int(10 ** rng.uniform(2.0, 6.0)), rng.choice(PAPER_REDUNDANCY_GRID))
        yield params, processes, spot


class Plan(NamedTuple):
    """One plan: its inputs, its timing and what the program answered."""

    params: Dict[str, float]
    processes: int
    spot: Tuple[int, float]
    start: float
    end: float
    fig13: Optional[Dict[str, Any]]  # findings
    fig14: Optional[Dict[str, Any]]
    degree: Optional[float]  # recommended redundancy
    error: Optional[str]


class PlanSweep(Workload):
    name = "plan-sweep"
    why = ("Seeded machine parameter sets each planned with fig13, fig14 and "
           "recommend, caches cleared first: the one workload where the analytic model dominates")
    labels = ("plans_per_s", "plan", "plan")
    modules = ("repro.experiments.runner", "repro.experiments.fig13",
               "repro.experiments.fig14", "repro.models")

    def latency_ms(self, run: Run) -> float:
        """The mean plan time.  Plan times have two modes, about 4 ms and
        7 ms, that follow the host's speed from one half second to the
        next, so any percentile jumps with the share of slow time in the
        window; the mean moves in proportion to it."""
        return 1e3 * sum(run.latencies) / len(run.latencies) if run.latencies else math.nan

    def measure(self, ctx: Context, _fixture, recorder=None) -> Run:
        from repro.errors import ReproError
        from repro.experiments.fig13 import base_model
        from repro.experiments.runner import run_experiment
        from repro.models.advisor import (
            clear_recommend_cache, recommend, recommend_cache_info)
        from repro.models.optimize import clear_model_cache, model_cache_info

        inputs = plan_inputs(ctx.seed)
        plans: List[Plan] = []
        clear_model_cache()
        clear_recommend_cache()
        started, cpu0 = perf(), time.process_time()
        with _span(recorder, "bench.plan-sweep"):
            while perf() - started < ctx.seconds:
                params, processes, spot = next(inputs)
                t0 = perf()
                try:
                    with _span(recorder, "bench.plan"):
                        fig13 = run_experiment("fig13", **params)
                        fig14 = run_experiment("fig14", **params)
                        fig13.render()
                        fig14.render()
                        rec = recommend(base_model(**params).with_processes(processes))
                    answer = (fig13.findings, fig14.findings, rec.redundancy, None)
                except ReproError as error:
                    answer = (None, None, None, f"{type(error).__name__}: {error}")
                plans.append(Plan(params, processes, spot, t0, perf(), *answer))
        wall = perf() - started
        cpu = time.process_time() - cpu0
        return Run(
            wall=wall, ops=len(plans), latencies=[p.end - p.start for p in plans],
            cpu=cpu, lanes=1, raw=(plans, model_cache_info(), recommend_cache_info()),
            records=list(recorder.records) if recorder is not None else [],
        )

    def check(self, ctx: Context, run: Run) -> None:
        plans, evaluations, recommends = run.raw
        for plan in plans:
            ok, what = self._check(plan)
            ctx.tally.op(ok, what)
        errors = []
        for figure, key, paper in FIG_POINTS:
            findings = getattr(plans[0], figure) or {}
            ours = findings.get(key)
            errors.append(1.0 if ours is None else abs(ours - paper) / paper)
        run.paper_rel_err = sum(errors) / len(errors)
        run.notes.append(
            f"{len(plans)} plans; scalar-evaluation memo: {evaluations.misses} misses "
            f"(distinct scalar evaluations) / {evaluations.hits + evaluations.misses} "
            f"lookups; recommend memo: {recommends.hits} hits / "
            f"{recommends.hits + recommends.misses} lookups"
        )
        run.fingerprints = [repr((p.fig13, p.fig14, p.degree)) for p in plans[:8]]

    @staticmethod
    def _check(plan: Plan) -> Tuple[bool, str]:
        import numpy as np
        from repro.experiments.fig13 import base_model
        from repro.models.grid import total_time_grid
        from repro.models.redundancy import PAPER_REDUNDANCY_GRID

        if plan.error is not None:
            return False, plan.error
        cross2 = plan.fig13.get("crossover_1x_to_2x_processes")
        cross3 = plan.fig13.get("crossover_1x_to_3x_processes")
        if cross2 is None or cross3 is None or not cross2 < cross3:
            return False, f"crossovers out of order: 1x->2x {cross2}, 1x->3x {cross3}"
        if plan.degree not in PAPER_REDUNDANCY_GRID:
            return False, f"recommended degree {plan.degree} is not in the grid"
        processes, redundancy = plan.spot
        model = base_model(**plan.params)
        scalar = model.with_processes(processes).with_redundancy(redundancy).total_time_or_inf()
        grid = float(total_time_grid(model, processes=np.array([float(processes)]),
                                     redundancy=np.array([[redundancy]]))[0][0])
        if math.isinf(scalar) or math.isinf(grid):
            same = scalar == grid
        else:
            same = abs(grid - scalar) <= 1e-9 * abs(scalar)
        if not same:
            return False, f"grid {grid!r} != scalar {scalar!r} at N={processes} r={redundancy}"
        return True, ""


WORKLOADS = {
    workload.name: workload
    for workload in (Table4Quick(), Table5Serial(), ServeMixed(), PlanSweep())
}
