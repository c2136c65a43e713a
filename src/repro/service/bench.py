"""`repro-exp bench-serve` — load-generate the serving endpoint.

Runs a :class:`~repro.service.server.ModelServer` on an ephemeral port
inside a background thread, hammers it from a thread pool of keep-alive
:class:`~repro.service.client.ServeClient` instances, and reports
throughput and **exact** latency percentiles (every latency is
recorded; nothing is bucketed).  The request mix cycles
deterministically through a small grid of model parameters so
concurrent requests genuinely differ — batches exercise the mixed-input
path, not 64 copies of one row — and a sprinkling of ``/recommend``
calls keeps the advisor path warm.

The run doubles as a correctness probe: a sample of ``/evaluate``
answers is re-derived with a direct scalar
:meth:`~repro.models.combined.CombinedModel.evaluate` call and compared
bit-for-bit; the report carries the verdict.

Results land in ``BENCH_serve.json`` next to the other BENCH artifacts.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

from ..errors import ModelDivergence, ReproError, ServiceError
from ..models.combined import CombinedModel
from .client import ServeClient
from .server import ModelServer

__all__ = ["run_bench", "ServerThread"]

#: Deterministic request mix: (redundancy, node_mtbf_hours, alpha).
_MIX = [
    (1.0, 6.0, 0.2),
    (1.5, 12.0, 0.2),
    (2.0, 18.0, 0.25),
    (2.5, 24.0, 0.15),
    (3.0, 30.0, 0.2),
    (1.25, 6.0, 0.3),
    (2.25, 24.0, 0.1),
    (2.0, 6.0, 0.2),
]


def _model_for(index: int) -> CombinedModel:
    redundancy, mtbf_hours, alpha = _MIX[index % len(_MIX)]
    return CombinedModel(
        virtual_processes=10_000 + 1_000 * (index % 7),
        redundancy=redundancy,
        node_mtbf=mtbf_hours * 3600.0 * 100.0,
        alpha=alpha,
        base_time=128.0 * 3600.0,
        checkpoint_cost=300.0,
        restart_cost=600.0,
    )


class ServerThread:
    """A ModelServer running its own event loop in a daemon thread.

    Used by the bench and the service smoke tests: ``start()`` returns
    once the ephemeral port is bound; ``stop()`` triggers the graceful
    drain and joins the thread.
    """

    def __init__(self, **server_kwargs) -> None:
        server_kwargs.setdefault("host", "127.0.0.1")
        server_kwargs.setdefault("port", 0)
        self.server = ModelServer(**server_kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )

    @property
    def port(self) -> int:
        return self.server.port

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # noqa: BLE001 - surfaced in start/stop
            self._error = error
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.server.run()

    def start(self) -> "ServerThread":
        self._thread.start()
        # run() sets no explicit ready flag; poll for the bound port.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if self._error is not None:
                raise ReproError(f"server thread failed: {self._error}")
            if self.server.port != 0 and self.server._server is not None:
                return self
            time.sleep(0.005)
        raise ReproError("server thread did not come up within 10 s")

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(timeout=10.0)
        if self._thread.is_alive():
            raise ReproError("server thread did not drain within 10 s")
        if self._error is not None:
            raise ReproError(f"server thread failed: {self._error}")


def _percentile(sorted_values: List[float], q: float) -> float:
    """Exact nearest-rank percentile over recorded samples."""
    if not sorted_values:
        return math.nan
    rank = max(1, math.ceil(len(sorted_values) * q / 100.0))
    return sorted_values[rank - 1]


def _worker(
    port: int, requests: int, offset: int, recommend_every: int
) -> Dict[str, Any]:
    latencies: List[float] = []
    errors = 0
    diverged = 0
    with ServeClient(port=port) as client:
        for i in range(requests):
            index = offset + i
            started = time.perf_counter()
            try:
                if recommend_every and index % recommend_every == 0:
                    client.recommend(_model_for(index))
                else:
                    answer = client.evaluate(_model_for(index))
                    if answer["diverged"]:
                        diverged += 1
            except (ServiceError, ModelDivergence, OSError):
                errors += 1
                continue
            latencies.append(time.perf_counter() - started)
    return {"latencies": latencies, "errors": errors, "diverged": diverged}


def _verify_bit_identity(port: int, samples: int = 16) -> bool:
    """Re-derive a sample of served answers with the scalar model."""
    with ServeClient(port=port) as client:
        for index in range(samples):
            model = _model_for(index)
            served = client.evaluate(model)
            try:
                direct = model.evaluate()
            except ModelDivergence:
                if not served["diverged"]:
                    return False
                continue
            for field, expected in (
                ("redundant_time", direct.redundant_time),
                ("system_reliability", direct.system_reliability),
                ("failure_rate", direct.failure_rate),
                ("checkpoint_interval", direct.checkpoint_interval),
                ("total_time", direct.total_time),
            ):
                if served[field] != expected:
                    return False
            if served["total_processes"] != direct.total_processes:
                return False
    return True


def run_bench(
    threads: int = 8,
    requests_per_thread: int = 200,
    max_batch: int = 64,
    max_wait: float = 0.002,
    queue_limit: int = 1024,
    recommend_every: int = 25,
    quick: bool = False,
    output: Optional[str] = "BENCH_serve.json",
) -> Dict[str, Any]:
    """Load-test an in-process server; return (and write) the report."""
    if quick:
        threads = min(threads, 4)
        requests_per_thread = min(requests_per_thread, 25)
    runner = ServerThread(
        max_batch=max_batch, max_wait=max_wait, queue_limit=queue_limit
    ).start()
    try:
        bit_identical = _verify_bit_identity(runner.port)
        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=threads) as pool:
            shards = list(
                pool.map(
                    lambda t: _worker(
                        runner.port,
                        requests_per_thread,
                        t * requests_per_thread,
                        recommend_every,
                    ),
                    range(threads),
                )
            )
        wall = time.perf_counter() - started
        client = ServeClient(port=runner.port)
        try:
            served_metrics = client.metrics()
        finally:
            client.close()
    finally:
        runner.stop()

    latencies = sorted(
        latency for shard in shards for latency in shard["latencies"]
    )
    total = len(latencies)
    errors = sum(shard["errors"] for shard in shards)
    report = {
        "bench": "serve",
        "quick": quick,
        "threads": threads,
        "requests": total,
        "errors": errors,
        "diverged": sum(shard["diverged"] for shard in shards),
        "wall_seconds": round(wall, 4),
        "throughput_rps": round(total / wall, 1) if wall > 0 else math.inf,
        "latency_ms": {
            "p50": round(_percentile(latencies, 50) * 1e3, 3),
            "p90": round(_percentile(latencies, 90) * 1e3, 3),
            "p99": round(_percentile(latencies, 99) * 1e3, 3),
            "max": round(latencies[-1] * 1e3, 3) if latencies else math.nan,
        },
        "batching": served_metrics["batcher"],
        "recommend_cache": served_metrics["recommend_cache"],
        "bit_identical_sample": bit_identical,
    }
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    return report
