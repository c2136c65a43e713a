"""End-to-end service tests over real sockets (ServerThread + client)."""

import json
import logging
import os
import re
import signal
import socket
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro

from repro.errors import ConfigurationError, ServiceError
from repro.models import CombinedModel, recommend
from repro.service import ServeClient
from repro.service import server as server_module
from repro.service.server import (
    MAX_BODY_BYTES,
    MAX_HEADER_LINES,
    MAX_LINE_BYTES,
    parse_model,
)
from repro.store import ResultsStore

from .server_thread import ServerThread


def model(i: int = 0, **overrides) -> CombinedModel:
    params = dict(
        virtual_processes=20_000 + 500 * i,
        redundancy=1.0 + 0.25 * (i % 9),
        node_mtbf=5 * 365 * 24 * 3600.0,
        alpha=0.2,
        base_time=128 * 3600.0,
        checkpoint_cost=480.0,
        restart_cost=720.0,
    )
    params.update(overrides)
    return CombinedModel(**params)


@pytest.fixture(scope="module")
def server():
    runner = ServerThread(max_batch=32, max_wait=0.005).start()
    yield runner
    runner.stop()


@pytest.fixture()
def client(server):
    with ServeClient(port=server.port) as c:
        yield c


class TestEvaluate:
    def test_concurrent_requests_bit_identical_to_scalar(self, server):
        def one(i):
            with ServeClient(port=server.port) as c:
                return c.evaluate(model(i))

        with ThreadPoolExecutor(max_workers=12) as pool:
            answers = list(pool.map(one, range(48)))
        for i, served in enumerate(answers):
            direct = model(i).evaluate()
            assert served["total_time"] == direct.total_time
            assert served["checkpoint_interval"] == direct.checkpoint_interval
            assert served["system_reliability"] == direct.system_reliability
            assert served["failure_rate"] == direct.failure_rate
            assert served["total_processes"] == direct.total_processes
            assert served["diverged"] is False

    def test_diverged_configuration_carries_infinity(self, client):
        served = client.evaluate(model(0, node_mtbf=100.0, base_time=1000.0))
        assert served["diverged"] is True
        assert served["total_time"] == float("inf")

    def test_missing_field_is_400(self, client):
        with pytest.raises(ConfigurationError, match="missing model fields"):
            client._request("POST", "/evaluate", {"virtual_processes": 10})

    def test_unknown_field_is_400(self, client):
        body = {**{f: 1 for f in (
            "virtual_processes", "redundancy", "node_mtbf", "alpha",
            "base_time", "checkpoint_cost", "restart_cost")}, "typo": 1}
        with pytest.raises(ConfigurationError, match="unknown model fields"):
            client._request("POST", "/evaluate", body)

    def test_out_of_domain_is_400(self, client):
        with pytest.raises(ConfigurationError, match="node_mtbf"):
            client._request(
                "POST", "/evaluate",
                {"virtual_processes": 10, "redundancy": 1.0,
                 "node_mtbf": -5.0, "alpha": 0.2, "base_time": 10.0,
                 "checkpoint_cost": 1.0, "restart_cost": 1.0},
            )


class TestRecommend:
    def test_matches_local_advisor(self, client):
        served = client.recommend(model(0), node_budget=60_000)
        local = recommend(model(0), node_budget=60_000)
        assert served["redundancy"] == local.redundancy
        assert served["checkpoint_interval"] == local.checkpoint_interval
        assert served["total_time"] == local.total_time
        assert served["total_processes"] == local.total_processes
        assert served["rationale"] == local.rationale
        assert len(served["candidates"]) == len(local.candidates)

    def test_requires_model_key(self, client):
        with pytest.raises(ConfigurationError, match="model"):
            client._request("POST", "/recommend", {"grid": [1.0]})


class TestIntrospection:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["draining"] is False

    def test_metrics_exports_batching_and_cache_stats(self, client):
        client.evaluate(model(1))
        payload = client.metrics()
        assert payload["batcher"]["evaluations"] >= 1
        assert payload["batcher"]["batches"] >= 1
        histogram = payload["metrics"]["histograms"]["serve.batch_size"]
        assert histogram["count"] >= 1
        assert "hit_ratio" in payload["recommend_cache"]

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServiceError, match="no such endpoint"):
            client._request("GET", "/nope")

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServiceError, match="use POST"):
            client._request("GET", "/evaluate")


class TestStoreBackedRecommend:
    def test_second_request_hits_the_store(self, tmp_path):
        runner = ServerThread(store=ResultsStore(tmp_path)).start()
        try:
            with ServeClient(port=runner.port) as c:
                first = c.recommend(model(3))
                second = c.recommend(model(3))
                stats = c.metrics()
        finally:
            runner.stop()
        assert first == second
        assert stats["recommend_cache"]["store_hits"] >= 1
        assert stats["store"]["writes"] >= 1


class TestGracefulDrain:
    def test_drain_answers_then_refuses(self):
        runner = ServerThread().start()
        with ServeClient(port=runner.port) as c:
            assert c.evaluate(model(0))["diverged"] is False
        runner.stop()  # graceful: joins only after in-flight work drains
        with pytest.raises(OSError):
            with ServeClient(port=runner.port, timeout=1.0) as c:
                c.healthz()


class TestIdleConnections:
    def test_idle_connection_is_closed_after_the_read_timeout(self, monkeypatch):
        monkeypatch.setattr(server_module, "READ_TIMEOUT_S", 0.2)
        runner = ServerThread().start()
        try:
            with socket.create_connection(
                ("127.0.0.1", runner.port), timeout=5.0
            ) as sock:
                started = time.monotonic()
                assert sock.recv(1) == b""  # closed, with no reply
                assert time.monotonic() - started < 3.0
        finally:
            runner.stop()

    def test_drain_closes_an_idle_connection_quietly(self, caplog):
        runner = ServerThread().start()
        with ServeClient(port=runner.port) as c:
            assert c.healthz()["status"] == "ok"  # now idle, kept alive
            started = time.monotonic()
            with caplog.at_level(logging.ERROR):
                runner.stop()
            assert time.monotonic() - started < 1.5
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []


def raw_exchange(port: int, head: bytes) -> tuple:
    """Send raw request bytes; return (status, JSON body, closed after)."""
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.sendall(head)
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            received += chunk
    head_text, _, body = received.partition(b"\r\n\r\n")
    status = int(head_text.split()[1])
    return status, json.loads(body), b"Connection: close" in head_text


class TestHeaderLines:
    def test_too_many_header_lines_get_431(self, server):
        # One line past the cap, all with one name: only a count of
        # lines, not of distinct names, catches it.  No blank line ends
        # the headers, so the server must answer without reading on.
        status, body, closed = raw_exchange(
            server.port,
            b"GET /healthz HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * (MAX_HEADER_LINES + 1),
        )
        assert status == 431
        assert str(MAX_HEADER_LINES) in body["error"]
        assert closed

    def test_over_long_header_line_gets_431(self, server):
        status, body, closed = raw_exchange(
            server.port,
            b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n",
        )
        assert status == 431
        assert str(MAX_LINE_BYTES) in body["error"]
        assert closed

    def test_over_long_request_line_gets_400(self, server):
        before = server.server.metrics.counter("serve.bad_requests").value
        status, body, closed = raw_exchange(
            server.port, b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n"
        )
        assert status == 400
        assert str(MAX_LINE_BYTES) in body["error"]
        assert closed
        after = server.server.metrics.counter("serve.bad_requests").value
        assert after == before + 1

    def test_header_lines_at_the_cap_are_served(self, server):
        status, body, _closed = raw_exchange(
            server.port,
            b"GET /healthz HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * (MAX_HEADER_LINES - 1)
            + b"Connection: close\r\n\r\n",
        )
        assert status == 200
        assert body["status"] == "ok"


class TestContentLength:
    @pytest.mark.parametrize("value", ["abc", "-5", "1e3", "12abc"])
    def test_unparsable_length_gets_json_400(self, server, value):
        status, body, closed = raw_exchange(
            server.port,
            f"POST /evaluate HTTP/1.1\r\nContent-Length: {value}\r\n\r\n".encode(),
        )
        assert status == 400
        assert "Content-Length" in body["error"]
        assert closed

    def test_oversized_length_gets_413_without_reading_the_body(self, server):
        # No body bytes are sent at all: the server must answer from the
        # header alone instead of waiting for a body that never comes.
        status, body, closed = raw_exchange(
            server.port,
            f"POST /evaluate HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}"
            "\r\n\r\n".encode(),
        )
        assert status == 413
        assert str(MAX_BODY_BYTES) in body["error"]
        assert closed

    def test_server_still_serves_after_rejections(self, client):
        assert client.healthz()["status"] == "ok"


class TestEarlySigterm:
    def test_sigterm_right_after_ready_line_drains(self):
        # The SIGTERM handler must be in place before the ready line is
        # printed, or a signal right after it kills the process (-15).
        env = dict(os.environ)
        source_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [source_root, env.get("PYTHONPATH")])
        )
        command = [
            sys.executable, "-c",
            "from repro.cli import main; "
            "raise SystemExit(main(['serve', '--port', '0']))",
        ]
        servers = [
            subprocess.Popen(
                command, env=env, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            )
            for _ in range(6)
        ]
        try:
            for proc in servers:
                assert re.search(r":(\d+) ", proc.stdout.readline())
                proc.send_signal(signal.SIGTERM)
            for proc in servers:
                out, _ = proc.communicate(timeout=30)
                assert proc.returncode == 0, out
                assert "drained:" in out, out
        finally:
            for proc in servers:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()


class TestParseModel:
    def test_round_trips_the_wire_form(self):
        from repro.service import model_to_dict

        m = model(5, interval_rule="young", checkpoint_interval=1234.5)
        assert parse_model(model_to_dict(m)) == m

    def test_rejects_non_object(self):
        with pytest.raises(ConfigurationError):
            parse_model([1, 2, 3])
