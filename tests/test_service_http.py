"""Wire-level tests for the HTTP transport of ``repro-patrol serve``.

A real daemon on an ephemeral loopback port per test class, driven with
:mod:`http.client` — no test doubles between the bytes on the socket and the
assertions.  The invariants under test are the ISSUE's acceptance criteria:
streamed records byte-identical to CLI execution, coalescing observable over
the wire, and overload mapped to ``429`` + ``Retry-After``.
"""

import json
import socket
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.runner import Campaign, CampaignSpec, RunSpec
from repro.runner.campaign import _json_sanitize
from repro.scenarios import ScenarioSpec
from repro.service import ServiceScheduler
from repro.service.http import HttpTransport
from repro.sim import SimulationConfig
from repro.store import ResultStore


def tiny_run(seed=0, strategy="b-tctp"):
    return RunSpec(
        strategy=strategy,
        scenario=ScenarioSpec("uniform", {"num_targets": 5, "num_mules": 2}),
        sim=SimulationConfig(horizon=300.0, track_energy=False),
        seed=seed,
    )


def tiny_campaign():
    return CampaignSpec(base=tiny_run(), grid={"strategy": ["b-tctp", "chb"]},
                        replications=2)


def canonical(records):
    return [json.dumps(_json_sanitize(r), sort_keys=True) for r in records]


class _Daemon:
    """One background daemon plus an http.client helper bound to its port."""

    def __init__(self, transport):
        self.transport = transport

    def request(self, method, path, body=None, timeout=60):
        conn = HTTPConnection("127.0.0.1", self.transport.port, timeout=timeout)
        try:
            payload = None if body is None else json.dumps(body).encode()
            headers = {} if payload is None else {"Content-Type": "application/json"}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            return response.status, dict(response.getheaders()), raw
        finally:
            conn.close()

    def get_json(self, path):
        status, _headers, raw = self.request("GET", path)
        return status, json.loads(raw)

    def post_stream(self, path, spec):
        """POST a spec and parse the NDJSON stream into a list of events."""
        body = spec if isinstance(spec, dict) else json.loads(spec.to_json())
        status, headers, raw = self.request("POST", path, body=body)
        if status != 200:
            return status, headers, json.loads(raw)
        assert headers.get("Content-Type") == "application/x-ndjson"
        events = [json.loads(line) for line in raw.decode().splitlines()]
        return status, headers, events


@pytest.fixture
def daemon(tmp_path):
    scheduler = ServiceScheduler(store=ResultStore(tmp_path / "store"), workers=2)
    transport = HttpTransport(scheduler, port=0).start()
    yield _Daemon(transport)
    transport.stop()


@pytest.fixture
def storeless_daemon():
    scheduler = ServiceScheduler(store=False, workers=2)
    transport = HttpTransport(scheduler, port=0).start()
    yield _Daemon(transport)
    transport.stop()


class TestPlumbing:
    def test_healthz_version_stats(self, daemon):
        status, health = daemon.get_json("/healthz")
        assert (status, health["status"], health["accepting"]) == (200, "ok", True)

        import repro
        status, version = daemon.get_json("/version")
        assert (status, version) == (200, {"version": repro.__version__})

        status, stats = daemon.get_json("/stats")
        assert status == 200
        assert stats["version"] == repro.__version__
        assert stats["scheduler"]["requests"] == 0
        assert stats["store"]["entries"] == 0  # the shared store formatter

    def test_metrics_serves_prometheus_text(self, daemon):
        status, headers, raw = daemon.request("GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = raw.decode()
        assert "# TYPE repro_service_requests_total counter" in text
        assert "repro_store_entries" in text  # daemon fixture has a store
        # the scheduler gauges agree with the JSON /stats document
        _status, stats = daemon.get_json("/stats")
        assert f"repro_service_workers {stats['scheduler']['workers']}" in text

    def test_unknown_route_404_lists_routes(self, daemon):
        status, payload = daemon.get_json("/nope")
        assert status == 404
        assert "/healthz" in payload["error"]
        assert "/metrics" in payload["error"]

    def test_get_on_submit_routes_is_405(self, daemon):
        status, _headers, raw = daemon.request("GET", "/runs")
        assert status == 405
        assert "POST" in json.loads(raw)["error"]

    def test_invalid_json_body_is_400(self, daemon):
        status, _headers, raw = daemon.request("POST", "/runs", body=None)
        # empty body decodes to JSON null, not an object
        assert status == 400
        assert "JSON object" in json.loads(raw)["error"]

    def test_kind_route_mismatch_is_400(self, daemon):
        spec = json.loads(tiny_campaign().to_json())
        status, _headers, payload = daemon.post_stream("/runs", spec)
        assert status == 400
        assert "/campaigns" in payload["error"]

    def test_bad_spec_is_400_with_suggestion(self, daemon):
        status, _headers, payload = daemon.post_stream(
            "/runs", {"strategy": "b-tctpp"})
        assert status == 400
        assert "b-tctp" in payload["error"]


def raw_exchange(port, payload: bytes) -> bytes:
    """Send raw bytes, half-close, and read the reply until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestMalformedRequests:
    """Requests the parser cannot accept get a status, never an empty reply."""

    def _assert_status_then_healthy(self, daemon, payload, status):
        reply = raw_exchange(daemon.transport.port, payload)
        assert reply.startswith(f"HTTP/1.1 {status} ".encode()), reply[:80]
        assert "error" in json.loads(reply.split(b"\r\n\r\n", 1)[1])
        assert daemon.get_json("/healthz")[0] == 200

    def test_negative_content_length_is_400(self, daemon):
        self._assert_status_then_healthy(
            daemon,
            b"POST /runs HTTP/1.1\r\nHost: x\r\nContent-Length: -5\r\n\r\n",
            400,
        )

    def test_overlong_header_line_is_431(self, daemon):
        padding = b"X-Padding: " + b"a" * (70 * 1024) + b"\r\n"
        self._assert_status_then_healthy(
            daemon, b"GET /healthz HTTP/1.1\r\n" + padding + b"\r\n", 431)

    def test_overlong_request_line_is_414(self, daemon):
        target = b"/" + b"a" * (70 * 1024)
        self._assert_status_then_healthy(
            daemon, b"GET " + target + b" HTTP/1.1\r\n\r\n", 414)


class TestStreaming:
    def test_run_stream_and_lookup_lifecycle(self, daemon):
        spec = tiny_run()
        status, _headers, events = daemon.post_stream("/runs", spec)
        assert status == 200
        assert [e["event"] for e in events] == ["start", "cell", "done"]
        cell = events[1]
        assert cell["source"] == "executed"

        # the fingerprint the stream reports is immediately queryable
        status, found = daemon.get_json(f"/runs/{cell['fingerprint']}")
        assert status == 200
        assert found["status"] == "stored"
        assert found["record"] == cell["record"]

        status, missing = daemon.get_json("/runs/ffff")
        assert (status, missing["status"]) == (404, "unknown")

    def test_campaign_stream_byte_identical_to_cli_run(self, daemon):
        spec = tiny_campaign()
        status, _headers, events = daemon.post_stream("/campaigns", spec)
        assert status == 200
        served = [e["record"] for e in events if e["event"] == "cell"]
        direct = Campaign(spec).run(store=False).records
        assert canonical(served) == canonical(direct)
        assert events[-1] == {"event": "done", "total": 4, "executed": 4,
                              "store": 0, "coalesced": 0, "failed": 0}

    def test_repost_serves_everything_from_store(self, daemon):
        spec = tiny_campaign()
        _status, _headers, cold = daemon.post_stream("/campaigns", spec)
        _status, _headers, warm = daemon.post_stream("/campaigns", spec)
        assert warm[-1]["store"] == 4 and warm[-1]["executed"] == 0
        cold_records = [e["record"] for e in cold if e["event"] == "cell"]
        warm_records = [e["record"] for e in warm if e["event"] == "cell"]
        assert canonical(warm_records) == canonical(cold_records)


class TestBackpressureAndCoalescing:
    @pytest.fixture
    def slow_daemon(self):
        self.release = threading.Event()
        started = self.started = threading.Event()

        def slow_runner(spec, store=None):
            started.set()
            self.release.wait(timeout=60)
            return {"seed": spec.seed}, "executed"

        scheduler = ServiceScheduler(store=False, workers=1, queue_limit=1,
                                     retry_after=7.0, cell_runner=slow_runner)
        transport = HttpTransport(scheduler, port=0).start()
        yield _Daemon(transport)
        self.release.set()
        transport.stop()

    def test_overflow_is_429_with_retry_after(self, slow_daemon):
        filler = threading.Thread(
            target=slow_daemon.post_stream, args=("/runs", tiny_run(seed=0)))
        filler.start()
        try:
            assert self.started.wait(timeout=30)  # the queue is now full
            status, headers, payload = slow_daemon.post_stream(
                "/runs", tiny_run(seed=1))
            assert status == 429
            assert headers["Retry-After"] == "7"
            assert payload["retry_after"] == 7.0
        finally:
            self.release.set()
            filler.join(timeout=60)

    def test_concurrent_identical_posts_coalesce(self, slow_daemon):
        spec = tiny_run(seed=0)
        results = [None] * 3

        def post(slot):
            results[slot] = slow_daemon.post_stream("/runs", spec)

        threads = [threading.Thread(target=post, args=(slot,)) for slot in range(3)]
        for t in threads:
            t.start()
        try:
            assert self.started.wait(timeout=30)
            # all three requests admitted against a queue_limit of 1: two
            # coalesced onto the in-flight cell instead of consuming slots
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                status, stats = slow_daemon.get_json("/stats")
                if stats["scheduler"]["requests"] == 3:
                    break
                time.sleep(0.05)
            assert stats["scheduler"]["requests"] == 3
            assert stats["scheduler"]["executed"] == 1
            assert stats["scheduler"]["coalesced"] == 2
        finally:
            self.release.set()
        for t in threads:
            t.join(timeout=60)
        streams = [r[2] for r in results]
        for events in streams:
            assert [e["event"] for e in events] == ["start", "cell", "done"]
            assert events[1]["record"] == {"seed": 0}

    def test_draining_daemon_reports_503(self, storeless_daemon):
        storeless_daemon.transport.scheduler.shutdown(wait=True)
        status, health = storeless_daemon.get_json("/healthz")
        assert (status, health["status"]) == (503, "draining")
        status, _headers, payload = storeless_daemon.post_stream(
            "/runs", tiny_run())
        assert status == 503
        assert "not accepting" in payload["error"]


class TestStorelessStats:
    def test_stats_store_is_null_without_a_store(self, storeless_daemon):
        status, stats = storeless_daemon.get_json("/stats")
        assert status == 200
        assert stats["store"] is None
