"""The service-mixed workload: a serve daemon and two closed-loop HTTP clients.

The daemon (``perfbench.daemon``) runs in its own process with a fresh
store.  This process is the load generator: two client threads each send
their next request as soon as the previous one has been read to the end.
Requests come from :func:`perfbench.workloads.service_requests`.  The
window can be paused between requests (for a set-up probe); pauses move the
deadline and are left out of the timed seconds.

Every response is checked as it arrives: a non-200 status, an ``error``
event or a ``done`` event with failures counts as a failed request; a repeat
must be served from the store with the records of the original; a lookup
must return the stored record.  After the timed window, a seeded sample of
the streamed cells is executed in this process with ``execute_many`` and
must match byte for byte, and the daemon must not have executed more cells
than there were distinct fresh fingerprints.
"""

from __future__ import annotations

import json
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection
from pathlib import Path

from perfbench import workloads

HOST = "127.0.0.1"
IDENTITY_SAMPLE = 16
STARTUP_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


def _get(port: int, path: str) -> "tuple[int, bytes]":
    conn = HTTPConnection(HOST, port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


class Daemon:
    """One daemon process: started, polled until healthy, warmed up, stopped."""

    def __init__(self, python_env: dict, work: Path, *, trace: bool = False,
                 span_log: "Path | None" = None) -> None:
        self.port = _free_port()
        self.store = work / f"store-{self.port}"
        self.result = work / f"daemon-{self.port}.json"
        command = [sys.executable, "-m", "perfbench.daemon", "--port", str(self.port),
                   "--store", str(self.store), "--result", str(self.result)]
        if trace:
            command.append("--trace")
        if span_log is not None:
            command += ["--span-log", str(span_log)]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(command, env=python_env)
        try:
            self.warm_fingerprints = self._wait_ready()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.setup_s = time.perf_counter() - self.started

    def _wait_ready(self) -> "list[str]":
        deadline = self.started + STARTUP_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited during start-up with code {self.proc.returncode}")
            try:
                status, _body = _get(self.port, "/healthz")
                if status == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon did not become healthy in time")
            time.sleep(0.01)
        # Warm-up: one cell through the whole request path.
        spec = workloads.warmup_op()[0]
        result = _stream(self.port, "/campaigns", spec)
        if result["error"]:
            raise RuntimeError(f"daemon warm-up failed: {result['error']}")
        return [cell["fingerprint"] for cell in result["cells"]]

    def stats(self) -> dict:
        status, body = _get(self.port, "/stats")
        if status != 200:
            raise RuntimeError(f"GET /stats answered {status}")
        return json.loads(body)

    def stop(self) -> dict:
        """SIGINT (the daemon drains and exits), then its result file."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if not self.result.exists():
            raise RuntimeError(f"daemon exited with code {self.proc.returncode} and no result")
        return json.loads(self.result.read_text())


def _stream(port: int, path: str, spec: dict) -> dict:
    """POST ``spec`` and read the NDJSON stream to its end, timing it."""
    body = json.dumps(spec).encode()
    conn = HTTPConnection(HOST, port, timeout=REQUEST_TIMEOUT_S)
    sent = time.perf_counter()
    first = None
    cells: list = []
    error = None
    try:
        conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        if response.status != 200:
            error = f"{path} answered {response.status}: {response.read()[:200]!r}"
        else:
            while True:
                line = response.readline()
                if not line:
                    break
                event = json.loads(line)
                if event["event"] == "cell":
                    if first is None:
                        first = time.perf_counter()
                    cells.append(event)
                elif event["event"] == "error":
                    error = event["message"]
                elif event["event"] == "done" and event["failed"]:
                    error = f"{event['failed']} cell(s) failed"
    finally:
        conn.close()
    end = time.perf_counter()
    return {"sent": sent, "end": end, "first": first if first is not None else end,
            "cells": cells, "error": error}


class _Client:
    """One closed-loop client with its own request stream and history."""

    def __init__(self, run: "ServiceRun", index: int) -> None:
        self.run = run
        self.index = index
        self.requests = workloads.service_requests(run.seed, index)
        self.history: dict[int, tuple] = {}  # request index -> (spec, cells)
        self.samples: list[tuple] = []       # (sent, first, end, cells)
        self.failures: list[str] = []
        self.fresh: list[tuple] = []         # (spec, cell event) of executed cells

    def one(self, number: int, request: dict) -> None:
        kind = request["kind"]
        port = self.run.port
        if kind == "lookup":
            spec, cells = self.history[request["ref"]]
            expected = cells[0]
            sent = time.perf_counter()
            status, body = _get(port, f"/runs/{expected['fingerprint']}")
            end = time.perf_counter()
            if status != 200:
                self.failures.append(f"lookup answered {status}")
            elif _canonical(json.loads(body)["record"]) != _canonical(expected["record"]):
                self.failures.append("lookup record differs from the streamed record")
            self.samples.append((sent, end, end, 1))
            return
        spec = self.history[request["ref"]][0] if kind == "repeat" else request["spec"]
        path = "/runs" if spec["kind"] == "run" else "/campaigns"
        result = _stream(port, path, spec)
        self.samples.append((result["sent"], result["first"], result["end"], len(result["cells"])))
        if result["error"]:
            self.failures.append(result["error"])
            return
        cells = result["cells"]
        if kind == "repeat":
            original = self.history[request["ref"]][1]
            if any(cell["source"] != "store" for cell in cells):
                self.failures.append("repeat was not served from the store")
            elif [_canonical(c["record"]) for c in cells] != [_canonical(c["record"]) for c in original]:
                self.failures.append("repeat records differ from the original stream")
            return
        self.run.note_fresh(cell["fingerprint"] for cell in cells)
        self.history[number] = (spec, cells)
        self.fresh.extend((spec, cell) for cell in cells)

    def loop(self) -> None:
        barrier = self.run.barrier
        for number, request in enumerate(self.requests):
            if time.perf_counter() >= self.run.deadline:
                break
            if request["kind"] == "coalesce":
                try:
                    barrier.wait(timeout=REQUEST_TIMEOUT_S)
                except threading.BrokenBarrierError:
                    if time.perf_counter() < self.run.deadline:
                        self.failures.append("coalescing barrier broke before the deadline")
                    break
            self.run.enter()
            try:
                self.one(number, request)
            except (OSError, ValueError, KeyError) as exc:
                self.failures.append(f"{request['kind']}: {type(exc).__name__}: {exc}")
            finally:
                self.run.leave()
        barrier.abort()  # release a partner waiting at a coalescing step


class ServiceRun:
    """The timed window: clients against one daemon until the deadline."""

    def __init__(self, port: int, seed: int, seconds: float) -> None:
        self.port = port
        self.seed = seed
        self.seconds = seconds
        self.barrier = threading.Barrier(workloads.SERVICE_CLIENTS)
        self._lock = threading.Lock()
        self.fresh_fingerprints: set[str] = set()
        self.clients = [_Client(self, i) for i in range(workloads.SERVICE_CLIENTS)]
        self.deadline = 0.0
        self.paused_s = 0.0
        self._gate = threading.Condition()
        self._paused = False
        self._in_flight = 0

    def note_fresh(self, fingerprints) -> None:
        with self._lock:
            self.fresh_fingerprints.update(fingerprints)

    def enter(self) -> None:
        """Called by a client before a request: waits out a pause."""
        with self._gate:
            while self._paused:
                self._gate.wait()
            self._in_flight += 1

    def leave(self) -> None:
        with self._gate:
            self._in_flight -= 1
            self._gate.notify_all()

    def _pause(self, action) -> None:
        """Run ``action()`` with no request in flight; the deadline moves by the pause."""
        t0 = time.perf_counter()
        with self._gate:
            self._paused = True
            while self._in_flight:
                self._gate.wait()
        try:
            action()
        finally:
            with self._gate:
                paused = time.perf_counter() - t0
                self.paused_s += paused
                self.deadline += paused
                self._paused = False
                self._gate.notify_all()

    def run(self, pauses: int = 0, on_pause=None) -> "tuple[float, float]":
        """Run the clients to the deadline, calling ``on_pause()`` ``pauses`` times
        at even points of the window, each with the clients held between requests."""
        start = time.perf_counter()
        self.deadline = start + self.seconds
        threads = [threading.Thread(target=c.loop, name=f"client-{c.index}") for c in self.clients]
        for thread in threads:
            thread.start()
        try:
            for k in range(pauses):
                time.sleep(max(0.0, start + self.paused_s
                               + self.seconds * (k + 1) / (pauses + 1) - time.perf_counter()))
                self._pause(on_pause)
        finally:
            with self._gate:  # never leave the clients held
                self._paused = False
                self._gate.notify_all()
        for thread in threads:
            thread.join(timeout=self.seconds + 2 * REQUEST_TIMEOUT_S)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not finish")
        return start, time.perf_counter()

    @property
    def samples(self) -> list:
        return [s for c in self.clients for s in c.samples]

    @property
    def failures(self) -> list:
        return [f for c in self.clients for f in c.failures]


def identity_failures(run: ServiceRun, sample: int = IDENTITY_SAMPLE) -> "tuple[int, list[str]]":
    """Re-execute a seeded sample of streamed cells in-process; compare bytes."""
    from repro.runner import Campaign, execute_many
    from repro.runner.campaign import _json_sanitize
    from repro.runner.spec import spec_from_dict

    # Coalesced specs reach both clients; keep each cell once, in a fixed order.
    unique = {(json.dumps(spec, sort_keys=True), cell["index"]): cell
              for c in run.clients for spec, cell in c.fresh}
    fresh = sorted(unique.items(), key=lambda item: item[0])
    chosen = random.Random(run.seed).sample(fresh, min(sample, len(fresh)))
    problems = []
    for (spec_text, index), cell in chosen:
        spec = spec_from_dict(json.loads(spec_text))
        record = execute_many([Campaign(spec).cells()[index]])[0]
        if _canonical(_json_sanitize(record)) != _canonical(cell["record"]):
            problems.append(f"cell {cell['fingerprint'][:12]} differs from execute_many")
    return len(chosen), problems
