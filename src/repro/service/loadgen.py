"""Multi-process saturation load generator for the service front end.

The event-loop front end exists to hold thousands of concurrent
connections; proving that needs a client that can *open* thousands of
concurrent connections, which a thread-per-request driver cannot.  This
module is the mirror image of :mod:`repro.service.eventloop` on the
client side: each generator process runs one ``selectors`` loop managing
hundreds of non-blocking keep-alive sockets, every socket repeatedly
POSTing ``/simulate`` and timing the full request/response round trip.

Two regimes mirror the service benchmark:

* ``"cached"`` — every request carries the same circuit, so after one
  warm-up the server answers from the LRU result cache; latency is pure
  front-end overhead.
* ``"uncached"`` — each request varies the seed, so every one crosses
  the worker pool and runs on the first free shard, on a fresh package.

Results aggregate across processes into p50/p95/p99 latency and
requests/second, publish into a :class:`~repro.obs.metrics.MetricsRegistry`
(histogram + counters, rendered by :func:`repro.obs.export.run_report`)
and serialize in the campaign artifact format
(``qdd-campaign-artifact-v1``) so regression gating can join load runs
against stored baselines like any other campaign.

Entry points: :func:`run_load` (drive an already-running server) and the
``scripts/service_loadgen.py`` CLI (self-hosts a server, writes
``benchmarks/results/service_loadgen.{json,txt}``).
"""

from __future__ import annotations

import errno
import json
import math
import multiprocessing
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "LoadResult",
    "load_artifact",
    "publish_metrics",
    "run_load",
]

ARTIFACT_FORMAT = "qdd-campaign-artifact-v1"

_RECV_SIZE = 65536
_MAX_HEAD = 65536


# ----------------------------------------------------------------------
# client-side HTTP response parsing
# ----------------------------------------------------------------------
class _ResponseReader:
    """Incremental parser for a stream of Content-Length framed responses.

    The generator only talks to non-streaming endpoints, so every
    response the server sends carries ``Content-Length``; chunked bodies
    are rejected rather than implemented.
    """

    __slots__ = ("buffer",)

    def __init__(self) -> None:
        self.buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self.buffer.extend(data)

    def next_response(self) -> Optional[Tuple[int, bool]]:
        """Pop one complete response: ``(status, keep_alive)`` or None."""
        end = self.buffer.find(b"\r\n\r\n")
        if end < 0:
            if len(self.buffer) > _MAX_HEAD:
                raise ValueError("response head exceeds 64 KiB")
            return None
        head = bytes(self.buffer[:end]).decode("latin-1")
        lines = head.split("\r\n")
        status = int(lines[0].split(None, 2)[1])
        length = 0
        keep_alive = True
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            value = value.strip()
            if name == "content-length":
                length = int(value)
            elif name == "connection" and value.lower() == "close":
                keep_alive = False
            elif name == "transfer-encoding":
                raise ValueError("unexpected chunked response")
        total = end + 4 + length
        if len(self.buffer) < total:
            return None
        del self.buffer[:total]
        return status, keep_alive


# ----------------------------------------------------------------------
# per-connection client state machine
# ----------------------------------------------------------------------
_CONNECTING = 0
_SENDING = 1
_READING = 2


class _Client:
    """One keep-alive connection cycling request → response → request."""

    __slots__ = (
        "sock", "state", "out", "reader", "started", "requests",
        "reconnects",
    )

    def __init__(self) -> None:
        self.sock: Optional[socket.socket] = None
        self.state = _CONNECTING
        self.out = b""
        self.reader = _ResponseReader()
        self.started = 0.0
        self.requests = 0
        self.reconnects = 0

    def open(self, address: Tuple[str, int], sel: selectors.BaseSelector) -> None:
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setblocking(False)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        result = self.sock.connect_ex(address)
        if result not in (0, errno.EINPROGRESS, errno.EWOULDBLOCK):
            raise OSError(result, "connect failed")
        self.state = _CONNECTING
        self.reader = _ResponseReader()
        sel.register(self.sock, selectors.EVENT_WRITE, self)

    def close(self, sel: selectors.BaseSelector) -> None:
        if self.sock is None:
            return
        try:
            sel.unregister(self.sock)
        except (KeyError, ValueError):
            pass
        try:
            self.sock.close()
        finally:
            self.sock = None


def _request_bytes(path: str, body: bytes) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: loadgen\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"\r\n"
    ).encode("latin-1") + body


def _client_process(
    address: Tuple[str, int],
    connections: int,
    duration: float,
    path: str,
    body_template: str,
    seed_base: int,
    out_queue,
) -> None:
    """One generator process: a selectors loop over ``connections`` sockets.

    ``body_template`` may contain ``{seed}``, replaced per request with a
    globally unique integer (the uncached regime); without the marker
    every request is byte-identical (the cached regime).
    """
    sel = selectors.DefaultSelector()
    clients = [_Client() for _ in range(connections)]
    latencies: List[float] = []
    statuses: Dict[int, int] = {}
    errors = 0
    # Send/response window on the shared monotonic clock: rps divides by
    # it, so process spawn and queue join stay out of the rate.
    first_send: Optional[float] = None
    last_response: Optional[float] = None
    seed_counter = seed_base
    vary = "{seed}" in body_template

    def next_body(client: _Client) -> bytes:
        nonlocal seed_counter
        if vary:
            seed_counter += 1
            return body_template.replace("{seed}", str(seed_counter)).encode()
        return body_template.encode()

    def begin_request(client: _Client) -> None:
        nonlocal first_send
        client.out = _request_bytes(path, next_body(client))
        client.started = time.perf_counter()
        if first_send is None:
            first_send = client.started
        client.state = _SENDING
        sel.modify(client.sock, selectors.EVENT_WRITE, client)

    def recycle(client: _Client) -> None:
        """Tear the connection down and dial again (post-error or close)."""
        nonlocal errors
        client.close(sel)
        client.reconnects += 1
        try:
            client.open(address, sel)
        except OSError:
            errors += 1

    deadline = time.monotonic() + duration
    for client in clients:
        try:
            client.open(address, sel)
        except OSError:
            errors += 1

    while time.monotonic() < deadline:
        events = sel.select(timeout=min(0.25, max(0.001, deadline - time.monotonic())))
        now_past = time.monotonic() >= deadline
        for key, mask in events:
            client: _Client = key.data
            if client.sock is None:
                continue
            try:
                if client.state == _CONNECTING and mask & selectors.EVENT_WRITE:
                    error = client.sock.getsockopt(
                        socket.SOL_SOCKET, socket.SO_ERROR
                    )
                    if error:
                        errors += 1
                        recycle(client)
                        continue
                    begin_request(client)
                    continue
                if client.state == _SENDING and mask & selectors.EVENT_WRITE:
                    sent = client.sock.send(client.out)
                    client.out = client.out[sent:]
                    if not client.out:
                        client.state = _READING
                        sel.modify(client.sock, selectors.EVENT_READ, client)
                    continue
                if client.state == _READING and mask & selectors.EVENT_READ:
                    data = client.sock.recv(_RECV_SIZE)
                    if not data:
                        errors += 1
                        recycle(client)
                        continue
                    client.reader.feed(data)
                    popped = client.reader.next_response()
                    if popped is None:
                        continue
                    status, keep_alive = popped
                    last_response = time.perf_counter()
                    latencies.append(last_response - client.started)
                    statuses[status] = statuses.get(status, 0) + 1
                    client.requests += 1
                    if now_past:
                        client.close(sel)
                    elif keep_alive:
                        begin_request(client)
                    else:
                        recycle(client)
            except (BlockingIOError, InterruptedError):
                continue
            except (OSError, ValueError):
                errors += 1
                recycle(client)

    for client in clients:
        client.close(sel)
    sel.close()
    out_queue.put({
        "latencies": latencies,
        "statuses": statuses,
        "errors": errors,
        "reconnects": sum(c.reconnects for c in clients),
        "first_send": first_send,
        "last_response": last_response,
    })


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
@dataclass
class LoadResult:
    """Aggregated outcome of one load-generation run."""

    mode: str
    connections: int
    processes: int
    duration_s: float
    requests: int = 0
    errors: int = 0
    reconnects: int = 0
    rps: float = 0.0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    mean_ms: float = 0.0
    max_ms: float = 0.0
    statuses: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "connections": self.connections,
            "processes": self.processes,
            "duration_s": self.duration_s,
            "requests": self.requests,
            "errors": self.errors,
            "reconnects": self.reconnects,
            "rps": self.rps,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "mean_ms": self.mean_ms,
            "max_ms": self.max_ms,
            "statuses": dict(sorted(self.statuses.items())),
        }


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` of
    the samples at or below it."""
    if not sorted_values:
        return 0.0
    count = len(sorted_values)
    # The epsilon keeps float noise (0.07 * 100 = 7.000000000000001) from
    # bumping an exact rank up by one.
    rank = math.ceil(q * count - 1e-9)
    return sorted_values[min(count, max(1, rank)) - 1]


def _aggregate(
    chunks: Sequence[Dict[str, object]],
    mode: str,
    connections: int,
    processes: int,
    duration: float,
) -> LoadResult:
    """Merge per-process chunks; rps divides by the earliest first send to
    the latest last response across all processes."""
    latencies: List[float] = []
    statuses: Dict[str, int] = {}
    errors = reconnects = 0
    firsts: List[float] = []
    lasts: List[float] = []
    for chunk in chunks:
        latencies.extend(chunk["latencies"])
        errors += chunk["errors"]
        reconnects += chunk["reconnects"]
        for status, count in chunk["statuses"].items():
            key = str(status)
            statuses[key] = statuses.get(key, 0) + count
        if chunk["first_send"] is not None:
            firsts.append(chunk["first_send"])
        if chunk["last_response"] is not None:
            lasts.append(chunk["last_response"])
    latencies.sort()
    total = len(latencies)
    window = max(lasts) - min(firsts) if firsts and lasts else 0.0
    return LoadResult(
        mode=mode,
        connections=connections,
        processes=processes,
        duration_s=duration,
        requests=total,
        errors=errors,
        reconnects=reconnects,
        rps=total / window if window > 0 else 0.0,
        p50_ms=1e3 * _percentile(latencies, 0.50),
        p95_ms=1e3 * _percentile(latencies, 0.95),
        p99_ms=1e3 * _percentile(latencies, 0.99),
        mean_ms=1e3 * (sum(latencies) / total) if total else 0.0,
        max_ms=1e3 * latencies[-1] if latencies else 0.0,
        statuses=statuses,
    )


def run_load(
    host: str,
    port: int,
    connections: int = 100,
    duration: float = 5.0,
    processes: int = 2,
    mode: str = "cached",
    path: str = "/simulate",
    body_template: Optional[str] = None,
) -> LoadResult:
    """Drive ``connections`` concurrent keep-alive clients for ``duration``.

    The connection count is split across ``processes`` generator
    processes (each its own event loop), so the GIL of a single client
    process never becomes the bottleneck being measured.  ``mode`` picks
    the default payload: ``"cached"`` repeats one circuit verbatim,
    ``"uncached"`` varies the seed per request via a ``{seed}`` marker.
    An explicit ``body_template`` overrides both.
    """
    if mode not in ("cached", "uncached"):
        raise ValueError(f"unknown load mode {mode!r}")
    if body_template is None:
        from repro.qc import library

        qasm = library.qft(3).to_qasm()
        if mode == "cached":
            body_template = json.dumps({"qasm": qasm, "shots": 16, "seed": 1})
        else:
            payload = json.dumps(
                {"qasm": qasm, "shots": 16, "seed": "@SEED@"}
            )
            body_template = payload.replace('"@SEED@"', "{seed}")

    processes = max(1, min(processes, connections))
    per_process = [connections // processes] * processes
    for index in range(connections % processes):
        per_process[index] += 1

    context = multiprocessing.get_context()
    out_queue = context.Queue()
    workers = []
    for index, count in enumerate(per_process):
        worker = context.Process(
            target=_client_process,
            args=(
                (host, port), count, duration, path, body_template,
                (index + 1) * 10_000_000, out_queue,
            ),
            daemon=True,
        )
        workers.append(worker)

    for worker in workers:
        worker.start()
    chunks = []
    for _ in workers:
        chunks.append(out_queue.get(timeout=duration + 60.0))
    for worker in workers:
        worker.join(timeout=30.0)
    return _aggregate(chunks, mode, connections, processes, duration)


# ----------------------------------------------------------------------
# publication: obs metrics + campaign artifact
# ----------------------------------------------------------------------
def publish_metrics(result: LoadResult, registry) -> None:
    """Record a result into a :class:`~repro.obs.metrics.MetricsRegistry`."""
    labels = {"mode": result.mode}
    histogram = registry.histogram("loadgen_request_seconds", labels=labels)
    # Re-observing every sample would be O(requests); feed the quantiles
    # that survive aggregation instead so the report shows the shape.
    for value_ms in (result.p50_ms, result.p95_ms, result.p99_ms):
        histogram.observe(value_ms / 1e3)
    registry.counter("loadgen_requests_total", labels=labels).inc(result.requests)
    registry.counter("loadgen_errors_total", labels=labels).inc(result.errors)
    registry.gauge("loadgen_rps", labels=labels).set(result.rps)
    registry.gauge("loadgen_connections", labels=labels).set(result.connections)


def load_artifact(
    results: Sequence[LoadResult],
    campaign: str = "service-loadgen",
) -> Dict[str, object]:
    """Serialize results in the campaign artifact format.

    One cell per (mode, connection-count) coordinate, so
    :mod:`repro.campaign.gating` can join a load run against a stored
    baseline exactly like a simulation campaign.
    """
    cells: Dict[str, Dict[str, object]] = {}
    statuses: Dict[str, int] = {}
    wall_total = 0.0
    for result in results:
        ok = result.errors == 0 and result.requests > 0
        status = "ok" if ok else "failed"
        statuses[status] = statuses.get(status, 0) + 1
        wall_total += result.duration_s
        cell_id = f"loadgen/{result.mode}/c{result.connections}"
        cells[cell_id] = {
            "status": status,
            "metrics": {
                "rps": result.rps,
                "p50_ms": result.p50_ms,
                "p95_ms": result.p95_ms,
                "p99_ms": result.p99_ms,
                "mean_ms": result.mean_ms,
                "max_ms": result.max_ms,
                "requests": result.requests,
                "errors": result.errors,
                "reconnects": result.reconnects,
            },
            "timing": {"wall_seconds": result.duration_s},
            "counts": None,
            "error": None if ok else (
                f"{result.errors} transport errors over "
                f"{result.requests} requests"
            ),
            "coordinates": {
                "family": "service-loadgen",
                "label": result.mode,
                "size": result.connections,
                "package": "service",
                "seed": 0,
                "rep": 0,
                "mode": result.mode,
            },
        }
    return {
        "format": ARTIFACT_FORMAT,
        "campaign": campaign,
        "description": "service front-end saturation run",
        "spec_digest": None,
        "spec": None,
        "cells": {cell_id: cells[cell_id] for cell_id in sorted(cells)},
        "series": [],
        "summary": {
            "cells_total": len(cells),
            "statuses": dict(sorted(statuses.items())),
            "ok": statuses.get("ok", 0),
            "wall_seconds_total": wall_total,
        },
    }
