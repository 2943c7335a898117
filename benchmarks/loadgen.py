#!/usr/bin/env python
"""Multi-process saturation load generator for the service front end.

The event-loop front end exists to hold thousands of concurrent
connections; proving that needs a client that can *open* thousands of
concurrent connections, which a thread-per-request driver cannot.  This
tool is the mirror image of :mod:`repro.service.eventloop` on the client
side: each generator process runs one ``selectors`` loop managing
hundreds of non-blocking keep-alive sockets, every socket repeatedly
POSTing ``/simulate`` and timing the full request/response round trip.

Two regimes mirror the service benchmark:

* ``"cached"`` — every request carries the same circuit, so after one
  warm-up the server answers from the LRU result cache; latency is pure
  front-end overhead.
* ``"uncached"`` — each request varies the seed, so every one crosses
  the worker pool and runs on the first free shard, on a fresh package.

Results aggregate across processes into p50/p95/p99 latency and
requests/second (:class:`LoadResult`).  :func:`run_load` drives an
already-running server; as a script the tool boots a loopback server
with 2 worker shards, runs the cached then the uncached regime and
writes both results to ``benchmarks/results/service_loadgen.json``::

    PYTHONPATH=src python benchmarks/loadgen.py \\
        --connections 1000 --duration 10 --processes 4

The exit status is non-zero if any transport error occurred or a regime
completed no request, so CI fails when the front end drops connections
under load.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import multiprocessing
import os
import selectors
import socket
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.abspath(os.path.join(BENCH_DIR, os.pardir, "src"))
if SRC_DIR not in sys.path:
    sys.path.insert(0, SRC_DIR)

from repro.qc import library  # noqa: E402
from repro.service import DDToolServer, ServiceConfig  # noqa: E402

MODES = ("cached", "uncached")
SERVER_WORKERS = 2
RESULTS_DIR = Path(BENCH_DIR) / "results"

_RECV_SIZE = 65536
_MAX_HEAD = 65536


# ----------------------------------------------------------------------
# client-side HTTP response parsing
# ----------------------------------------------------------------------
class _ResponseReader:
    """Incremental parser for a stream of Content-Length framed responses.

    ``/simulate`` is not a streaming endpoint, so every response the
    server sends carries ``Content-Length``; chunked bodies are rejected
    rather than implemented.
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


def _simulate_request(qasm: str, seed: int) -> bytes:
    body = json.dumps({"qasm": qasm, "shots": 16, "seed": seed}).encode()
    return (
        f"POST /simulate HTTP/1.1\r\n"
        f"Host: loadgen\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"\r\n"
    ).encode("latin-1") + body


def _client_process(
    address: Tuple[str, int],
    connections: int,
    duration: float,
    qasm: str,
    seed_base: Optional[int],
    out_queue,
) -> None:
    """One generator process: a selectors loop over ``connections`` sockets.

    With a ``seed_base`` every request carries the next seed after it, a
    globally unique integer (the uncached regime); without one every
    request is byte-identical (the cached regime).
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
    cached_request = _simulate_request(qasm, 1)

    def begin_request(client: _Client) -> None:
        nonlocal first_send, seed_counter
        if seed_counter is None:
            client.out = cached_request
        else:
            seed_counter += 1
            client.out = _simulate_request(qasm, seed_counter)
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
        data = asdict(self)
        data["statuses"] = dict(sorted(self.statuses.items()))
        return data


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
) -> LoadResult:
    """Drive ``connections`` concurrent keep-alive clients for ``duration``.

    The connection count is split across ``processes`` generator
    processes (each its own event loop), so the GIL of a single client
    process never becomes the bottleneck being measured.  Every request
    simulates the 3-qubit QFT: ``mode="cached"`` repeats one request
    verbatim, ``"uncached"`` gives each request its own seed.
    """
    if mode not in MODES:
        raise ValueError(f"unknown load mode {mode!r}")
    qasm = library.qft(3).to_qasm()

    processes = max(1, min(processes, connections))
    per_process = [connections // processes] * processes
    for index in range(connections % processes):
        per_process[index] += 1

    context = multiprocessing.get_context()
    out_queue = context.Queue()
    workers = []
    for index, count in enumerate(per_process):
        seed_base = (index + 1) * 10_000_000 if mode == "uncached" else None
        worker = context.Process(
            target=_client_process,
            args=((host, port), count, duration, qasm, seed_base, out_queue),
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
# command line: self-hosted cached + uncached run
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Self-hosted saturation run of the service front end."
    )
    parser.add_argument("--connections", type=int, default=200,
                        help="concurrent keep-alive connections (default 200)")
    parser.add_argument("--duration", type=float, default=10.0,
                        help="seconds per regime (default 10)")
    parser.add_argument("--processes", type=int, default=2,
                        help="generator processes (default 2)")
    parser.add_argument("--uncached-connections", type=int, default=None,
                        help="override connection count for the uncached "
                             "regime (defaults to --connections)")
    parser.add_argument("--output-dir", type=Path, default=RESULTS_DIR)
    args = parser.parse_args(argv)

    config = ServiceConfig(port=0, workers=SERVER_WORKERS, cache_capacity=4096)
    results = []
    with DDToolServer(config) as server:
        host, port = server.address
        print(f"serving on {server.url} ({SERVER_WORKERS} worker shards)",
              file=sys.stderr)
        for mode in MODES:
            connections = args.connections
            if mode == "uncached" and args.uncached_connections is not None:
                connections = args.uncached_connections
            print(f"[{mode}] {connections} connections for "
                  f"{args.duration:.0f}s ...", file=sys.stderr)
            result = run_load(
                host, port,
                connections=connections,
                duration=args.duration,
                processes=args.processes,
                mode=mode,
            )
            results.append(result)
            print(f"[{mode}] {result.requests} requests, "
                  f"{result.rps:.1f} req/s, p50={result.p50_ms:.2f}ms "
                  f"p99={result.p99_ms:.2f}ms, errors={result.errors}")

    args.output_dir.mkdir(parents=True, exist_ok=True)
    json_path = args.output_dir / "service_loadgen.json"
    payload = {result.mode: result.as_dict() for result in results}
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {json_path}", file=sys.stderr)

    total_errors = sum(result.errors for result in results)
    if total_errors:
        print(f"FAIL: {total_errors} transport errors", file=sys.stderr)
        return 1
    if any(result.requests == 0 for result in results):
        print("FAIL: a regime completed zero requests", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
