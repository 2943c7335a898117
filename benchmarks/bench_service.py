"""Throughput/latency benchmark of the service's ``/simulate`` endpoint.

For 1, 4 and 8 worker processes a loopback server is driven by 8
concurrent clients in two regimes:

* **uncached** — every request carries a distinct circuit, so each one
  pays the full pipeline (parse → worker-pool simulation);
* **cached** — all requests are identical, so after the first response
  everything is served straight from the LRU result cache.

Reported per configuration: requests/second and p50/p99 latency.  The
cached regime should be far faster and essentially independent of the
worker count — that is the point of keying the cache on the canonical
circuit digest.  Results land in ``benchmarks/results/service.json``.

``test_eventloop_saturation`` holds 1000 concurrent keep-alive
connections open against the reactor with the multi-process load
generator (``benchmarks/loadgen.py``) — the regime where a thread per
connection falls over — and writes its p50/p95/p99 and rps to
``benchmarks/results/service_saturation_load.json``.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from http.client import HTTPConnection
from time import perf_counter

import pytest

from repro.qc import library
from repro.service import DDToolServer, ServiceConfig
from loadgen import _percentile, run_load

CLIENTS = 8
UNCACHED_PER_CLIENT = 6
CACHED_PER_CLIENT = 25
WORKER_COUNTS = (1, 4, 8)

_fresh_circuit_ids = itertools.count()


def _fresh_qasm() -> str:
    """A circuit no previous request has sent (defeats the result cache)."""
    seed = next(_fresh_circuit_ids)
    return library.random_circuit(3, 12, seed=seed).to_qasm()


def _drive(server, payloads) -> list:
    host, port = server.address
    connection = HTTPConnection(host, port, timeout=60)
    latencies = []
    for payload in payloads:
        body = json.dumps(payload).encode()
        start = perf_counter()
        connection.request("POST", "/simulate", body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        data = response.read()
        latencies.append(perf_counter() - start)
        assert response.status == 200, data
    connection.close()
    return latencies


def _measure(server, payload_lists) -> dict:
    all_latencies: list = []
    collected = [None] * len(payload_lists)

    def worker(index):
        collected[index] = _drive(server, payload_lists[index])

    threads = [
        threading.Thread(target=worker, args=(i,))
        for i in range(len(payload_lists))
    ]
    start = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = perf_counter() - start
    for chunk in collected:
        all_latencies.extend(chunk)
    all_latencies.sort()
    total = len(all_latencies)
    return {
        "requests": total,
        "rps": total / wall if wall else 0.0,
        "p50_ms": 1e3 * _percentile(all_latencies, 0.50),
        "p99_ms": 1e3 * _percentile(all_latencies, 0.99),
    }


def test_service_throughput(report):
    rows = ["workers  regime    requests     req/s   p50[ms]   p99[ms]"]
    results = {}
    for workers in WORKER_COUNTS:
        config = ServiceConfig(port=0, workers=workers, cache_capacity=1024)
        with DDToolServer(config) as server:
            uncached_payloads = [
                [{"qasm": _fresh_qasm(), "shots": 16, "seed": 1}
                 for _ in range(UNCACHED_PER_CLIENT)]
                for _ in range(CLIENTS)
            ]
            uncached = _measure(server, uncached_payloads)

            shared = {"qasm": library.qft(3).to_qasm(), "shots": 16, "seed": 1}
            _drive(server, [shared])  # warm the cache once
            cached_payloads = [
                [dict(shared) for _ in range(CACHED_PER_CLIENT)]
                for _ in range(CLIENTS)
            ]
            cached = _measure(server, cached_payloads)

        results[workers] = {"uncached": uncached, "cached": cached}
        for regime, stats in (("uncached", uncached), ("cached", cached)):
            rows.append(
                f"{workers:7d}  {regime:8s}  {stats['requests']:8d}  "
                f"{stats['rps']:8.1f}  {stats['p50_ms']:8.2f}  "
                f"{stats['p99_ms']:8.2f}"
            )

        # The cache must dominate recomputation at every worker count.
        assert cached["rps"] > uncached["rps"]
        assert cached["p50_ms"] < uncached["p50_ms"]

    rows.append("---")
    rows.append(json.dumps(results, indent=2, sort_keys=True))
    report("service", rows)


# ----------------------------------------------------------------------
# streaming overhead: uncached rps with 0 vs 8 metric-stream subscribers
# ----------------------------------------------------------------------
STREAM_SUBSCRIBERS = 8
STREAM_OVERHEAD_BUDGET = 0.10  # open SSE streams may cost < 10% rps


def _attach_metric_streams(server, count, stop):
    """Open ``count`` /stream/metrics subscribers, each drained by a thread."""
    connections, threads = [], []
    host, port = server.address
    for _ in range(count):
        connection = HTTPConnection(host, port, timeout=60)
        connection.request("GET", "/stream/metrics")
        response = connection.getresponse()
        assert response.status == 200, response.read()
        connections.append(connection)

        def drain(resp=response):
            try:
                while not stop.is_set():
                    if not resp.readline():
                        return
            except OSError:
                return

        thread = threading.Thread(target=drain)
        thread.start()
        threads.append(thread)
    return connections, threads


def test_streaming_overhead(report):
    """8 live metric streams must not tax /simulate by more than 10%."""
    config = ServiceConfig(port=0, workers=4, cache_capacity=1024,
                           metrics_interval=0.5)
    rows = [f"subscribers  requests     req/s   p50[ms]   p99[ms]"]
    with DDToolServer(config) as server:
        def uncached_payloads():
            return [
                [{"qasm": _fresh_qasm(), "shots": 16, "seed": 1}
                 for _ in range(UNCACHED_PER_CLIENT)]
                for _ in range(CLIENTS)
            ]

        _measure(server, uncached_payloads())  # warm up the pool
        baseline = _measure(server, uncached_payloads())

        stop = threading.Event()
        connections, threads = _attach_metric_streams(
            server, STREAM_SUBSCRIBERS, stop
        )
        try:
            streaming = _measure(server, uncached_payloads())
        finally:
            stop.set()
            server.app.events.close()  # wake the blocked stream readers
            for thread in threads:
                thread.join(timeout=30)
            for connection in connections:
                connection.close()

    for label, stats in ((0, baseline), (STREAM_SUBSCRIBERS, streaming)):
        rows.append(
            f"{label:11d}  {stats['requests']:8d}  {stats['rps']:8.1f}  "
            f"{stats['p50_ms']:8.2f}  {stats['p99_ms']:8.2f}"
        )
    overhead = 1.0 - streaming["rps"] / baseline["rps"]
    rows.append(f"overhead: {100 * overhead:.1f}% "
                f"(budget {100 * STREAM_OVERHEAD_BUDGET:.0f}%)")
    rows.append("---")
    rows.append(json.dumps({
        "baseline": baseline, "streaming": streaming,
        "subscribers": STREAM_SUBSCRIBERS, "overhead": overhead,
    }, indent=2, sort_keys=True))
    report("service_streaming", rows)
    assert overhead < STREAM_OVERHEAD_BUDGET, (
        f"{STREAM_SUBSCRIBERS} metric streams cost {100 * overhead:.1f}% rps"
    )


# ----------------------------------------------------------------------
# saturation: 1000 concurrent connections against the reactor
# ----------------------------------------------------------------------
SATURATION_CONNECTIONS = 1000
SATURATION_DURATION = 6.0
SATURATION_PROCESSES = 4


@pytest.mark.slow
def test_eventloop_saturation(report, results_dir):
    """Hold 1000 keep-alive connections open and keep answering.

    This is the load that motivates the reactor: ~1000 threads would
    thrash; one selector thread plus a bounded handler pool must sustain
    the cached regime with zero dropped connections.
    """
    config = ServiceConfig(port=0, workers=2, cache_capacity=4096)
    with DDToolServer(config) as server:
        host, port = server.address
        result = run_load(
            host, port,
            connections=SATURATION_CONNECTIONS,
            duration=SATURATION_DURATION,
            processes=SATURATION_PROCESSES,
            mode="cached",
        )
    rows = [
        f"connections: {result.connections} "
        f"({result.processes} generator processes, "
        f"{result.duration_s:.0f}s, cached regime)",
        f"requests: {result.requests}  errors: {result.errors}  "
        f"reconnects: {result.reconnects}",
        f"rps: {result.rps:.1f}  p50: {result.p50_ms:.2f}ms  "
        f"p95: {result.p95_ms:.2f}ms  p99: {result.p99_ms:.2f}ms",
        "---",
        json.dumps(result.as_dict(), indent=2, sort_keys=True),
    ]
    report("service_saturation", rows)

    # Not service_saturation.json: the report above writes that one.
    with open(os.path.join(results_dir, "service_saturation_load.json"), "w",
              encoding="utf-8") as handle:
        json.dump(result.as_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert result.errors == 0, f"{result.errors} dropped/errored connections"
    assert result.requests > SATURATION_CONNECTIONS, (
        "fewer completed requests than connections — the reactor stalled"
    )
