"""``service``: a client driving ``qdd-tool serve`` over HTTP.

A default-config server (event-loop front end, 2 worker shards) runs in
its own process.  This process is the one client: a closed loop on each
of 2 keep-alive connections, sending the next request only once the
previous answer arrived.  The mix is 70% cached ``/simulate`` (8 circuits
warmed into the result cache before timing: front end, parse and digest,
LRU), 25% uncached ``/simulate`` (fresh circuits whose digests spread over
both shards: shard ring, pipe IPC, worker) and 5% ``/verify`` (QFT pairs
on fresh basis inputs).

All aggregates come from this client's own timestamps: ``rps`` counts the
2xx answers completed inside the window divided by the window, and
percentiles are nearest-rank.  Times are in reference-speed seconds
(``common.Clock``), with the speed sampled between one-second slices of
the window.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from time import perf_counter
from typing import Dict, List, Tuple

import repro
import repro.verification
from repro.service.workers import simulate_job

import inputs
from tracer import SpanTracer
from common import (
    ROOT, CheckFailed, Clock, check, child_env, mean_speed, measure_import_s,
    median, percentile,
)

CONNECTIONS = 2
WORKERS = 2
#: Request streams are generated for this many requests per second of
#: window; a faster server would run out of inputs and fail the run.
POOL_RPS = 1000
SERVER_SPAWNS = 5
#: The window is cut into slices of about this many seconds, with the
#: machine's speed sampled between them.
SLICE_S = 1.0
#: Uncached bodies re-run in this process for ``worker.compute_ms`` (after
#: two warm-up jobs).
COMPUTE_SAMPLES = 30
DIGEST_REPEATS = 10


class Server:
    """``python -m repro serve`` in its own process group."""

    def __init__(self) -> None:
        start = perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--workers", str(WORKERS)],
            cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            banner = self.process.stderr.readline()
            match = re.search(r"listening on http://[^ ]+:(\d+) ", banner)
            if match is None:
                raise RuntimeError(f"server did not start: {banner.strip()!r}")
            self.port = int(match.group(1))
            # Keep reading stderr so a chatty server never blocks on a full pipe.
            self.log: deque = deque(maxlen=100)
            self._pump = threading.Thread(target=self._read_log, daemon=True)
            self._pump.start()
            self._wait_healthy(start + 60.0)
        except BaseException:
            self.stop()
            raise
        self.ready_s = perf_counter() - start

    def _read_log(self) -> None:
        for line in self.process.stderr:
            self.log.append(line)

    def _wait_healthy(self, give_up: float) -> None:
        while perf_counter() < give_up:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server never answered /healthz with 200")

    def connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def get(self, path: str) -> Tuple[int, bytes]:
        connection = self.connection()
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def metrics(self) -> Dict[str, float]:
        """``/metrics`` as ``{'name{labels}': value}``."""
        status, body = self.get("/metrics")
        check(status == 200, f"/metrics answered {status}")
        values = {}
        for line in body.decode().splitlines():
            if line and not line.startswith("#"):
                key, _, value = line.rpartition(" ")
                values[key] = float(value)
        return values

    def peak_rss_mb(self) -> float:
        """The server process's resident-set high-water mark (Linux)."""
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (the server drains and reaps its workers), then make sure
        nothing of its process group is left."""
        group = self.process.pid
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(group, signal.SIGKILL)
                self.process.wait()
        give_up = perf_counter() + 10.0
        while True:
            try:
                os.killpg(group, 0)
            except ProcessLookupError:
                break
            if perf_counter() > give_up:
                os.killpg(group, signal.SIGKILL)
                give_up = perf_counter() + 10.0
            time.sleep(0.01)
        if self.process.stderr is not None:
            self.process.stderr.close()


def start_server() -> Tuple[Server, float]:
    """Spawn the server several times; keep the last one running.  Returns
    it with the median spawn-to-ready time in reference-speed seconds."""
    clock = Clock()
    times = []
    for attempt in range(SERVER_SPAWNS):
        server = Server()
        times.append(server.ready_s * clock.since_last())
        if attempt < SERVER_SPAWNS - 1:
            server.stop()
            clock.sample()
    return server, median(times)


def _sum(metrics: Dict[str, float], name: str, label: str = "") -> float:
    return sum(value for key, value in metrics.items()
               if key.split("{")[0] == name and label in key)


class Client:
    def __init__(self, seed: int, seconds: float):
        per_connection = int(POOL_RPS * seconds / CONNECTIONS) + 50
        self.seed = seed
        self.inputs = inputs.service_inputs(seed, CONNECTIONS, per_connection)
        self.library: Dict[Tuple[str, int], tuple] = {}
        self.attempted = 0
        self.failed = 0

    def warm(self, server: Server) -> None:
        """Put the 8 cached circuits into the result cache and give every
        worker its first jobs (lazy imports, first package)."""
        rng = inputs.seeded_rng(self.seed, 4)
        texts = self.inputs.cached + [inputs.random_qasm(rng, 6, 40) for _ in range(8)]
        connection = server.connection()
        try:
            for body in map(inputs.simulate_body, texts):
                connection.request("POST", "/simulate", body=body)
                response = connection.getresponse()
                response.read()
                check(response.status == 200, f"warm-up /simulate answered {response.status}")
        finally:
            connection.close()

    def window(self, server: Server, streams: List[List[inputs.Request]],
               seconds: float) -> Tuple[list, float]:
        """Closed loop on one connection per stream for ``seconds``, cut into
        slices of about ``SLICE_S``.  Between slices both connections finish
        their request in flight and the client samples the machine's speed.

        Returns (records, reference-speed seconds of the window); a record
        is (request, reference-speed latency, status, body).  The server's
        processes run on every CPU, so each slice is scaled by the mean
        speed of the CPUs, averaged over its two samples: a slice is shorter
        than the spells in which a CPU runs slow.
        """
        slices = max(1, round(seconds / SLICE_S))
        records: List[list] = [[] for _ in streams]
        errors: List[BaseException] = []
        gate = threading.Barrier(len(streams) + 1)
        end = [0.0]

        def drive(stream, out):
            requests = iter(stream)
            connection = server.connection()
            try:
                for _ in range(slices):
                    gate.wait()
                    while perf_counter() < end[0]:
                        request = next(requests, None)
                        if request is None:
                            raise RuntimeError("request stream exhausted before the window ended")
                        sent = perf_counter()
                        connection.request("POST", request.path, body=request.body,
                                           headers={"Content-Type": "application/json"})
                        response = connection.getresponse()
                        body = response.read()
                        out.append([request, perf_counter() - sent, response.status, body])
                    gate.wait()
            except threading.BrokenBarrierError:
                pass
            except BaseException as error:  # reported below, after join
                errors.append(error)
                gate.abort()
            finally:
                connection.close()

        threads = [threading.Thread(target=drive, args=(stream, out))
                   for stream, out in zip(streams, records)]
        for thread in threads:
            thread.start()
        speeds = [mean_speed()]
        #: per slice, its seconds and each stream's record count at its end
        durations: List[float] = []
        marks: List[List[int]] = []
        try:
            for _ in range(slices):
                end[0] = perf_counter() + seconds / slices
                begin = perf_counter()
                gate.wait()
                gate.wait()
                durations.append(perf_counter() - begin)
                marks.append([len(out) for out in records])
                speeds.append(mean_speed())
        except threading.BrokenBarrierError:
            pass
        finally:
            gate.abort()
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
        window_s = 0.0
        starts = [0] * len(records)
        for index, (duration, stops) in enumerate(zip(durations, marks)):
            factor = (speeds[index] + speeds[index + 1]) / 2.0
            window_s += duration * factor
            for out, start, stop in zip(records, starts, stops):
                for record in out[start:stop]:
                    record[1] *= factor
            starts = stops
        merged = [record for out in records for record in out]
        self.attempted += len(merged)
        return merged, window_s

    # ------------------------------------------------------------------
    def _expected(self, kind: str, key: int) -> tuple:
        """The library's answer for one body on a cold package (computed
        once, untimed)."""
        cached = self.library.get((kind, key))
        if cached is not None:
            return cached
        if kind == "verify":
            left_text, right_text = self.inputs.verify[key]
            left = repro.parse_qasm(left_text, name="G")
            right = repro.parse_qasm(right_text, name="G'")
            inputs.guarded_qasm(left)
            inputs.guarded_qasm(right)
            result = repro.verification.check_equivalence_alternating(
                left, right, strategy=repro.ApplicationStrategy.COMPILATION_FLOW)
            answer = (result.equivalent_up_to_global_phase, result.max_nodes)
        else:
            text = (self.inputs.cached if kind == "cached" else self.inputs.uncached)[key]
            circuit = repro.parse_qasm(text)
            inputs.guarded_qasm(circuit)
            simulator = repro.DDSimulator(circuit, seed=0)
            simulator.run_all()
            answer = (simulator.node_count(), simulator.peak_node_count)
        self.library[(kind, key)] = answer
        return answer

    def check_records(self, records: list) -> None:
        for request, _seconds, status, body in records:
            try:
                check(status == 200, f"{request.path} answered {status}")
                payload = json.loads(body)
                expected = self._expected(request.kind, request.key)
                if request.kind == "verify":
                    got = (payload["equivalent_up_to_global_phase"], payload["peak_nodes"])
                    check(got == expected, f"/verify answered {got}, library says {expected}")
                    check(expected[0], "a compiled pair is reported not equivalent")
                else:
                    got = (payload["nodes"], payload["peak_nodes"])
                    check(got == expected, f"/simulate answered {got}, library says {expected}")
                    check(sum(payload["counts"].values()) == inputs.SHOTS_SERVICE,
                          "counts do not sum to the shots")
                    check(payload["cached"] == (request.kind == "cached"),
                          f"a {request.kind} request answered cached={payload['cached']}")
            except (CheckFailed, KeyError, ValueError, repro.ReproError) as error:
                self.failed += 1
                print(f"service: {request.kind} #{request.key}: {error}", file=sys.stderr)


def latencies(records: list, kinds=("cached", "uncached", "verify")) -> List[float]:
    """Reference-speed seconds of the 2xx answers to requests of ``kinds``."""
    return [seconds for request, seconds, status, _ in records
            if 200 <= status < 300 and request.kind in kinds]


def run_untraced(seed: int, seconds: float) -> tuple:
    client = Client(seed, seconds)
    server, setup_s = start_server()
    try:
        client.warm(server)
        records, window_s = client.window(server, client.inputs.streams, seconds)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    client.check_records(records)
    every = latencies(records)
    cached = latencies(records, ("cached",))
    uncached = latencies(records, ("uncached",))
    verify = latencies(records, ("verify",))
    metrics = {
        "sim_s": sum(uncached) / len(uncached),
        "verify_s": percentile(verify, 0.25),
        "step_p50_ms": 1e3 * percentile(uncached + verify, 0.50),
        "step_p99_ms": 1e3 * percentile(cached, 0.99),
        "rps": len(every) / window_s,
        "cached_p50_ms": 1e3 * percentile(cached, 0.50),
        "uncached_p50_ms": 1e3 * percentile(uncached, 0.50),
        "p99_ms": 1e3 * percentile(every, 0.99),
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    return metrics, client.attempted, client.failed


def run_traced(seed: int, seconds: float) -> tuple:
    """One window bracketed by ``/metrics`` reads, then the in-process
    layer timings.  The server runs no tracing of its own, so the traced
    run's overhead is the two ``/metrics`` reads against the window.  The
    server's own timings are scaled by the client's mean speed factor over
    the window."""
    import_s = measure_import_s()
    client = Client(seed, seconds)
    server, ready_s = start_server()
    try:
        client.warm(server)
        begin = perf_counter()
        before = server.metrics()
        read_s = perf_counter() - begin
        started = perf_counter()
        records, window_s = client.window(server, client.inputs.streams, seconds)
        raw_window_s = perf_counter() - started
        begin = perf_counter()
        after = server.metrics()
        read_s += perf_counter() - begin
    finally:
        server.stop()
    client.check_records(records)
    speed = window_s / raw_window_s

    def delta(name: str, label: str = "") -> float:
        return _sum(after, name, label) - _sum(before, name, label)

    round_trips = latencies(records)
    served = sum(delta("service_request_seconds_sum", f'endpoint="{p}"') for p in ("/simulate", "/verify"))
    served_count = sum(delta("service_request_seconds_count", f'endpoint="{p}"') for p in ("/simulate", "/verify"))
    job_ms = 1e3 * speed * delta("service_job_seconds_sum", 'kind="simulate"') / delta(
        "service_job_seconds_count", 'kind="simulate"')
    hits, misses = delta("service_cache_hits_total"), delta("service_cache_misses_total")
    shards = [delta("service_shard_jobs_total", f'shard="{index}"') for index in range(WORKERS)]
    compute_s, per_job, steps = _worker_compute(
        [client.inputs.uncached[r[0].key] for r in records if r[0].kind == "uncached"])
    print("service worker spans per uncached job (s): "
          + repr({name: round(value, 5) for name, value in per_job.items()}), file=sys.stderr)
    metrics = {
        "qasm.parse_s": per_job.get("qasm.parse", 0.0),
        "dd.apply_s": per_job.get("dd.apply", 0.0),
        "sim.step_s": per_job.get("sim.step", 0.0),
        "sim.steps": steps,
        "sampling.sample_s": per_job.get("sampling.sample", 0.0),
        "service.transport_ms": 1e3 * (sum(round_trips) / len(round_trips) - speed * served / served_count),
        "service.job_ms": job_ms,
        "worker.compute_ms": 1e3 * compute_s,
        "service.dispatch_ms": job_ms - 1e3 * compute_s,
        "service.cache_hit_ratio": hits / (hits + misses),
        "service.shard_skew": max(shards) / max(min(shards), 1.0),
        "service.digest_ms": 1e3 * _digest_s(client.inputs.cached),
        "trace.overhead_share": read_s / raw_window_s,
        "setup.import_s": import_s,
        "setup.server_ready_s": ready_s,
    }
    return metrics, client.attempted, client.failed


def _worker_compute(texts: List[str]) -> Tuple[float, Dict[str, float], float]:
    """``simulate_job`` run in this process on uncached bodies, on a warm
    package as a worker shard runs it, under the span tracer.  Returns the
    mean reference-speed seconds per job, the mean seconds of each span per
    job and the steps per job."""
    for text in texts[:2]:
        simulate_job(text, inputs.SHOTS_SERVICE, 0)
    samples = texts[2:2 + COMPUTE_SAMPLES]
    clock = Clock()
    with SpanTracer() as tracer:
        start = perf_counter()
        for text in samples:
            simulate_job(text, inputs.SHOTS_SERVICE, 0)
        elapsed = perf_counter() - start
    clock.sample()
    factor = clock.unloaded()
    spans = {name: factor * value / len(samples) for name, value in tracer.total.items()}
    return factor * elapsed / len(samples), spans, tracer.calls.get("sim.step", 0) / len(samples)


def _digest_s(texts: List[str]) -> float:
    """Mean ``parse_qasm`` + ``digest()`` time: the cached path's own work,
    in reference-speed seconds."""
    clock = Clock()
    start = perf_counter()
    for _ in range(DIGEST_REPEATS):
        for text in texts:
            repro.parse_qasm(text).digest()
    elapsed = perf_counter() - start
    clock.sample()
    return elapsed * clock.unloaded() / (DIGEST_REPEATS * len(texts))
