"""Memory-soak benchmark: flat RSS over thousands of mixed requests.

The resource-governance acceptance test: a budget-governed service must
hold its memory *flat* under sustained mixed load — cached and uncached
``/simulate``, ``/verify``, interactive session lifecycles — instead of
growing until the OOM killer arrives.  Two modes:

* **inline** (default): drives :class:`ServiceApp` directly (no sockets,
  ``workers=0`` so jobs run in-process and RSS of *this* process is the
  whole story).  ``python benchmarks/bench_soak.py --requests 10000``.
* **HTTP** (``--http --duration 15``): boots a real watchdog-enabled
  :class:`DDToolServer` (worker subprocess, request deadline, budgets) and
  hammers it over loopback for a wall-clock duration — the CI soak job.

RSS is read from ``/proc`` (self plus child workers), sampled throughout;
the growth is measured from a post-warmup baseline so one-time allocations
(imports, interned circuits, the first cache fill) don't count as a leak.
Results land in ``benchmarks/results/soak.json``; as a script, the exit
status is non-zero when growth exceeds the threshold (default 5%).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.abspath(os.path.join(BENCH_DIR, os.pardir, "src"))
for _extra in (SRC_DIR, BENCH_DIR):
    if _extra not in sys.path:
        sys.path.insert(0, _extra)

import _bench_common

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Distinct random circuits in the uncached rotation — more than the
#: result-cache capacity, so evictions and fresh worker simulations keep
#: happening for the whole run.
CIRCUIT_POOL = 384
DEFAULT_REQUESTS = 10_000
DEFAULT_THRESHOLD_PCT = 5.0
#: Requests before the RSS baseline is taken.  One full rotation of the
#: mixed cycle (~960 requests: every distinct circuit parsed once, the
#: result cache filled to capacity and evicting) plus allocator-arena
#: settling; the steady state after that is a repeat of the same rotation,
#: so any further growth is a real leak.
WARMUP_REQUESTS = 1_000

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")


# ----------------------------------------------------------------------
# RSS accounting (/proc; Linux)
# ----------------------------------------------------------------------
def _rss_of(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/statm", "r", encoding="ascii") as handle:
            return int(handle.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        return 0


def _child_pids() -> list:
    """PIDs whose parent is this process (worker subprocesses)."""
    me = str(os.getpid())
    children = []
    try:
        entries = os.listdir("/proc")
    except OSError:  # pragma: no cover - non-/proc platform
        return children
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[-1].split()
            if fields[1] == me:  # field 4 overall = ppid
                children.append(entry)
        except (OSError, IndexError):
            continue
    return children


def tree_rss_bytes() -> int:
    """Resident set of this process plus its direct children."""
    total = _rss_of("self")
    for pid in _child_pids():
        total += _rss_of(pid)
    return total


# ----------------------------------------------------------------------
# the mixed workload
# ----------------------------------------------------------------------
def _payload_cycle(seed_base: int = 0):
    """Infinite mixed-request generator: (kind, payload) tuples.

    ``seed_base`` offsets every circuit seed in the uncached rotation, so
    ``--seed`` sweeps genuinely different workloads run-over-run.
    """
    import itertools

    from repro.qc import library

    qft = library.qft(3).to_qasm()
    qft_compiled = library.qft_compiled(3).to_qasm()
    ghz = library.ghz_state(4).to_qasm()
    uncached = [
        library.random_circuit(3, 12, seed=seed_base + seed).to_qasm()
        for seed in range(CIRCUIT_POOL)
    ]
    for index in itertools.count():
        slot = index % 10
        if slot < 4:  # uncached simulate — the main table churn
            yield ("simulate", {
                "qasm": uncached[index % CIRCUIT_POOL],
                "shots": 8, "seed": index,
            })
        elif slot < 6:  # cached simulate
            yield ("simulate", {"qasm": qft, "shots": 16})
        elif slot == 6:
            yield ("verify", {"left": qft, "right": qft_compiled,
                              "strategy": "compilation-flow"})
        elif slot == 7:
            yield ("session", {"kind": "simulation", "qasm": ghz})
        elif slot == 8:
            yield ("simulate", {"qasm": ghz, "shots": 4})
        else:
            yield ("healthz", None)


def _drive_inline(app, kind, payload) -> None:
    from repro.service import Request

    if kind == "healthz":
        response = app.handle(Request("GET", "/healthz"))
    elif kind == "session":
        body = json.dumps(payload).encode()
        response = app.handle(Request("POST", "/sessions", body=body))
        sid = json.loads(response.body)["session_id"]
        app.handle(Request(
            "POST", f"/sessions/{sid}/step",
            body=json.dumps({"action": "to_end"}).encode(),
        ))
        app.handle(Request("DELETE", f"/sessions/{sid}"))
    else:
        body = json.dumps(payload).encode()
        response = app.handle(Request("POST", f"/{kind}", body=body))
    if response.status >= 500 and response.status != 503:
        raise AssertionError(
            f"{kind} request failed: {response.status} {response.body!r}"
        )


def _drive_http(connection, kind, payload) -> None:
    if kind == "healthz":
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        response.read()
        return
    if kind == "session":
        path, body = "/sessions", json.dumps(payload).encode()
    else:
        path, body = f"/{kind}", json.dumps(payload).encode()
    connection.request("POST", path, body=body,
                       headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    data = response.read()
    if response.status >= 500 and response.status != 503:
        raise AssertionError(f"{kind}: {response.status} {data!r}")
    if kind == "session" and response.status == 201:
        sid = json.loads(data)["session_id"]
        connection.request("DELETE", f"/sessions/{sid}")
        connection.getresponse().read()


# ----------------------------------------------------------------------
# soak runners
# ----------------------------------------------------------------------
def run_soak_inline(
    requests: int = DEFAULT_REQUESTS,
    budget_nodes: int = 20_000,
    budget_bytes: int = 64 << 20,
    seed: int = 0,
    json_out: "str | None" = None,
) -> dict:
    """Mixed load against an in-process ServiceApp; returns the result dict."""
    from time import perf_counter

    from repro.obs.metrics import MetricsRegistry
    from repro.service import Request, ServiceApp, ServiceConfig

    app = ServiceApp(
        ServiceConfig(
            workers=0,
            cache_capacity=256,
            max_sessions=32,
            budget_nodes=budget_nodes,
            budget_bytes=budget_bytes,
        ),
        registry=MetricsRegistry(enabled=True),
    )
    warmup = min(WARMUP_REQUESTS, max(1, requests // 2))
    samples = []
    baseline = None
    cycle = _payload_cycle(seed)
    start = perf_counter()
    try:
        for index in range(requests):
            kind, payload = next(cycle)
            _drive_inline(app, kind, payload)
            if index == warmup:
                baseline = tree_rss_bytes()
            if index % max(1, requests // 50) == 0:
                samples.append(tree_rss_bytes())
        final = tree_rss_bytes()
        governance = json.loads(
            app.handle(Request("GET", "/healthz")).body
        )["governance"]
    finally:
        app.close()
    if baseline is None:  # tiny runs
        baseline = samples[0] if samples else final
    return _result(
        mode="inline",
        requests=requests,
        duration=perf_counter() - start,
        baseline=baseline,
        final=final,
        samples=samples,
        governance=governance,
        seed=seed,
        json_out=json_out,
    )


def run_soak_http(
    duration: float = 15.0,
    workers: int = 1,
    request_deadline: float = 10.0,
    budget_nodes: int = 20_000,
    budget_bytes: int = 64 << 20,
    seed: int = 0,
    json_out: "str | None" = None,
) -> dict:
    """Wall-clock-bounded soak of a real watchdog-enabled HTTP server."""
    from http.client import HTTPConnection
    from time import perf_counter

    from repro.service import DDToolServer, ServiceConfig

    config = ServiceConfig(
        port=0,
        workers=workers,
        cache_capacity=256,
        max_sessions=32,
        request_deadline=request_deadline,
        budget_nodes=budget_nodes,
        budget_bytes=budget_bytes,
    )
    requests = 0
    samples = []
    baseline = None
    with DDToolServer(config) as server:
        host, port = server.address
        connection = HTTPConnection(host, port, timeout=60)
        cycle = _payload_cycle(seed)
        start = perf_counter()
        # Baseline after the request-count warmup, or — on a machine too
        # slow to get there — after 60% of the wall budget, so *some*
        # steady-state window is always measured.
        warmup_deadline = start + duration * 0.6
        while perf_counter() - start < duration:
            kind, payload = next(cycle)
            _drive_http(connection, kind, payload)
            requests += 1
            if baseline is None and (
                requests >= WARMUP_REQUESTS
                or perf_counter() >= warmup_deadline
            ):
                baseline = tree_rss_bytes()
            if requests % 25 == 0:
                samples.append(tree_rss_bytes())
        elapsed = perf_counter() - start
        connection.close()
        final = tree_rss_bytes()
        governance = _healthz_governance(host, port)
    if baseline is None:
        baseline = samples[0] if samples else final
    return _result(
        mode="http",
        requests=requests,
        duration=elapsed,
        baseline=baseline,
        final=final,
        samples=samples,
        governance=governance,
        seed=seed,
        json_out=json_out,
    )


def _healthz_governance(host: str, port: int) -> dict:
    from http.client import HTTPConnection

    connection = HTTPConnection(host, port, timeout=10)
    try:
        connection.request("GET", "/healthz")
        return json.loads(connection.getresponse().read())["governance"]
    finally:
        connection.close()


def _result(mode, requests, duration, baseline, final, samples, governance,
            seed=0, json_out=None) -> dict:
    growth_pct = (
        100.0 * (final - baseline) / baseline if baseline else 0.0
    )
    result = {
        "mode": mode,
        "requests": requests,
        "seed": seed,
        "duration_seconds": round(duration, 3),
        "requests_per_second": round(requests / duration, 1) if duration else 0.0,
        "rss_baseline_bytes": baseline,
        "rss_final_bytes": final,
        "rss_growth_pct": round(growth_pct, 3),
        "rss_samples_bytes": samples,
        "governance": governance,
    }
    _bench_common.write_json_result("soak", result, json_out=json_out)
    return result


# ----------------------------------------------------------------------
# pytest entry (small smoke run; the full soak runs as a script)
# ----------------------------------------------------------------------
def test_soak_smoke():
    result = run_soak_inline(requests=600)
    print(
        f"\nsoak smoke: {result['requests']} requests in "
        f"{result['duration_seconds']}s, RSS growth "
        f"{result['rss_growth_pct']}% (governance: {result['governance']})"
    )
    # Lenient bound for the tiny run: allocator noise dominates at this
    # scale; the 5% bar applies to the full 10k-request script run.
    assert result["rss_growth_pct"] < 25.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--requests", type=int, default=DEFAULT_REQUESTS,
                        help="mixed requests to issue (inline mode)")
    parser.add_argument("--http", action="store_true",
                        help="soak a real HTTP server instead of the "
                             "in-process app")
    parser.add_argument("--duration", type=float, default=15.0,
                        help="wall-clock seconds to run (HTTP mode)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (HTTP mode)")
    parser.add_argument("--request-deadline", type=float, default=10.0,
                        help="watchdog deadline per request (HTTP mode)")
    parser.add_argument("--budget-nodes", type=int, default=20_000)
    parser.add_argument("--budget-bytes", type=int, default=64 << 20)
    parser.add_argument("--threshold-pct", type=float,
                        default=DEFAULT_THRESHOLD_PCT,
                        help="maximum tolerated RSS growth after warmup")
    _bench_common.add_common_arguments(parser)
    args = parser.parse_args(argv)

    if args.http:
        result = run_soak_http(
            duration=args.duration,
            workers=args.workers,
            request_deadline=args.request_deadline,
            budget_nodes=args.budget_nodes,
            budget_bytes=args.budget_bytes,
            seed=args.seed,
            json_out=args.json_out,
        )
    else:
        result = run_soak_inline(
            requests=args.requests,
            budget_nodes=args.budget_nodes,
            budget_bytes=args.budget_bytes,
            seed=args.seed,
            json_out=args.json_out,
        )
    print(json.dumps(result, indent=2))
    if result["rss_growth_pct"] > args.threshold_pct:
        print(
            f"FAIL: RSS grew {result['rss_growth_pct']}% "
            f"(threshold {args.threshold_pct}%)",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: RSS growth {result['rss_growth_pct']}% over "
        f"{result['requests']} requests "
        f"(threshold {args.threshold_pct}%)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
