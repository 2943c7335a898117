#!/usr/bin/env python
"""Self-hosted saturation run of the service front end.

Boots a loopback :class:`~repro.service.server.DDToolServer`, drives it
with the multi-process load generator (:mod:`repro.service.loadgen`) in
the cached and uncached regimes, prints the obs run report, and writes

* ``benchmarks/results/service_loadgen.json`` — the campaign-format
  artifact (``qdd-campaign-artifact-v1``) with p50/p95/p99 and rps per
  (mode, connections) cell;
* ``benchmarks/results/service_loadgen.txt`` — the human-readable
  metrics report.

Used by the CI ``service-load`` smoke job (200 connections, 10 s) and
by hand for full saturation runs::

    PYTHONPATH=src python scripts/service_loadgen.py \
        --connections 1000 --duration 10 --processes 4

Exit status is non-zero if any transport errors occurred, so CI fails
when the front end drops connections under load.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.export import run_report  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.service import DDToolServer, ServiceConfig  # noqa: E402
from repro.service.loadgen import (  # noqa: E402
    load_artifact,
    publish_metrics,
    run_load,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--connections", type=int, default=200,
                        help="concurrent keep-alive connections (default 200)")
    parser.add_argument("--duration", type=float, default=10.0,
                        help="seconds per regime (default 10)")
    parser.add_argument("--processes", type=int, default=2,
                        help="generator processes (default 2)")
    parser.add_argument("--workers", type=int, default=2,
                        help="server worker shards (default 2)")
    parser.add_argument("--modes", default="cached,uncached",
                        help="comma list of regimes (default cached,uncached)")
    parser.add_argument("--uncached-connections", type=int, default=None,
                        help="override connection count for the uncached "
                             "regime (defaults to --connections)")
    parser.add_argument("--output-dir", type=Path,
                        default=REPO_ROOT / "benchmarks" / "results")
    args = parser.parse_args(argv)

    modes = [mode.strip() for mode in args.modes.split(",") if mode.strip()]
    config = ServiceConfig(port=0, workers=args.workers, cache_capacity=4096)
    registry = MetricsRegistry(enabled=True)
    results = []
    with DDToolServer(config) as server:
        host, port = server.address
        print(f"serving on {server.url} ({args.workers} worker shards)",
              file=sys.stderr)
        for mode in modes:
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
            publish_metrics(result, registry)
            results.append(result)
            print(f"[{mode}] {result.requests} requests, "
                  f"{result.rps:.1f} req/s, p50={result.p50_ms:.2f}ms "
                  f"p99={result.p99_ms:.2f}ms, errors={result.errors}",
                  file=sys.stderr)

    report = run_report(
        registry,
        title=f"service loadgen ({args.connections} connections)",
    )
    print(report)

    artifact = load_artifact(results)
    args.output_dir.mkdir(parents=True, exist_ok=True)
    json_path = args.output_dir / "service_loadgen.json"
    text_path = args.output_dir / "service_loadgen.txt"
    json_path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    text_path.write_text(report + "\n")
    print(f"wrote {json_path} and {text_path}", file=sys.stderr)

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
