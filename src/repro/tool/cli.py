"""Command-line interface — ``qdd-tool`` / ``python -m repro``.

Sub-commands mirror the tool's features (paper Sec. IV):

* ``sim`` — step-through simulation of a ``.qasm``/``.real`` circuit with
  optional HTML/SVG export and sampling;
* ``verify`` — equivalence checking of two circuits (construction-based or
  any alternating strategy) with optional HTML export;
* ``render`` — render a circuit's state or functionality DD to SVG/DOT;
* ``wheel`` — emit the HLS color-wheel legend of Fig. 7(b).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.tool.session import SimulationSession, VerificationSession, load_circuit
from repro.verification import (
    ApplicationStrategy,
    check_equivalence_alternating,
    check_equivalence_construct,
)
from repro.vis.style import DDStyle


def _style_from_name(name: str) -> DDStyle:
    styles = {
        "classic": DDStyle.classic,
        "colored": DDStyle.colored,
        "modern": DDStyle.modern,
    }
    return styles[name]()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdd-tool",
        description=(
            "Visualize decision diagrams for quantum computing: simulate "
            "and verify circuits while watching the diagrams evolve."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("sim", help="simulate a circuit step by step")
    sim.add_argument("circuit", help="path to a .qasm or .real file")
    sim.add_argument("--seed", type=int, default=None, help="measurement RNG seed")
    sim.add_argument("--shots", type=int, default=0,
                     help="sample this many shots from the final state")
    sim.add_argument("--style", choices=("classic", "colored", "modern"),
                     default="classic")
    sim.add_argument("--export", metavar="HTML",
                     help="write an interactive HTML step-through")
    sim.add_argument("--svg", metavar="FILE", help="write the final state DD as SVG")
    sim.add_argument("--steps", action="store_true",
                     help="print a log line per executed step")

    verify = commands.add_parser("verify", help="check two circuits for equivalence")
    verify.add_argument("left", help="first circuit (.qasm/.real)")
    verify.add_argument("right", help="second circuit (.qasm/.real)")
    verify.add_argument(
        "--strategy",
        choices=["construct"] + [s.value for s in ApplicationStrategy],
        default="proportional",
    )
    verify.add_argument("--export", metavar="HTML",
                        help="write an interactive HTML step-through "
                             "(compilation-flow order)")

    render = commands.add_parser("render", help="render a decision diagram")
    render.add_argument("circuit", help="path to a .qasm or .real file")
    render.add_argument("--functionality", action="store_true",
                        help="render the circuit's matrix DD instead of the "
                             "state reached from |0...0>")
    render.add_argument("--style", choices=("classic", "colored", "modern"),
                        default="classic")
    render.add_argument("--format", choices=("svg", "dot", "text"), default="svg")
    render.add_argument("-o", "--output", help="output file (default: stdout)")

    wheel = commands.add_parser("wheel", help="emit the HLS color wheel legend")
    wheel.add_argument("-o", "--output", help="output file (default: stdout)")

    synth = commands.add_parser(
        "synth", help="synthesize a state-preparation circuit from amplitudes"
    )
    synth.add_argument(
        "amplitudes",
        help="comma-separated amplitudes (python complex literals, e.g. "
             "'1,0,0,1'), or @FILE with one amplitude per line; "
             "automatically normalized",
    )
    synth.add_argument("-o", "--output",
                       help="write OpenQASM to this file (default: stdout)")
    synth.add_argument("--no-optimize", action="store_true",
                       help="disable the uniform-level control elision")

    convert = commands.add_parser(
        "convert", help="convert a circuit file (.real/.qasm) to OpenQASM"
    )
    convert.add_argument("circuit", help="input .qasm or .real file")
    convert.add_argument("-o", "--output",
                         help="output .qasm file (default: stdout)")

    stats = commands.add_parser(
        "stats",
        help="simulate a circuit and report the metrics registry "
             "(tables, operations, simulation)",
    )
    stats.add_argument("circuit", help="path to a .qasm or .real file")
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument("--json", action="store_true",
                       help="emit the registry snapshot as JSON")
    stats.add_argument("--prom", action="store_true",
                       help="emit the registry in Prometheus text format")

    sanitize = commands.add_parser(
        "sanitize",
        help="simulate a circuit with invariant checking at every operation "
             "and report the sanitizer verdict",
    )
    sanitize.add_argument("circuit", help="path to a .qasm or .real file")
    sanitize.add_argument("--seed", type=int, default=0,
                          help="measurement RNG seed")
    sanitize.add_argument("--every", type=int, default=1,
                          help="sanitize every N package operations "
                               "(default: 1, i.e. after every operation)")
    sanitize.add_argument("--json-out", metavar="FILE",
                          help="write the final sanitize report as JSON")

    trace = commands.add_parser(
        "trace",
        help="simulate a circuit under the tracer and print the span tree",
    )
    trace.add_argument("circuit", help="path to a .qasm or .real file")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--svg", metavar="FILE",
                       help="also write a per-step duration/node-count "
                            "timeline SVG")

    bloch = commands.add_parser(
        "bloch", help="render per-qubit Bloch spheres of the final state"
    )
    bloch.add_argument("circuit", help="path to a .qasm or .real file")
    bloch.add_argument("--seed", type=int, default=0)
    bloch.add_argument("-o", "--output",
                       help="output SVG file (default: stdout)")

    repl = commands.add_parser(
        "repl", help="interactive terminal session (the web tool as a REPL)"
    )
    repl.add_argument("circuit", nargs="?",
                      help="optionally load this circuit on startup")
    repl.add_argument("--seed", type=int, default=None)

    serve = commands.add_parser(
        "serve",
        help="run the multi-client JSON-over-HTTP visualization/simulation "
             "service (see docs/service.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8137)
    serve.add_argument("--handler-threads", type=int, default=0,
                       help="handler threads behind the event loop "
                            "(0 = sized from --workers)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker shards for /simulate and /verify; each "
                            "job goes to the first free shard (0 = run jobs "
                            "inline)")
    serve.add_argument("--batch-max-jobs", type=int, default=256,
                       help="largest accepted POST /simulate/batch array")
    serve.add_argument("--max-sessions", type=int, default=64,
                       help="live-session cap before LRU eviction / 503")
    serve.add_argument("--session-ttl", type=float, default=600.0,
                       help="idle seconds after which a session expires")
    serve.add_argument("--cache-size", type=int, default=256,
                       help="entries in the simulate/verify result cache")
    serve.add_argument("--max-body-bytes", type=int, default=1 << 20,
                       help="largest accepted request body")
    serve.add_argument("--rate-limit", type=float, default=0.0,
                       help="global requests/second cap (0 = unlimited)")
    serve.add_argument("--job-timeout", type=float, default=120.0,
                       help="seconds before a batch job returns 504")
    serve.add_argument("--request-deadline", type=float, default=0.0,
                       help="per-request wall-clock deadline in seconds; an "
                            "overrunning worker is killed and replaced "
                            "(0 = fall back to --job-timeout)")
    serve.add_argument("--budget-nodes", type=int, default=0,
                       help="per-job DD node budget before garbage "
                            "collection kicks in (0 = unlimited)")
    serve.add_argument("--budget-bytes", type=int, default=0,
                       help="per-job DD table byte budget (estimated) "
                            "before garbage collection kicks in "
                            "(0 = unlimited)")
    serve.add_argument("--max-streams", type=int, default=64,
                       help="concurrent SSE connections before 503")
    serve.add_argument("--stream-queue", type=int, default=256,
                       help="per-subscriber event buffer; oldest events are "
                            "dropped (and counted) when a client lags")
    serve.add_argument("--stream-history", type=int, default=1024,
                       help="events kept for Last-Event-ID replay")
    serve.add_argument("--heartbeat-interval", type=float, default=10.0,
                       help="seconds between SSE keep-alive comments")
    serve.add_argument("--metrics-interval", type=float, default=2.0,
                       help="seconds between /stream/metrics delta frames")

    from repro.campaign.cli import add_campaign_parser

    add_campaign_parser(commands)
    return parser


def _cmd_sim(args) -> int:
    session = SimulationSession(
        args.circuit, style=_style_from_name(args.style), seed=args.seed
    )
    while not session.simulator.at_end:
        record = session.forward()
        if args.steps:
            print(
                f"step {record.index + 1:3d}: {record.kind.value:12s} "
                f"nodes={record.node_count}"
            )
    print(f"final state DD ({session.simulator.node_count()} nodes):")
    print(session.current_text())
    if session.circuit.num_clbits:
        print(f"classical bits: {list(session.simulator.classical_bits)}")
    if args.shots:
        counts = session.sample_counts(args.shots, seed=args.seed)
        print(f"{args.shots} shots:")
        for outcome in sorted(counts):
            print(f"  |{outcome}>: {counts[outcome]}")
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(session.current_svg())
        print(f"wrote {args.svg}")
    if args.export:
        session.export_html(args.export)
        print(f"wrote {args.export}")
    return 0


def _cmd_verify(args) -> int:
    left = load_circuit(args.left)
    right = load_circuit(args.right)
    if args.strategy == "construct":
        result = check_equivalence_construct(left, right)
    else:
        result = check_equivalence_alternating(
            left, right, strategy=ApplicationStrategy(args.strategy)
        )
    verdict = (
        "equivalent"
        if result.equivalent
        else (
            "equivalent up to global phase"
            if result.equivalent_up_to_global_phase
            else "NOT equivalent"
        )
    )
    print(f"{left.name} vs {right.name}: {verdict}")
    print(f"method: {result.method}, peak nodes: {result.max_nodes}")
    if args.export:
        session = VerificationSession(left, right)
        session.run_compilation_flow()
        session.export_html(args.export)
        print(f"wrote {args.export}")
    return 0 if result.equivalent_up_to_global_phase else 1


def _cmd_render(args) -> int:
    from repro.dd.package import DDPackage
    from repro.qc.dd_builder import circuit_to_dd
    from repro.simulation.simulator import DDSimulator
    from repro.vis.ascii_art import dd_to_text
    from repro.vis.dot import dd_to_dot
    from repro.vis.svg import dd_to_svg

    circuit = load_circuit(args.circuit)
    package = DDPackage()
    if args.functionality:
        root = circuit_to_dd(package, circuit)
    else:
        simulator = DDSimulator(circuit, package=package, seed=0)
        simulator.run_all()
        root = simulator.state
    style = _style_from_name(args.style)
    if args.format == "svg":
        rendered = dd_to_svg(package, root, style)
    elif args.format == "dot":
        rendered = dd_to_dot(package, root, style)
    else:
        rendered = dd_to_text(package, root)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"wrote {args.output} ({package.node_count(root)} nodes)")
    else:
        print(rendered)
    return 0


def _parse_amplitudes(text: str):
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as handle:
            entries = [line.strip() for line in handle if line.strip()]
    else:
        entries = [entry.strip() for entry in text.split(",") if entry.strip()]
    return [complex(entry.replace("i", "j")) for entry in entries]


def _cmd_synth(args) -> int:
    import numpy as np

    from repro.simulation.simulator import DDSimulator
    from repro.synthesis import prepare_state

    amplitudes = np.asarray(_parse_amplitudes(args.amplitudes), dtype=complex)
    norm = np.linalg.norm(amplitudes)
    if norm == 0.0:
        print("error: the zero vector cannot be prepared", file=sys.stderr)
        return 2
    amplitudes = amplitudes / norm
    circuit = prepare_state(amplitudes, optimize=not args.no_optimize)
    simulator = DDSimulator(circuit)
    simulator.run_all()
    fidelity = abs(np.vdot(simulator.statevector(), amplitudes)) ** 2
    qasm = circuit.to_qasm()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(qasm)
        print(f"wrote {args.output}: {circuit.num_gates} gates, "
              f"fidelity {fidelity:.12f}")
    else:
        print(qasm, end="")
        print(f"// {circuit.num_gates} gates, fidelity {fidelity:.12f}",
              file=sys.stderr)
    return 0


def _cmd_convert(args) -> int:
    circuit = load_circuit(args.circuit)
    qasm = circuit.to_qasm()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(qasm)
        print(f"wrote {args.output} ({len(circuit)} operations)")
    else:
        print(qasm, end="")
    return 0


def _cmd_stats(args) -> int:
    from repro import obs
    from repro.dd.package import DDPackage
    from repro.obs.tracing import Tracer
    from repro.simulation.simulator import DDSimulator

    circuit = load_circuit(args.circuit)
    # One fresh registry per run: the package's table/op metrics and the
    # simulator's step metrics land in the same place, so every exporter
    # reads one source of truth.
    registry = obs.MetricsRegistry()
    package = DDPackage(registry=registry)
    simulator = DDSimulator(
        circuit, package=package, seed=args.seed, tracer=Tracer(enabled=False)
    )
    simulator.run_all()
    if args.json:
        print(obs.to_json(registry))
        return 0
    if args.prom:
        print(obs.to_prometheus(registry), end="")
        return 0
    print(f"{circuit.name}: {circuit.num_qubits} qubits, "
          f"{len(circuit)} operations, final DD {simulator.node_count()} nodes "
          f"(peak {simulator.peak_node_count})")
    all_stats = package.stats()
    governance = all_stats.pop("governance", None)
    sanitizer = all_stats.pop("sanitizer", None)
    all_stats.pop("storage", None)
    print(f"{'table':16s} {'entries':>9s} {'hits':>10s} {'misses':>10s} "
          f"{'hit ratio':>10s}")
    for name, values in all_stats.items():
        ratio = values.get("hit_ratio")
        rendered = f"{ratio:10.3f}" if ratio is not None else " " * 10
        print(f"{name:16s} {values['entries']:9.0f} {values['hits']:10.0f} "
              f"{values['misses']:10.0f} {rendered}")
    if governance:
        print()
        print("governance:")
        for key, value in governance.items():
            print(f"  {key:24s} {value}")
    if sanitizer and sanitizer.get("runs"):
        print()
        print("sanitizer:")
        for key, value in sanitizer.items():
            print(f"  {key:24s} {value}")
    print()
    print(obs.run_report(registry, title=circuit.name))
    return 0


def _cmd_sanitize(args) -> int:
    import json as _json

    from repro.dd.package import DDPackage
    from repro.errors import SanitizerError
    from repro.simulation.simulator import DDSimulator

    circuit = load_circuit(args.circuit)
    package = DDPackage(sanitize_every=max(1, args.every))
    simulator = DDSimulator(circuit, package=package, seed=args.seed)
    violation_report = None
    try:
        simulator.run_all()
    except SanitizerError as error:
        violation_report = error.report
    final_report = violation_report or package.sanitize()
    if args.json_out:
        payload = dict(final_report.as_dict())
        payload["circuit"] = circuit.name
        payload["sanitize_every"] = package.sanitize_every
        payload["runs"] = package.sanitize_runs
        with open(args.json_out, "w", encoding="utf-8") as handle:
            _json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json_out}")
    print(f"{circuit.name}: {package.sanitize_runs} sanitizer run(s), "
          f"every {package.sanitize_every} operation(s)")
    print(final_report.summary())
    if not final_report.ok:
        for violation in final_report.violations:
            print(f"  {violation}")
        return 1
    return 0


def _cmd_trace(args) -> int:
    from repro import obs
    from repro.dd.package import DDPackage
    from repro.simulation.simulator import DDSimulator

    circuit = load_circuit(args.circuit)
    tracer = obs.Tracer(enabled=True)
    package = DDPackage()
    simulator = DDSimulator(
        circuit, package=package, seed=args.seed, tracer=tracer
    )
    simulator.run_all()
    if not tracer.spans:
        print("no spans recorded (circuit has no operations?)")
        return 0
    root = tracer.spans[-1]
    print(obs.format_span_tree(root))
    if args.svg:
        from repro.vis.timeline import span_timeline_svg

        rendered = span_timeline_svg(
            root, title=f"Simulation timeline of {circuit.name}"
        )
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"wrote {args.svg}")
    return 0


def _cmd_bloch(args) -> int:
    from repro.dd.package import DDPackage
    from repro.simulation.simulator import DDSimulator
    from repro.vis.bloch import all_bloch_vectors, bloch_svg

    circuit = load_circuit(args.circuit)
    package = DDPackage()
    simulator = DDSimulator(circuit, package=package, seed=args.seed)
    simulator.run_all()
    vectors = all_bloch_vectors(package, simulator.state)
    rendered = bloch_svg(vectors, title=f"Final state of {circuit.name}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"wrote {args.output}")
        for qubit, (x, y, z) in enumerate(vectors):
            print(f"  q{qubit}: ({x:+.3f}, {y:+.3f}, {z:+.3f})")
    else:
        print(rendered)
    return 0


def _cmd_wheel(args) -> int:
    from repro.vis.svg import color_wheel_svg

    rendered = color_wheel_svg()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"wrote {args.output}")
    else:
        print(rendered)
    return 0


def _cmd_serve(args) -> int:
    from repro.service import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        handler_threads=args.handler_threads,
        batch_max_jobs=args.batch_max_jobs,
        workers=args.workers,
        max_sessions=args.max_sessions,
        session_ttl=args.session_ttl,
        cache_capacity=args.cache_size,
        max_body_bytes=args.max_body_bytes,
        rate_limit=args.rate_limit,
        job_timeout=args.job_timeout,
        request_deadline=args.request_deadline,
        budget_nodes=args.budget_nodes,
        budget_bytes=args.budget_bytes,
        max_streams=args.max_streams,
        stream_queue=args.stream_queue,
        stream_history=args.stream_history,
        heartbeat_interval=args.heartbeat_interval,
        metrics_interval=args.metrics_interval,
    )
    return serve(config)


def _cmd_campaign(args) -> int:
    from repro.campaign.cli import cmd_campaign

    return cmd_campaign(args)


def _cmd_repl(args) -> int:
    from repro.tool.repl import InteractiveTool, run_repl

    if args.circuit:
        tool = InteractiveTool(seed=args.seed)
        print(tool.execute(f"load {args.circuit}"))
        print("type 'help' for commands")
        while not tool.finished:
            try:
                line = input("qdd> ")
            except EOFError:
                break
            result = tool.execute(line)
            if result:
                print(result)
        return 0
    run_repl(sys.stdin, sys.stdout, seed=args.seed)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "sim": _cmd_sim,
        "verify": _cmd_verify,
        "render": _cmd_render,
        "wheel": _cmd_wheel,
        "synth": _cmd_synth,
        "convert": _cmd_convert,
        "stats": _cmd_stats,
        "sanitize": _cmd_sanitize,
        "trace": _cmd_trace,
        "bloch": _cmd_bloch,
        "repl": _cmd_repl,
        "serve": _cmd_serve,
        "campaign": _cmd_campaign,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        # Bad input (missing file, malformed QASM, invalid amplitudes, ...)
        # exits with a one-line diagnostic instead of a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        # Unreadable inputs and unwritable outputs (permissions, missing
        # directories, paths that are directories) get the same treatment.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
