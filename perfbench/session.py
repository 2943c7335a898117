"""``session``: one person stepping through the tool (paper Sec. IV-B/C).

An iteration opens a ``SimulationSession`` on an 8-qubit, 100-operation
circuit with a measurement and a reset, steps forward through every
operation, goes back 20 steps and forward 20 again, and renders
``current_svg()``.  It then steps a ``VerificationSession`` of QFT(5)
against its compiled form gate by gate in compilation-flow order.  Every
forward step renders a frame (DD SVG, circuit SVG and text), so this
workload is dominated by ``vis`` and ``tool``; stepping back restores a
kept state and renders nothing.

Every iteration performs the same actions in the same order, so each
action is timed as its fastest over the iterations, in reference-speed
seconds (``common.Clock``; every iteration runs pinned, timed in this
thread's CPU seconds), before any percentile is taken across actions.
"""

from __future__ import annotations

import sys
from time import thread_time
from typing import Dict, List, Tuple

import numpy as np

import repro
from repro.qc.operations import BarrierOp, MeasureOp, ResetOp

import ddcounts
import inputs
from common import (
    CheckFailed, Clock, check, measure_import_s, peak_rss_mb,
    percentile, repeat_while,
)
from tracer import SpanTracer

REVISIT_STEPS = 20
#: Actions that move through the simulation: the ones ``step_*`` reports.
STEP_KINDS = ("forward", "backward")


def _barrier_groups(circuit) -> List[int]:
    """Gate counts between the barriers of a compiled circuit."""
    groups, size = [], 0
    for operation in circuit:
        if isinstance(operation, BarrierOp):
            if size:
                groups.append(size)
            size = 0
        else:
            size += 1
    if size:
        groups.append(size)
    return groups


class Sessions:
    def __init__(self, seed: int):
        self.inputs = inputs.session_inputs(seed)
        self.circuit = repro.parse_qasm(self.inputs.qasm)
        self.right_groups = _barrier_groups(repro.parse_qasm(self.inputs.verify_right))
        self.attempted = 0
        self.failed = 0
        #: one list of (action kind, seconds) per completed iteration
        self.actions: List[List[Tuple[str, float]]] = []
        self._current: List[Tuple[str, float]] = []
        self._first: Dict[str, tuple] = {}
        self.final_vector = None
        self.outcomes: Dict[int, int] = {}
        self.clock = Clock()

    def _timed(self, kind: str, action) -> None:
        self.attempted += 1
        start = thread_time()
        action()
        self._current.append((kind, thread_time() - start))

    def _repeat(self, key: str, signature: tuple) -> None:
        first = self._first.setdefault(key, signature)
        check(first == signature, f"{key} differs between iterations")

    def simulation(self) -> Dict[str, object]:
        start = thread_time()
        session = repro.SimulationSession(self.inputs.qasm, seed=inputs.SESSION_OUTCOMES_SEED)
        simulator = session.simulator
        while not simulator.at_end:
            self._timed("forward", session.forward)
        elapsed = thread_time() - start
        frames = session.frames
        nodes, peak = simulator.node_count(), simulator.peak_node_count
        check(len(frames) == len(self.circuit) + 1, f"{len(frames)} frames after a full pass")
        check(nodes == inputs.SESSION_NODES, f"final DD has {nodes} nodes, expected {inputs.SESSION_NODES}")
        check(peak == inputs.SESSION_PEAK, f"peak {peak} nodes, expected {inputs.SESSION_PEAK}")
        svg_bytes = sum(len(frame.svg) for frame in frames)
        retained = sum(len(frame.svg) + len(frame.text) for frame in frames)
        if self.final_vector is None:
            self.final_vector = simulator.statevector()
            self.outcomes = {r.index: r.outcome for r in simulator.records if r.outcome is not None}

        start = thread_time()
        for _ in range(REVISIT_STEPS):
            self._timed("backward", session.backward)
        for _ in range(REVISIT_STEPS):
            self._timed("forward", session.forward)
        self._timed("svg", session.current_svg)
        elapsed += thread_time() - start
        check(simulator.node_count() == nodes, "revisiting the last steps changes the state")
        counts = ddcounts.snapshot(simulator.package)
        self._repeat("simulation", (nodes, peak, svg_bytes, retained, tuple(sorted(counts.items()))))
        session.close()
        return {"seconds": elapsed, "counts": counts, "peak": peak,
                "svg_bytes_per_frame": svg_bytes / len(frames), "retained_mb": retained / 1e6}

    def verification(self) -> Dict[str, object]:
        start = thread_time()
        session = repro.VerificationSession(self.inputs.verify_left, self.inputs.verify_right)
        for group in self.right_groups:
            if session.left_remaining:
                self._timed("verify", session.apply_left)
            for _ in range(group):
                self._timed("verify", session.apply_right)
        elapsed = thread_time() - start
        check(session.finished, "gates left after the compilation flow")
        check(session.is_identity(), "QFT(5) and its compiled form are reported different")
        check(session.peak_node_count == inputs.QFT5_ALTERNATING_PEAK,
              f"peak {session.peak_node_count} nodes, expected {inputs.QFT5_ALTERNATING_PEAK}")
        counts = ddcounts.snapshot(session.package)
        self._repeat("verification", (session.peak_node_count, tuple(sorted(counts.items()))))
        session.close()
        return {"seconds": elapsed, "counts": counts, "peak": session.peak_node_count}

    def iteration(self) -> Dict[str, object]:
        """One simulation session and one verification session, timed in
        CPU seconds; an empty result when an output check failed."""
        self._current = []
        try:
            sim = self.simulation()
            ver = self.verification()
        except (CheckFailed, repro.ReproError) as error:
            self.failed += 1
            print(f"session: {error}", file=sys.stderr)
            return {}
        self.actions.append(self._current)
        return {
            "sim": sim["seconds"], "verify": ver["seconds"],
            "seconds": sim["seconds"] + ver["seconds"],
            "counts": ddcounts.total([sim["counts"], ver["counts"]]),
            "dd_peak": sim["peak"], "verify_peak": ver["peak"],
            "svg_bytes_per_frame": sim["svg_bytes_per_frame"],
            "retained_mb": sim["retained_mb"],
        }

    def pinned_iteration(self) -> Dict[str, object]:
        return self.clock.pinned(self.iteration)

    def fastest_actions(self, kinds) -> List[float]:
        """Each action's fastest time over the iterations in reference-speed
        seconds, for the actions of the given kinds."""
        factor = self.clock.unloaded()
        return [factor * min(iteration[index][1] for iteration in self.actions)
                for index, (kind, _) in enumerate(self.actions[0]) if kind in kinds]

    def dense_oracle(self) -> None:
        """The final state against the dense simulator replaying the same
        measurement and reset outcomes."""
        if self.final_vector is None:
            return
        dense = repro.StatevectorSimulator(self.circuit)
        for index, operation in enumerate(self.circuit):
            forced = self.outcomes.get(index) if isinstance(operation, (MeasureOp, ResetOp)) else None
            dense.step(outcome=forced)
        if not np.allclose(self.final_vector, dense.state, atol=1e-6):
            self.failed += 1
            print("session: amplitudes differ from the dense simulator", file=sys.stderr)


def _iterations(seconds: float, body) -> List[Dict[str, object]]:
    return [result for result in repeat_while(seconds, body) if result]


def run_untraced(seed: int, seconds: float) -> tuple:
    setup_s = measure_import_s()
    sessions = Sessions(seed)
    results = _iterations(seconds, sessions.pinned_iteration)
    rss = peak_rss_mb()
    sessions.dense_oracle()
    steps = sessions.fastest_actions(STEP_KINDS)
    actions = sessions.fastest_actions(STEP_KINDS + ("svg", "verify"))
    factor = sessions.clock.unloaded()
    metrics = {
        "sim_s": factor * min(r["sim"] for r in results),
        "verify_s": factor * min(r["verify"] for r in results),
        "step_p50_ms": 1e3 * percentile(steps, 0.50),
        "step_p99_ms": 1e3 * percentile(steps, 0.99),
        "rps": len(actions) / sum(actions),
        "cached_p50_ms": 1e3 * percentile(sessions.fastest_actions(("backward",)), 0.50),
        "uncached_p50_ms": 1e3 * percentile(sessions.fastest_actions(("forward",)), 0.50),
        "p99_ms": 1e3 * percentile(actions, 0.99),
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    return metrics, sessions.attempted, sessions.failed


def run_traced(seed: int, seconds: float) -> tuple:
    """Untraced and traced iterations in turn; per-layer times are the
    fastest over the traced iterations, in reference-speed seconds."""
    import_s = measure_import_s()
    sessions = Sessions(seed)
    tracer = SpanTracer()
    plain, traced = [], []

    def cycle() -> None:
        plain.append(sessions.pinned_iteration())
        with tracer:
            traced.append(tracer.record(sessions.pinned_iteration))

    repeat_while(seconds, cycle)
    plain, traced = [r for r in plain if r], [r for r in traced if r]
    sessions.dense_oracle()
    for result in plain + traced:
        if result["counts"] != traced[0]["counts"]:
            sessions.failed += 1
            print("session: DD counts differ between iterations", file=sys.stderr)

    factor = sessions.clock.unloaded()

    def span(kind: str, name: str) -> float:
        return factor * min(r[kind].get(name, 0.0) for r in traced)

    first = traced[0]
    metrics = {
        **ddcounts.metrics(first["counts"]),
        "dd.peak_nodes": first["dd_peak"],
        "verify.peak_nodes": first["verify_peak"],
        "qasm.parse_s": span("total", "qasm.parse"),
        "dd.apply_s": span("total", "dd.apply"),
        "sim.step_s": span("total", "sim.step"),
        "sim.steps": first["calls"].get("sim.step", 0),
        "vis.layout_s": span("total", "vis.layout"),
        "vis.dd_svg_s": span("self", "vis.dd_svg"),
        "vis.circuit_svg_s": span("total", "vis.circuit_svg"),
        "vis.text_s": span("total", "vis.text"),
        "vis.svg_bytes_per_frame": first["svg_bytes_per_frame"],
        "tool.frames_retained_mb": first["retained_mb"],
        "tool.frame_self_s": sum(
            span("self", name)
            for name in ("tool.forward", "tool.backward", "tool.apply_left", "tool.apply_right")
        ),
        "trace.overhead_share": (
            min(r["seconds"] for r in traced) / min(r["seconds"] for r in plain) - 1.0
        ),
        "setup.import_s": import_s,
    }
    return metrics, sessions.attempted, sessions.failed
