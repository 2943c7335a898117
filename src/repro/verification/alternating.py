"""Alternating equivalence checking (paper Sec. III-C, Ex. 12; [20]).

If two circuits ``G`` and ``G'`` are equivalent, then ``G (G')^-1`` realizes
the identity.  Rather than building either functionality in full, we start
from the identity DD and interleave applications:

* a gate ``g_i`` of ``G`` multiplies from the left:  ``E <- g_i . E``;
* a gate ``g'_j`` of ``G'`` multiplies its inverse from the right:
  ``E <- E . (g'_j)^t`` (gates taken in original order).

After ``i`` gates of one and ``j`` of the other,
``E = (g_{i-1} ... g_0) . (g'_0^t ... g'_{j-1}^t)``, independent of the
interleaving — so any *application strategy* is sound, but a good one keeps
``E`` close to the identity (and therefore small) throughout.  The
strategies below include the compilation-flow scheme of Ex. 12: one gate
from the abstract circuit, then all gates of the compiled circuit up to the
next barrier.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.dd.apply import apply_operation
from repro.dd.edge import Edge
from repro.dd.package import DDPackage
from repro.errors import VerificationError
from repro.obs.metrics import DEFAULT_COUNT_BUCKETS
from repro.obs.tracing import Tracer, default_tracer
from repro.qc.circuit import QuantumCircuit
from repro.qc.operations import BarrierOp, GateOp
from repro.verification.checker import EquivalenceResult, _compare_roots


class ApplicationStrategy(enum.Enum):
    """How gate applications from ``G`` and ``G'`` are interleaved."""

    #: All of ``G`` first, then all of ``G'`` (monolithic; the worst case).
    NAIVE = "naive"
    #: Strictly alternate one gate from each side.
    ONE_TO_ONE = "one-to-one"
    #: Keep the applied-gate counts proportional to the circuit lengths.
    PROPORTIONAL = "proportional"
    #: Greedily apply whichever side currently yields the smaller diagram.
    LOOKAHEAD = "lookahead"
    #: One gate from ``G``, then all gates of ``G'`` up to the next barrier
    #: (paper Ex. 12; suited to verifying compilation flows).
    COMPILATION_FLOW = "compilation-flow"


@dataclass(frozen=True)
class TraceEntry:
    """One recorded application during the alternating scheme."""

    side: str  # "G" or "G'"
    gate_index: int
    node_count: int


@dataclass(frozen=True)
class AlternatingResult(EquivalenceResult):
    """Equivalence result with the per-application node-count trace."""

    trace: Tuple[TraceEntry, ...] = field(default=())
    strategy: Optional[ApplicationStrategy] = None


class _Engine:
    """Applies gates to the evolving ``E`` and records the trace.

    Every committed application also feeds the package's metrics registry
    (application counters per side, live/peak node-count gauges and the
    node-count histogram that *is* the trajectory distribution), so paper
    Ex. 12's "at most 9 nodes" claim becomes a recorded metric.
    """

    def __init__(
        self,
        package: DDPackage,
        num_qubits: int,
        tracer: Optional[Tracer] = None,
    ):
        self.package = package
        # The evolving E is a governor-registered root so a GC triggered
        # by an interleaved application never sweeps its weight.
        self.current = package.incref(package.identity(num_qubits))
        self.peak = package.node_count(self.current)
        self.trace: List[TraceEntry] = []
        self.tracer = tracer if tracer is not None else default_tracer()
        registry = package.registry
        self._obs_on = registry.enabled
        self._m_apps = {
            side: registry.counter("verify_applications_total", {"side": side})
            for side in ("G", "G'")
        }
        self._m_nodes = registry.gauge("verify_nodes")
        self._m_peak_nodes = registry.gauge("verify_peak_nodes")
        self._m_trajectory = registry.histogram(
            "verify_node_trajectory", DEFAULT_COUNT_BUCKETS
        )
        self._m_nodes.set(self.peak)
        self._m_peak_nodes.set_max(self.peak)

    def preview_left(self, gate: GateOp) -> Edge:
        return apply_operation(self.package, self.current, gate)

    def preview_right(self, gate: GateOp) -> Edge:
        return apply_operation(
            self.package, self.current, gate.inverse(), side="right"
        )

    def commit(self, side: str, gate_index: int, result: Edge) -> None:
        self.package.decref(self.current)
        self.current = self.package.incref(result)
        count = self.package.node_count(result)
        self.peak = max(self.peak, count)
        self.trace.append(TraceEntry(side, gate_index, count))
        if self._obs_on:
            self._m_apps[side].inc()
            self._m_nodes.set(count)
            self._m_peak_nodes.set_max(count)
            self._m_trajectory.observe(count)

    def apply_left(self, gate: GateOp, gate_index: int) -> None:
        if not self.tracer.enabled:
            self.commit("G", gate_index, self.preview_left(gate))
            return
        with self.tracer.span(
            "verify.apply", side="G", gate=gate.label(), index=gate_index
        ) as span:
            self.commit("G", gate_index, self.preview_left(gate))
            span.set_attribute("nodes", self.trace[-1].node_count)

    def close(self) -> None:
        """Release the governor root registration for the evolving E."""
        if self.current is not None:
            self.package.decref(self.current)
            self.current = None

    def apply_right(self, gate: GateOp, gate_index: int) -> None:
        if not self.tracer.enabled:
            self.commit("G'", gate_index, self.preview_right(gate))
            return
        with self.tracer.span(
            "verify.apply", side="G'", gate=gate.label(), index=gate_index
        ) as span:
            self.commit("G'", gate_index, self.preview_right(gate))
            span.set_attribute("nodes", self.trace[-1].node_count)


def _unitary_gates(circuit: QuantumCircuit) -> List[GateOp]:
    gates: List[GateOp] = []
    for operation in circuit:
        if isinstance(operation, BarrierOp):
            continue
        if not isinstance(operation, GateOp) or not operation.is_unitary:
            raise VerificationError(
                "equivalence checking requires purely unitary circuits "
                "(no measurements, resets or classical conditions)"
            )
        gates.append(operation)
    return gates


def _barrier_groups(circuit: QuantumCircuit) -> List[List[GateOp]]:
    """Unitary gates split into groups at barrier statements."""
    groups: List[List[GateOp]] = [[]]
    for operation in circuit:
        if isinstance(operation, BarrierOp):
            if groups[-1]:
                groups.append([])
            continue
        if not isinstance(operation, GateOp) or not operation.is_unitary:
            raise VerificationError(
                "equivalence checking requires purely unitary circuits"
            )
        groups[-1].append(operation)
    if groups and not groups[-1]:
        groups.pop()
    return groups


def check_equivalence_alternating(
    circuit_a: QuantumCircuit,
    circuit_b: QuantumCircuit,
    strategy: ApplicationStrategy = ApplicationStrategy.PROPORTIONAL,
    package: Optional[DDPackage] = None,
) -> AlternatingResult:
    """Check ``circuit_a == circuit_b`` via the ``G (G')^-1`` scheme.

    Returns an :class:`AlternatingResult` whose ``max_nodes`` is the peak
    intermediate DD size — the quantity paper Ex. 12 reports (9 versus 21
    nodes for the three-qubit QFT pair).
    """
    if circuit_a.num_qubits != circuit_b.num_qubits:
        raise VerificationError(
            "circuits act on different numbers of qubits "
            f"({circuit_a.num_qubits} vs {circuit_b.num_qubits})"
        )
    if package is None:
        package = DDPackage()
    engine = _Engine(package, circuit_a.num_qubits)
    left = _unitary_gates(circuit_a)
    with engine.tracer.span(
        "verify.run",
        left=circuit_a.name,
        right=circuit_b.name,
        strategy=strategy.value,
        qubits=circuit_a.num_qubits,
    ) as span:
        if strategy is ApplicationStrategy.COMPILATION_FLOW:
            _run_compilation_flow(engine, left, _barrier_groups(circuit_b))
        else:
            right = _unitary_gates(circuit_b)
            if strategy is ApplicationStrategy.NAIVE:
                _run_naive(engine, left, right)
            elif strategy is ApplicationStrategy.ONE_TO_ONE:
                _run_one_to_one(engine, left, right)
            elif strategy is ApplicationStrategy.PROPORTIONAL:
                _run_proportional(engine, left, right)
            elif strategy is ApplicationStrategy.LOOKAHEAD:
                _run_lookahead(engine, left, right)
            else:  # pragma: no cover - enum is exhaustive
                raise VerificationError(f"unknown strategy {strategy!r}")
        span.set_attribute("peak_nodes", engine.peak)
    identity = package.identity(circuit_a.num_qubits)
    base = _compare_roots(
        package, identity, engine.current, f"alternating-{strategy.value}",
        engine.peak,
    )
    engine.close()
    return AlternatingResult(
        equivalent=base.equivalent,
        equivalent_up_to_global_phase=base.equivalent_up_to_global_phase,
        method=base.method,
        max_nodes=base.max_nodes,
        global_phase=base.global_phase,
        trace=tuple(engine.trace),
        strategy=strategy,
    )


def _run_naive(engine: _Engine, left: Sequence[GateOp], right: Sequence[GateOp]):
    for index, gate in enumerate(left):
        engine.apply_left(gate, index)
    for index, gate in enumerate(right):
        engine.apply_right(gate, index)


def _run_one_to_one(engine: _Engine, left: Sequence[GateOp], right: Sequence[GateOp]):
    position = 0
    while position < len(left) or position < len(right):
        if position < len(left):
            engine.apply_left(left[position], position)
        if position < len(right):
            engine.apply_right(right[position], position)
        position += 1


def _run_proportional(engine: _Engine, left: Sequence[GateOp], right: Sequence[GateOp]):
    total_left, total_right = len(left), len(right)
    i = j = 0
    while i < total_left:
        engine.apply_left(left[i], i)
        i += 1
        # After i left gates, aim for j ~ i * (total_right / total_left).
        target = round(i * total_right / total_left)
        while j < min(target, total_right):
            engine.apply_right(right[j], j)
            j += 1
    while j < total_right:
        engine.apply_right(right[j], j)
        j += 1


def _run_lookahead(engine: _Engine, left: Sequence[GateOp], right: Sequence[GateOp]):
    i = j = 0
    package = engine.package
    while i < len(left) or j < len(right):
        if i >= len(left):
            engine.apply_right(right[j], j)
            j += 1
            continue
        if j >= len(right):
            engine.apply_left(left[i], i)
            i += 1
            continue
        candidate_left = engine.preview_left(left[i])
        candidate_right = engine.preview_right(right[j])
        if package.node_count(candidate_left) <= package.node_count(candidate_right):
            engine.commit("G", i, candidate_left)
            i += 1
        else:
            engine.commit("G'", j, candidate_right)
            j += 1


def _run_compilation_flow(
    engine: _Engine, left: Sequence[GateOp], groups: Sequence[Sequence[GateOp]]
):
    right_index = 0
    group_iter = iter(groups)
    for index, gate in enumerate(left):
        engine.apply_left(gate, index)
        group = next(group_iter, None)
        if group is None:
            continue
        for gate_b in group:
            engine.apply_right(gate_b, right_index)
            right_index += 1
    # Drain any remaining groups of G'.
    for group in group_iter:
        for gate_b in group:
            engine.apply_right(gate_b, right_index)
            right_index += 1
