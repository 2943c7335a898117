"""Decision-diagram circuit simulator with step-through controls.

Executing a circuit for an initial state is "simulation when conducted on a
classical computer" (paper Ex. 4): each gate multiplies the current state DD
by the gate's matrix DD.  On top of that, this simulator implements the
interaction model of the visualization tool (paper Sec. IV-B):

* ``step_forward`` / ``step_backward`` — move one operation at a time (the
  tool's right/left arrows); the entire state history is kept, which is
  cheap because the diagrams share structure;
* ``run`` — go straight to the end or the next *special operation*
  (the tool's fast-forward): barriers, measurements and resets act as
  breakpoints;
* measurements and resets consult an *outcome chooser* — the programmatic
  stand-in for the tool's pop-up dialog showing the |0>/|1> probabilities —
  and collapse the state irreversibly (going backward restores the
  pre-measurement state from the history);
* classically-controlled gates check the classical register first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.dd import sampling
from repro.dd.edge import Edge
from repro.dd.package import DDPackage
from repro.errors import SimulationError
from repro.obs.metrics import DEFAULT_TIME_BUCKETS, MetricsRegistry
from repro.obs.tracing import Tracer, default_tracer
from repro.qc.circuit import QuantumCircuit
from repro.qc.dd_builder import apply_gate
from repro.qc.operations import BarrierOp, GateOp, MeasureOp, Operation, ResetOp

#: Decides a measurement outcome given ``(p0, p1)``; returns 0 or 1.
OutcomeChooser = Callable[[float, float], int]


class StepKind(enum.Enum):
    """What happened during one simulation step."""

    GATE = "gate"
    GATE_SKIPPED = "gate-skipped"  # classical condition not met
    BARRIER = "barrier"
    MEASUREMENT = "measurement"
    RESET = "reset"


@dataclass(frozen=True)
class StepRecord:
    """Outcome of one :meth:`DDSimulator.step_forward` call."""

    index: int
    operation: Operation
    kind: StepKind
    outcome: Optional[int] = None
    probability: Optional[float] = None
    node_count: int = 0

    @property
    def is_breakpoint(self) -> bool:
        """Whether the fast-forward control stops after this step."""
        return self.kind in (StepKind.BARRIER, StepKind.MEASUREMENT, StepKind.RESET)


class DDSimulator:
    """Step-through decision-diagram simulation of one circuit."""

    def __init__(
        self,
        circuit: QuantumCircuit,
        package: Optional[DDPackage] = None,
        initial_state: Optional[Edge] = None,
        seed: Optional[int] = None,
        outcome_chooser: Optional[OutcomeChooser] = None,
        approximation_threshold: Optional[float] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.circuit = circuit
        if package is None:
            package = DDPackage(registry=registry)
        self.package = package
        self._rng = np.random.default_rng(seed)
        self._chooser = outcome_chooser
        #: optional per-step branch pruning (approximate simulation):
        #: after every gate, branches with probability mass below this
        #: threshold are dropped and the state renormalized; the running
        #: fidelity estimate is tracked in :attr:`approximation_fidelity`.
        self.approximation_threshold = approximation_threshold
        if initial_state is None:
            initial_state = self.package.zero_state(circuit.num_qubits)
        #: history of (state, classical bits) *before* each executed step.
        #: Every state in the history is a governor-registered root: the
        #: package's GC must never sweep the weight of a state the user can
        #: still step back to.
        self._states: List[Edge] = [self.package.incref(initial_state)]
        self._classical: List[Tuple[int, ...]] = [(0,) * circuit.num_clbits]
        self._records: List[StepRecord] = []
        self._fidelities: List[float] = [1.0]
        # Observability: per-step metrics go to the package's registry by
        # default (one registry per run) unless another one is passed in;
        # spans go to the given tracer or the process-wide default.
        self.registry = registry if registry is not None else self.package.registry
        self.tracer = tracer if tracer is not None else default_tracer()
        self._obs_on = self.registry.enabled
        self._m_steps = self.registry.counter("sim_steps_total")
        self._m_steps_back = self.registry.counter("sim_steps_back_total")
        self._m_breakpoints = self.registry.counter("sim_breakpoints_total")
        self._m_step_seconds = self.registry.histogram(
            "sim_step_seconds", DEFAULT_TIME_BUCKETS
        )
        self._m_nodes = self.registry.gauge("sim_nodes")
        self._m_peak_nodes = self.registry.gauge("sim_peak_nodes")
        #: Peak state-DD size seen so far (terminal excluded, as everywhere).
        self.peak_node_count = self.package.node_count(initial_state)
        self._m_nodes.set(self.peak_node_count)
        self._m_peak_nodes.set_max(self.peak_node_count)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def state(self) -> Edge:
        """The current state DD."""
        return self._states[-1]

    @property
    def classical_bits(self) -> Tuple[int, ...]:
        """The current classical register contents (index 0 first)."""
        return self._classical[-1]

    @property
    def position(self) -> int:
        """Number of operations executed so far."""
        return len(self._states) - 1

    @property
    def at_start(self) -> bool:
        return self.position == 0

    @property
    def at_end(self) -> bool:
        return self.position >= len(self.circuit)

    @property
    def records(self) -> Tuple[StepRecord, ...]:
        """Records of all executed steps, oldest first."""
        return tuple(self._records)

    def node_count(self) -> int:
        """Size of the current state DD (terminal excluded, as in the paper)."""
        return self.package.node_count(self.state)

    def statevector(self) -> np.ndarray:
        """Dense representation of the current state (small systems)."""
        return self.package.to_vector(self.state, self.circuit.num_qubits)

    def probabilities(self, qubit: int) -> Tuple[float, float]:
        """Measurement probabilities ``(p0, p1)`` for ``qubit``."""
        return sampling.qubit_probabilities(self.package, self.state, qubit)

    def sample_counts(self, shots: int, seed: Optional[int] = None) -> dict:
        """Non-destructive sampling from the current state (paper Sec. III-B)."""
        rng = np.random.default_rng(seed) if seed is not None else self._rng
        return sampling.sample_counts(self.package, self.state, shots, rng)

    # ------------------------------------------------------------------
    # navigation (the tool's control buttons, paper Sec. IV-B)
    # ------------------------------------------------------------------
    def step_forward(self, outcome: Optional[int] = None) -> StepRecord:
        """Execute the next operation (the tool's right arrow).

        ``outcome`` forces the result of a pending measurement or reset,
        standing in for the user's choice in the pop-up dialog.
        """
        if not self._obs_on and not self.tracer.enabled:
            record = self._execute_step(outcome)
            if record.node_count > self.peak_node_count:
                self.peak_node_count = record.node_count
            return record
        with self.tracer.span("sim.step", index=self.position) as span:
            start = perf_counter()
            record = self._execute_step(outcome)
            elapsed = perf_counter() - start
            span.set_attribute("op", self._operation_label(record.operation))
            span.set_attribute("kind", record.kind.value)
            if record.outcome is not None:
                span.set_attribute("outcome", record.outcome)
            span.set_attribute("nodes", record.node_count)
        if record.node_count > self.peak_node_count:
            self.peak_node_count = record.node_count
        self._m_steps.inc()
        self._m_step_seconds.observe(elapsed)
        self._m_nodes.set(record.node_count)
        self._m_peak_nodes.set_max(record.node_count)
        if record.is_breakpoint:
            self._m_breakpoints.inc()
        return record

    @staticmethod
    def _operation_label(operation: Operation) -> str:
        if isinstance(operation, GateOp):
            return f"{operation.label()} {list(operation.qubits)}"
        if isinstance(operation, MeasureOp):
            return f"measure q{operation.qubit}"
        if isinstance(operation, ResetOp):
            return f"reset q{operation.qubit}"
        return "barrier"

    def _execute_step(self, outcome: Optional[int] = None) -> StepRecord:
        if self.at_end:
            raise SimulationError("already at the end of the circuit")
        operation = self.circuit[self.position]
        state = self.state
        classical = self.classical_bits
        self._pending_fidelity = self._fidelities[-1]
        if isinstance(operation, BarrierOp):
            record = self._record(operation, StepKind.BARRIER, state)
        elif isinstance(operation, MeasureOp):
            chosen, probability, state = self._measure(
                state, operation.qubit, outcome
            )
            bits = list(classical)
            bits[operation.clbit] = chosen
            classical = tuple(bits)
            record = self._record(
                operation, StepKind.MEASUREMENT, state, chosen, probability
            )
        elif isinstance(operation, ResetOp):
            chosen, probability, state = self._reset(state, operation.qubit, outcome)
            record = self._record(
                operation, StepKind.RESET, state, chosen, probability
            )
        elif isinstance(operation, GateOp):
            if operation.condition is not None and not self._condition_met(
                operation, classical
            ):
                record = self._record(operation, StepKind.GATE_SKIPPED, state)
            else:
                state = apply_gate(
                    self.package, state, operation, self.circuit.num_qubits
                )
                if self.approximation_threshold:
                    state = self._approximate(state)
                record = self._record(operation, StepKind.GATE, state)
        else:  # pragma: no cover - the IR has no other operation kinds
            raise SimulationError(f"unsupported operation {operation!r}")
        self._states.append(self.package.incref(state))
        self._classical.append(classical)
        self._records.append(record)
        self._fidelities.append(self._pending_fidelity)
        return record

    def step_backward(self) -> Operation:
        """Undo the most recent step (the tool's left arrow).

        Restores the previous state from the history, which also undoes
        measurements and resets (possible classically, paper Sec. III-B).
        """
        if self.at_start:
            raise SimulationError("already at the beginning of the circuit")
        self.package.decref(self._states.pop())
        self._classical.pop()
        self._fidelities.pop()
        record = self._records.pop()
        if self._obs_on:
            self._m_steps_back.inc()
            self._m_nodes.set(self.package.node_count(self.state))
        return record.operation

    def run(self, stop_at_breakpoints: bool = True) -> List[StepRecord]:
        """Run forward (the tool's fast-forward).

        Stops at the end of the circuit or — if ``stop_at_breakpoints`` —
        right after the next special operation (barrier, measurement or
        reset; paper Sec. IV-B).  Returns the records of the executed steps.
        """
        executed: List[StepRecord] = []
        with self.tracer.span(
            "sim.run",
            circuit=self.circuit.name,
            qubits=self.circuit.num_qubits,
        ) as span:
            while not self.at_end:
                record = self.step_forward()
                executed.append(record)
                if stop_at_breakpoints and record.is_breakpoint:
                    break
            if self.tracer.enabled:
                span.set_attribute("steps", len(executed))
                span.set_attribute("nodes", self.package.node_count(self.state))
        return executed

    def rewind(self) -> None:
        """Go back to the initial state (the tool's fast-backward)."""
        while not self.at_start:
            self.step_backward()

    def close(self) -> None:
        """Release the governor root registrations for the state history.

        Idempotent.  After closing, the simulator must not be stepped; the
        service session store calls this on eviction/expiry so the worker
        package's GC can reclaim the session's diagrams.
        """
        for state in self._states:
            self.package.decref(state)
        self._states = self._states[:1] if self._states else []

    def run_all(self) -> List[StepRecord]:
        """Execute every remaining operation, ignoring breakpoints."""
        return self.run(stop_at_breakpoints=False)

    def slideshow(self):
        """Iterate over the remaining steps one by one (the play button).

        Yields ``(record, state)`` pairs; the consumer controls the pace.
        """
        while not self.at_end:
            record = self.step_forward()
            yield record, self.state

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _record(
        self,
        operation: Operation,
        kind: StepKind,
        state: Edge,
        outcome: Optional[int] = None,
        probability: Optional[float] = None,
    ) -> StepRecord:
        return StepRecord(
            index=self.position,
            operation=operation,
            kind=kind,
            outcome=outcome,
            probability=probability,
            node_count=self.package.node_count(state),
        )

    def _choose(self, p0: float, p1: float) -> int:
        if self._chooser is not None:
            choice = self._chooser(p0, p1)
            if choice not in (0, 1):
                raise SimulationError(
                    f"outcome chooser returned {choice!r}, expected 0 or 1"
                )
            return choice
        return 0 if self._rng.random() < p0 else 1

    def _measure(
        self, state: Edge, qubit: int, outcome: Optional[int]
    ) -> Tuple[int, float, Edge]:
        p0, p1 = sampling.qubit_probabilities(self.package, state, qubit)
        if outcome is None:
            # Deterministic qubits need no dialog (paper: the dialog appears
            # only for qubits in superposition).
            if p1 == 0.0:
                outcome = 0
            elif p0 == 0.0:
                outcome = 1
            else:
                outcome = self._choose(p0, p1)
        return sampling.measure_qubit(self.package, state, qubit, outcome)

    def _reset(
        self, state: Edge, qubit: int, outcome: Optional[int]
    ) -> Tuple[int, float, Edge]:
        p0, p1 = sampling.qubit_probabilities(self.package, state, qubit)
        if outcome is None:
            if p1 == 0.0:
                outcome = 0
            elif p0 == 0.0:
                outcome = 1
            else:
                outcome = self._choose(p0, p1)
        return sampling.reset_qubit(self.package, state, qubit, outcome)

    @property
    def approximation_fidelity(self) -> float:
        """Running product of per-step pruning fidelities (1.0 when exact).

        Rolls back correctly when stepping backward through the history.
        """
        return self._fidelities[-1]

    def _approximate(self, state: Edge) -> Edge:
        from repro.dd.approximation import prune_small_branches

        result = prune_small_branches(
            self.package, state, self.approximation_threshold
        )
        self._pending_fidelity = self._fidelities[-1] * result.fidelity
        return result.state

    @staticmethod
    def _condition_met(operation: GateOp, classical: Sequence[int]) -> bool:
        clbits, value = operation.condition
        actual = 0
        for position, clbit in enumerate(clbits):
            actual |= classical[clbit] << position
        return actual == value
