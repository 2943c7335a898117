"""Interactive sessions — the web tool's tabs as Python objects.

The paper's tool has a *simulation* tab (algorithm box + decision-diagram
box + navigation buttons) and a *verification* tab (two algorithm boxes;
paper Sec. IV).  The classes here expose exactly those controls:

============================  =========================================
tool control                  session method
============================  =========================================
`->` (one step forward)       :meth:`SimulationSession.forward`
`<-` (one step backward)      :meth:`SimulationSession.backward`
fast-forward (to breakpoint)  :meth:`SimulationSession.to_end`
fast-backward                 :meth:`SimulationSession.to_start`
play/pause slide show         :meth:`SimulationSession.play`
measurement pop-up dialog     :meth:`SimulationSession.pending_dialog` +
                              the ``outcome`` argument of ``forward``
============================  =========================================

Every visited state is rendered to SVG, so a finished session can be
exported as a self-contained interactive HTML file — the offline
counterpart of the installation-free web tool.
"""

from __future__ import annotations

import os
from typing import Iterator, List, Optional, Tuple, Union

from repro.dd.package import DDPackage
from repro.errors import ReproError, SimulationError, VerificationError
from repro.qc.circuit import QuantumCircuit
from repro.qc.operations import GateOp, MeasureOp, ResetOp
from repro.qc.qasm.parser import parse_qasm, parse_qasm_file
from repro.qc.real_format import parse_real, parse_real_file
from repro.simulation.simulator import DDSimulator, StepRecord
from repro.verification.alternating import _Engine
from repro.vis.html_export import Frame, write_html
from repro.vis.style import DDStyle
from repro.vis.svg import dd_to_svg
from repro.vis.ascii_art import dd_to_text


def load_circuit(source: Union[str, QuantumCircuit], name: str = "circuit") -> QuantumCircuit:
    """Load a circuit from a path, source text, or pass one through.

    Mirrors the tool's drag-and-drop box: ``.qasm`` and ``.real`` files are
    detected by extension; raw strings are parsed as OpenQASM if they
    contain ``OPENQASM`` and as ``.real`` if they contain ``.numvars``.
    """
    if isinstance(source, QuantumCircuit):
        return source
    if os.path.exists(source):
        if source.endswith(".real"):
            return parse_real_file(source)
        return parse_qasm_file(source)
    if "OPENQASM" in source:
        return parse_qasm(source, name=name)
    if ".numvars" in source:
        return parse_real(source, name=name)
    if source.endswith((".qasm", ".real")):
        # Looks like a circuit-file path, but the exists() check above
        # failed — say so instead of the generic message below.
        raise ReproError(f"no such file: {source}")
    raise ReproError(
        "could not interpret the input as a file path, OpenQASM source or "
        ".real source"
    )


class SimulationSession:
    """The simulation tab: step through a circuit, watch the DD evolve."""

    def __init__(
        self,
        circuit: Union[str, QuantumCircuit],
        style: Optional[DDStyle] = None,
        package: Optional[DDPackage] = None,
        seed: Optional[int] = None,
        outcome_chooser=None,
        include_statevector: bool = False,
    ):
        self.circuit = load_circuit(circuit)
        self.style = style if style is not None else DDStyle.classic()
        #: also render the underlying dense state vector next to each DD
        #: frame (the "connection to the underlying state vector" of the
        #: tool's modern mode); only sensible for small systems.
        self.include_statevector = (
            include_statevector and self.circuit.num_qubits <= 6
        )
        #: draw the circuit (with a progress marker) above every frame —
        #: the tool's algorithm box (paper Fig. 8 screenshots).
        self.include_circuit_diagram = self.circuit.num_qubits <= 12
        self.simulator = DDSimulator(
            self.circuit,
            package=package,
            seed=seed,
            outcome_chooser=outcome_chooser,
        )
        self._frames: List[Frame] = [self._frame("Initial state |0...0>")]

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------
    def forward(self, outcome: Optional[int] = None) -> StepRecord:
        """One step forward; ``outcome`` answers a measurement/reset dialog."""
        record = self.simulator.step_forward(outcome=outcome)
        self._frames.append(self._frame(self._describe(record)))
        return record

    def backward(self) -> None:
        """One step backward."""
        self.simulator.step_backward()
        if len(self._frames) > 1:
            self._frames.pop()

    def to_end(self, stop_at_breakpoints: bool = True) -> List[StepRecord]:
        """Fast-forward to the end or the next special operation."""
        records = []
        while not self.simulator.at_end:
            record = self.forward()
            records.append(record)
            if stop_at_breakpoints and record.is_breakpoint:
                break
        return records

    def to_start(self) -> None:
        """Fast-backward to the initial state."""
        while not self.simulator.at_start:
            self.backward()

    def play(self) -> Iterator[StepRecord]:
        """Slide-show iterator over all remaining steps."""
        while not self.simulator.at_end:
            yield self.forward()

    def close(self) -> None:
        """Release the package-governor roots held by this session.

        Called by the service session store on expiry/eviction; idempotent.
        The session must not be navigated afterwards.
        """
        self.simulator.close()

    # ------------------------------------------------------------------
    # the measurement dialog (paper Sec. IV-B)
    # ------------------------------------------------------------------
    def pending_dialog(self) -> Optional[Tuple[str, int, float, float]]:
        """The dialog the tool would pop up for the *next* operation.

        Returns ``(kind, qubit, p0, p1)`` if the next operation is a
        measurement or reset of a qubit in superposition (both outcome
        probabilities non-zero), else ``None``.
        """
        if self.simulator.at_end:
            return None
        operation = self.circuit[self.simulator.position]
        if isinstance(operation, MeasureOp):
            kind, qubit = "measure", operation.qubit
        elif isinstance(operation, ResetOp):
            kind, qubit = "reset", operation.qubit
        else:
            return None
        p0, p1 = self.simulator.probabilities(qubit)
        if p0 == 0.0 or p1 == 0.0:
            return None
        return kind, qubit, p0, p1

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def state(self):
        return self.simulator.state

    def current_svg(self) -> str:
        """SVG of the current state DD in the session's style."""
        return dd_to_svg(self.simulator.package, self.simulator.state, self.style)

    def current_text(self) -> str:
        """Terminal rendering of the current state DD."""
        return dd_to_text(self.simulator.package, self.simulator.state)

    def sample_counts(self, shots: int, seed: Optional[int] = None) -> dict:
        return self.simulator.sample_counts(shots, seed=seed)

    @property
    def frames(self) -> Tuple[Frame, ...]:
        return tuple(self._frames)

    def export_html(self, path: str, title: Optional[str] = None) -> None:
        """Write the visited states as an interactive HTML step-through."""
        write_html(
            self._frames,
            path,
            title=title or f"Simulation of {self.circuit.name}",
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _frame(self, description: str) -> Frame:
        svg = self.current_svg()
        if self.include_circuit_diagram:
            from repro.vis.circuit_svg import circuit_to_svg

            svg = (
                circuit_to_svg(self.circuit, progress=self.simulator.position)
                + svg
            )
        if self.include_statevector:
            from repro.vis.array_view import statevector_svg

            svg = svg + statevector_svg(
                self.simulator.statevector(), title="state vector"
            )
        return Frame(
            svg=svg,
            title=f"Step {self.simulator.position} / {len(self.circuit)}",
            description=description,
            text=self.current_text(),
            node_count=self.simulator.node_count(),
            position=self.simulator.position,
        )

    def _describe(self, record: StepRecord) -> str:
        operation = record.operation
        if isinstance(operation, GateOp):
            verb = "Skipped (condition not met)" if record.kind.value == "gate-skipped" else "Applied"
            return f"{verb} {operation.label()} on {operation.qubits}"
        if isinstance(operation, MeasureOp):
            return (
                f"Measured q{operation.qubit}: outcome {record.outcome} "
                f"(probability {record.probability:.3f})"
            )
        if isinstance(operation, ResetOp):
            return (
                f"Reset q{operation.qubit} (observed {record.outcome}, "
                f"probability {record.probability:.3f})"
            )
        return "Barrier (breakpoint)"


class VerificationSession:
    """The verification tab: two algorithm boxes and one evolving DD.

    Gates of the left circuit multiply the diagram from one side, inverted
    gates of the right circuit from the other; the two circuits are
    equivalent exactly if the final diagram resembles the identity
    (paper Sec. IV-C / Ex. 15).
    """

    def __init__(
        self,
        circuit_left: Union[str, QuantumCircuit],
        circuit_right: Union[str, QuantumCircuit],
        style: Optional[DDStyle] = None,
        package: Optional[DDPackage] = None,
    ):
        self.left = load_circuit(circuit_left, name="G")
        self.right = load_circuit(circuit_right, name="G'")
        if self.left.num_qubits != self.right.num_qubits:
            raise VerificationError(
                "both circuits must have the same number of qubits "
                "(and the same variable order)"
            )
        self.style = style if style is not None else DDStyle.colored()
        self.package = package if package is not None else DDPackage()
        self._engine = _Engine(self.package, self.left.num_qubits)
        from repro.verification.alternating import _barrier_groups, _unitary_gates

        self._left_gates = _unitary_gates(self.left)
        self._right_groups = _barrier_groups(self.right)
        self._right_gates = [gate for group in self._right_groups for gate in group]
        self._left_position = 0
        self._right_position = 0
        self._frames: List[Frame] = [self._frame("Initial diagram: the identity")]

    # ------------------------------------------------------------------
    # navigation (per-side step controls)
    # ------------------------------------------------------------------
    @property
    def left_position(self) -> int:
        return self._left_position

    @property
    def right_position(self) -> int:
        return self._right_position

    @property
    def left_total(self) -> int:
        return len(self._left_gates)

    @property
    def right_total(self) -> int:
        return len(self._right_gates)

    @property
    def left_remaining(self) -> int:
        return len(self._left_gates) - self._left_position

    @property
    def right_remaining(self) -> int:
        return len(self._right_gates) - self._right_position

    def apply_left(self, count: int = 1) -> None:
        """Apply ``count`` gates from the left circuit."""
        for _ in range(count):
            if self._left_position >= len(self._left_gates):
                raise SimulationError("no gates left in the left circuit")
            gate = self._left_gates[self._left_position]
            self._engine.apply_left(gate, self._left_position)
            self._left_position += 1
            self._frames.append(
                self._frame(f"Applied {gate.label()} from G (left)")
            )

    def apply_right(self, count: int = 1) -> None:
        """Apply ``count`` inverted gates from the right circuit."""
        for _ in range(count):
            if self._right_position >= len(self._right_gates):
                raise SimulationError("no gates left in the right circuit")
            gate = self._right_gates[self._right_position]
            self._engine.apply_right(gate, self._right_position)
            self._right_position += 1
            self._frames.append(
                self._frame(f"Applied {gate.label()}^-1 from G' (right)")
            )

    def apply_right_to_barrier(self) -> int:
        """Apply right gates up to the next barrier; returns how many."""
        applied = 0
        consumed = 0
        for group in self._right_groups:
            consumed += len(group)
            if consumed > self._right_position:
                target = consumed
                while self._right_position < target:
                    self.apply_right()
                    applied += 1
                break
        return applied

    def run_compilation_flow(self) -> None:
        """Paper Ex. 12: one gate from G, then right gates to the barrier."""
        while self._left_position < len(self._left_gates):
            self.apply_left()
            self.apply_right_to_barrier()
        while self._right_position < len(self._right_gates):
            self.apply_right()

    def close(self) -> None:
        """Release the package-governor root for the evolving diagram.

        Called by the service session store on expiry/eviction; idempotent.
        The session must not be navigated afterwards.
        """
        self._engine.close()

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return (
            self._left_position == len(self._left_gates)
            and self._right_position == len(self._right_gates)
        )

    def is_identity(self, up_to_global_phase: bool = True) -> bool:
        """Whether the current diagram resembles the identity."""
        identity = self.package.identity(self.left.num_qubits)
        current = self._engine.current
        if current.node is not identity.node:
            return False
        if up_to_global_phase:
            return abs(abs(current.weight) - 1.0) < self.package.complex_table.tolerance
        return self.package.complex_table.approx_equal(current.weight, identity.weight)

    @property
    def node_count(self) -> int:
        return self.package.node_count(self._engine.current)

    @property
    def peak_node_count(self) -> int:
        return self._engine.peak

    @property
    def current(self):
        return self._engine.current

    def current_svg(self) -> str:
        return dd_to_svg(self.package, self._engine.current, self.style)

    def current_text(self) -> str:
        return dd_to_text(self.package, self._engine.current)

    @property
    def frames(self) -> Tuple[Frame, ...]:
        return tuple(self._frames)

    def export_html(self, path: str, title: Optional[str] = None) -> None:
        write_html(
            self._frames,
            path,
            title=title or f"Verification: {self.left.name} vs {self.right.name}",
        )

    def trace_svg(self, title: Optional[str] = None) -> str:
        """Chart the node count after every application (Fig. 9's story
        told quantitatively: the diagram stays close to the identity)."""
        from repro.vis.trace_plot import trace_svg

        counts = [entry.node_count for entry in self._engine.trace]
        sides = [entry.side for entry in self._engine.trace]
        return trace_svg(
            counts,
            sides=sides,
            title=title or f"{self.left.name} vs {self.right.name}",
        )

    def _frame(self, description: str) -> Frame:
        node_count = self.node_count
        return Frame(
            svg=self.current_svg(),
            title=(
                f"G: {self._left_position}/{len(self._left_gates)}  |  "
                f"G': {self._right_position}/{len(self._right_gates)}  |  "
                f"{node_count} nodes"
            ),
            description=description,
            text=self.current_text(),
            node_count=node_count,
            position=self._left_position + self._right_position,
        )
