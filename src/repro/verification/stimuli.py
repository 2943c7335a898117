"""Simulation-based equivalence checking with random stimuli.

Building full functionalities can blow up even on decision diagrams (paper
Sec. III-C: "decision diagrams can still grow exponentially large in the
worst case").  A cheap falsification pass simulates both circuits on the
same random input states and compares the outputs: a single fidelity < 1
proves non-equivalence, while agreement on many stimuli gives (only)
strong evidence of equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.dd.package import DDPackage
from repro.errors import VerificationError
from repro.qc.circuit import QuantumCircuit
from repro.qc.dd_builder import apply_gate
from repro.qc.operations import BarrierOp, GateOp


@dataclass(frozen=True)
class StimuliResult:
    """Outcome of a stimuli-based check."""

    equivalent: bool  # "not falsified" - see class docstring
    stimuli_run: int
    first_failure: Optional[int] = None
    worst_fidelity: float = 1.0

    def __bool__(self) -> bool:
        return self.equivalent


def _simulate(package: DDPackage, circuit: QuantumCircuit, state):
    for operation in circuit:
        if isinstance(operation, BarrierOp):
            continue
        if not isinstance(operation, GateOp) or not operation.is_unitary:
            raise VerificationError(
                "stimuli-based checking requires purely unitary circuits"
            )
        state = apply_gate(package, state, operation)
    return state


def check_equivalence_stimuli(
    circuit_a: QuantumCircuit,
    circuit_b: QuantumCircuit,
    num_stimuli: int = 16,
    seed: Optional[int] = None,
    package: Optional[DDPackage] = None,
    tolerance: float = 1e-9,
) -> StimuliResult:
    """Run both circuits on random computational basis states.

    Basis states are classical stimuli in the sense of [28]: cheap to
    prepare, and effective at catching functional differences.  The all-zero
    state is always included as the first stimulus.
    """
    if circuit_a.num_qubits != circuit_b.num_qubits:
        raise VerificationError(
            "circuits act on different numbers of qubits "
            f"({circuit_a.num_qubits} vs {circuit_b.num_qubits})"
        )
    if num_stimuli < 1:
        raise VerificationError("at least one stimulus is required")
    if package is None:
        package = DDPackage()
    rng = np.random.default_rng(seed)
    num_qubits = circuit_a.num_qubits
    dimension = 1 << num_qubits
    stimuli = [0]
    seen = {0}
    while len(stimuli) < min(num_stimuli, dimension):
        candidate = int(rng.integers(dimension))
        if candidate not in seen:
            seen.add(candidate)
            stimuli.append(candidate)
    worst = 1.0
    for index, basis in enumerate(stimuli):
        initial = package.basis_state(num_qubits, basis)
        out_a = _simulate(package, circuit_a, initial)
        out_b = _simulate(package, circuit_b, initial)
        fidelity = package.fidelity(out_a, out_b)
        worst = min(worst, fidelity)
        if fidelity < 1.0 - tolerance:
            return StimuliResult(
                equivalent=False,
                stimuli_run=index + 1,
                first_failure=basis,
                worst_fidelity=worst,
            )
    return StimuliResult(equivalent=True, stimuli_run=len(stimuli), worst_fidelity=worst)
