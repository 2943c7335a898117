"""Equivalence checking with ancillary and garbage qubits.

The paper's tool "expects both algorithms/circuits to have the same number
of qubits and the same variable order" and defers anything richer to the
full equivalence-checking tool (Sec. IV-C).  This module provides that
richer check: circuits may differ in qubit count (the extra lines of the
larger circuit are *ancillaries*, initialized to |0>), and designated
*garbage* qubits are excluded from the comparison.

Method: functional comparison on the data-qubit computational basis.  For
each stimulus, both circuits run from |0>-initialized ancillaries, the
outputs are turned into density matrices, the garbage lines are traced
out, and the reduced states must match.  Checking the full basis is exact
for the (permutation-flavoured) circuits where ancillaries typically
appear; a configurable number of random product-state stimuli adds
falsification power for genuinely quantum differences (cf. [28]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.dd import density
from repro.dd.edge import Edge
from repro.dd.package import DDPackage
from repro.errors import VerificationError
from repro.qc.circuit import QuantumCircuit
from repro.qc.dd_builder import apply_gate
from repro.qc.operations import BarrierOp, GateOp


@dataclass(frozen=True)
class AncillaryResult:
    """Outcome of an ancillary/garbage-aware equivalence check."""

    equivalent: bool
    stimuli_run: int
    #: basis bits of the falsifying stimulus, or ("random", index) for a
    #: random product-state stimulus
    first_failure: Optional[tuple] = None
    max_deviation: float = 0.0

    def __bool__(self) -> bool:
        return self.equivalent


def _run(package: DDPackage, circuit: QuantumCircuit, state: Edge) -> Edge:
    for operation in circuit:
        if isinstance(operation, BarrierOp):
            continue
        if not isinstance(operation, GateOp) or not operation.is_unitary:
            raise VerificationError(
                "ancillary-aware checking requires purely unitary circuits"
            )
        state = apply_gate(package, state, operation)
    return state


def _reduced(
    package: DDPackage, state: Edge, garbage: Sequence[int], num_qubits: int
):
    rho = density.density_from_state(package, state)
    keep = [q for q in range(num_qubits) if q not in set(garbage)]
    if len(keep) == num_qubits:
        return rho
    return density.partial_trace(
        package, rho, [q for q in range(num_qubits) if q not in keep]
    )


def check_equivalence_ancillary(
    circuit_a: QuantumCircuit,
    circuit_b: QuantumCircuit,
    garbage_qubits: Sequence[int] = (),
    num_random_stimuli: int = 8,
    max_basis_stimuli: int = 64,
    seed: Optional[int] = None,
    package: Optional[DDPackage] = None,
    tolerance: float = 1e-9,
) -> AncillaryResult:
    """Check two circuits for equivalence modulo ancillaries and garbage.

    The data qubits are the first ``min(n_a, n_b)`` lines; the extra lines
    of the larger circuit are ancillaries initialized to |0>.  Qubit
    indices in ``garbage_qubits`` (in the *larger* circuit's indexing) are
    traced out before comparison.  Stimuli: every data-basis state (capped
    at ``max_basis_stimuli``, randomly subsampled beyond that) plus
    ``num_random_stimuli`` random product states.

    Note on garbage semantics: with superposition stimuli, a garbage line
    that became *entangled* with the data makes the traced-out outputs
    differ (mixed versus pure) — the circuits then genuinely differ as
    quantum channels, and this function reports non-equivalence.  For the
    classical garbage convention of reversible logic (outputs compared on
    computational basis inputs only), pass ``num_random_stimuli=0``.
    """
    if package is None:
        package = DDPackage()
    rng = np.random.default_rng(seed)
    num_qubits = max(circuit_a.num_qubits, circuit_b.num_qubits)
    num_data = min(circuit_a.num_qubits, circuit_b.num_qubits)
    garbage = tuple(int(q) for q in garbage_qubits)
    for qubit in garbage:
        if not 0 <= qubit < num_qubits:
            raise VerificationError(f"garbage qubit {qubit} out of range")
    # Ancillary lines are implicitly garbage for the smaller circuit's view
    # only if the caller says so; by default they must return to |0> and
    # are compared like everything else.
    big_a = _embed(circuit_a, num_qubits)
    big_b = _embed(circuit_b, num_qubits)

    stimuli = _basis_stimuli(num_data, max_basis_stimuli, rng)
    stimuli += [None] * num_random_stimuli  # None -> draw a random product state
    worst = 0.0
    for index, stimulus in enumerate(stimuli):
        if stimulus is None:
            angles = rng.uniform(0.0, 2.0 * np.pi, size=(num_data, 2))
            initial = _product_state(package, num_qubits, num_data, angles)
            label: tuple = ("random", index)
        else:
            bits = [0] * (num_qubits - num_data) + list(stimulus)
            initial = package.basis_state(num_qubits, bits)
            label = tuple(stimulus)
        out_a = _run(package, big_a, initial)
        out_b = _run(package, big_b, initial)
        rho_a = _reduced(package, out_a, garbage, num_qubits)
        rho_b = _reduced(package, out_b, garbage, num_qubits)
        deviation = _distance(package, rho_a, rho_b)
        worst = max(worst, deviation)
        if deviation > tolerance:
            return AncillaryResult(
                equivalent=False,
                stimuli_run=index + 1,
                first_failure=label,
                max_deviation=worst,
            )
    return AncillaryResult(
        equivalent=True, stimuli_run=len(stimuli), max_deviation=worst
    )


def _embed(circuit: QuantumCircuit, num_qubits: int) -> QuantumCircuit:
    if circuit.num_qubits == num_qubits:
        return circuit
    embedded = QuantumCircuit(num_qubits, circuit.num_clbits, circuit.name)
    for operation in circuit:
        embedded.append(operation)
    return embedded


def _basis_stimuli(num_data: int, cap: int, rng) -> List[Tuple[int, ...]]:
    total = 1 << num_data
    if total <= cap:
        values = range(total)
    else:
        chosen = set(int(v) for v in rng.choice(total, size=cap - 1, replace=False))
        chosen.add(0)
        values = sorted(chosen)
    return [
        tuple((value >> (num_data - 1 - k)) & 1 for k in range(num_data))
        for value in values
    ]


def _product_state(package, num_qubits, num_data, angles) -> Edge:
    """|0..0> on ancillaries, per-qubit random rotations on data lines."""
    import cmath
    import math

    amplitudes = np.array([1.0 + 0.0j])
    for qubit in range(num_qubits - 1, -1, -1):
        if qubit >= num_data:
            local = np.array([1.0, 0.0], dtype=complex)
        else:
            theta, phi = angles[qubit]
            local = np.array(
                [math.cos(theta / 2.0),
                 cmath.exp(1j * phi) * math.sin(theta / 2.0)]
            )
        amplitudes = np.kron(amplitudes, local)
    return package.from_state_vector(amplitudes)


def _distance(package: DDPackage, rho_a: Edge, rho_b: Edge) -> float:
    """Hilbert-Schmidt distance ``Tr((A - B)^2)`` of two Hermitian DDs."""
    negated = rho_b.scaled(
        package.complex_table.lookup(-1.0 + 0.0j), package.complex_table
    )
    diff = package.add(rho_a, negated)
    if diff.is_zero:
        return 0.0
    return abs(density.trace(package, package.multiply(diff, diff)))
