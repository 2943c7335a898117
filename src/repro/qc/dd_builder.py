"""Building decision diagrams from circuit operations.

This module turns :class:`~repro.qc.operations.GateOp` instances into matrix
DDs on the full system (paper Ex. 3: local gate matrices are "extended to
the full system size using tensor products" — here performed directly on
the diagram), and whole unitary circuits into their functionality
``U = U_{m-1} ... U_0`` (paper Sec. II / III-C).
"""

from __future__ import annotations

from typing import Optional

from repro.dd import apply as apply_kernels
from repro.dd.edge import Edge
from repro.dd.package import DDPackage
from repro.errors import CircuitError, GateError
from repro.qc.circuit import QuantumCircuit
from repro.qc.operations import BarrierOp, GateOp


def gate_to_dd(package: DDPackage, operation: GateOp, num_qubits: int) -> Edge:
    """Matrix DD of a single gate embedded into ``num_qubits`` lines.

    Classical conditions are ignored here — the simulator decides whether to
    apply the gate at all; the DD is always that of the underlying unitary.
    Results are cached per package: repeated gates (Grover iterations, the
    CNOT cascades of GHZ circuits, ...) are built once.
    """
    cache = getattr(package, "_gate_dd_cache", None)
    if cache is None:
        cache = {}
        package._gate_dd_cache = cache
    key = (
        operation.gate,
        operation.params,
        operation.targets,
        operation.controls,
        operation.negative_controls,
        num_qubits,
    )
    cached = cache.get(key)
    if cached is not None:
        return cached
    result = _build_gate_dd(package, operation, num_qubits)
    if len(cache) > 4096:
        cache.clear()
    cache[key] = result
    return result


def _build_gate_dd(package: DDPackage, operation: GateOp, num_qubits: int) -> Edge:
    matrix = operation.matrix_readonly()
    targets = operation.targets
    if matrix.shape == (2, 2):
        if operation.num_controls == 0:
            return package.single_qubit_gate(num_qubits, matrix, targets[0])
        return package.controlled_gate(
            num_qubits,
            matrix,
            targets[0],
            controls=operation.controls,
            negative_controls=operation.negative_controls,
        )
    if matrix.shape == (4, 4):
        high, low = targets
        if operation.num_controls == 0:
            return package.two_qubit_gate(num_qubits, matrix, high, low)
        if operation.gate == "swap":
            return _controlled_swap_dd(package, operation, num_qubits)
        raise GateError(
            f"controlled two-qubit gate {operation.gate!r} is not supported; "
            "decompose it into controlled single-qubit gates and CNOTs"
        )
    raise GateError(  # pragma: no cover - library only has 2x2/4x4 gates
        f"unsupported gate matrix shape {matrix.shape}"
    )


def _controlled_swap_dd(
    package: DDPackage, operation: GateOp, num_qubits: int
) -> Edge:
    """Controlled SWAP via ``cx(c,b); ccx(ctrls+b, c); cx(c,b)``.

    Uses the standard Fredkin decomposition (as in qelib1.inc), with all
    extra controls attached to the middle Toffoli.
    """
    import numpy as np

    x_matrix = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    line_b, line_c = operation.targets
    outer = package.controlled_gate(num_qubits, x_matrix, line_b, controls=[line_c])
    inner = package.controlled_gate(
        num_qubits,
        x_matrix,
        line_c,
        controls=tuple(operation.controls) + (line_b,),
        negative_controls=operation.negative_controls,
    )
    return package.multiply(outer, package.multiply(inner, outer))


def circuit_to_dd(
    package: DDPackage,
    circuit: QuantumCircuit,
    initial: Optional[Edge] = None,
) -> Edge:
    """Functionality of a unitary circuit as a matrix DD.

    Consecutively multiplies the gate DDs onto ``initial`` (the identity by
    default), i.e. computes ``U = U_{m-1} ... U_0 . initial``.  Barriers are
    skipped; non-unitary operations raise, matching the verification tool's
    restriction (paper Sec. IV-C).
    """
    if circuit.has_nonunitary_operations:
        raise CircuitError(
            "only purely unitary circuits have a functionality matrix; "
            "remove measurements, resets and classical conditions"
        )
    result = initial if initial is not None else package.identity(circuit.num_qubits)
    for operation in circuit:
        if isinstance(operation, BarrierOp):
            continue
        gate_dd = gate_to_dd(package, operation, circuit.num_qubits)
        result = package.multiply(gate_dd, result)
    return result


def apply_gate(
    package: DDPackage, state: Edge, operation: GateOp, num_qubits: int
) -> Edge:
    """Apply one gate to a state DD (one simulation step, paper Sec. III-B).

    The gate is applied directly by the kernels of :mod:`repro.dd.apply`;
    no full-system gate DD is constructed.  Only a gate without a direct
    kernel is built as a gate DD and multiplied onto the state (Fig. 4).
    """
    result = apply_kernels.apply_operation(package, state, operation, num_qubits)
    if result is not None:
        return result
    gate_dd = gate_to_dd(package, operation, num_qubits)
    return package.multiply(gate_dd, state)
