"""Unit tests for circuit-to-DD building (cross-checked against numpy)."""

import numpy as np
import pytest

from repro.errors import CircuitError, GateError
from repro.qc import QuantumCircuit, library
from repro.qc.dd_builder import apply_gate, circuit_to_dd, gate_to_dd
from repro.qc.operations import GateOp
from repro.simulation import build_unitary
from repro.simulation.statevector import gate_unitary
from repro.verification.alternating import _Engine


class TestGateToDD:
    @pytest.mark.parametrize(
        "op",
        [
            GateOp(gate="h", targets=(1,)),
            GateOp(gate="x", targets=(0,), controls=(2,)),
            GateOp(gate="p", params=(0.7,), targets=(2,), controls=(0,)),
            GateOp(gate="x", targets=(1,), negative_controls=(0, 2)),
            GateOp(gate="swap", targets=(2, 0)),
            GateOp(gate="iswap", targets=(1, 0)),
            GateOp(gate="u3", params=(0.1, 0.2, 0.3), targets=(0,)),
        ],
    )
    def test_matches_dense_builder(self, package, op):
        dd = gate_to_dd(package, op, 3)
        assert np.allclose(package.to_matrix(dd, 3), gate_unitary(op, 3))

    def test_controlled_swap(self, package):
        op = GateOp(gate="swap", targets=(1, 0), controls=(2,))
        dd = gate_to_dd(package, op, 3)
        expected = np.eye(8)
        # Swap q1,q0 when q2 == 1: basis 5 (101) <-> 6 (110).
        expected[[5, 6]] = expected[[6, 5]]
        assert np.allclose(package.to_matrix(dd, 3), expected)

    def test_controlled_swap_matches_dense(self, package):
        op = GateOp(gate="swap", targets=(2, 1), controls=(0,))
        dd = gate_to_dd(package, op, 3)
        assert np.allclose(package.to_matrix(dd, 3), gate_unitary(op, 3))

    def test_controlled_iswap_rejected(self, package):
        op = GateOp(gate="iswap", targets=(1, 0), controls=(2,))
        with pytest.raises(GateError):
            gate_to_dd(package, op, 3)

    @pytest.mark.parametrize(
        "entry", ["apply_gate", "preview_left", "preview_right"]
    )
    def test_controlled_iswap_rejected_when_applied(self, package, entry):
        op = GateOp(gate="iswap", targets=(1, 0), controls=(2,))
        with pytest.raises(GateError, match="controlled two-qubit gate"):
            if entry == "apply_gate":
                apply_gate(package, package.zero_state(3), op)
            else:
                getattr(_Engine(package, 3), entry)(op)

    def test_condition_ignored_in_dd(self, package):
        plain = GateOp(gate="x", targets=(0,))
        conditioned = GateOp(gate="x", targets=(0,), condition=((0,), 1))
        a = gate_to_dd(package, plain, 2)
        b = gate_to_dd(package, conditioned, 2)
        assert a.node is b.node


class TestCircuitToDD:
    @pytest.mark.parametrize(
        "factory",
        [
            library.bell_pair,
            lambda: library.ghz_state(3),
            lambda: library.qft(3),
            lambda: library.qft_compiled(2),
            lambda: library.random_circuit(3, 30, seed=11),
        ],
    )
    def test_matches_dense_unitary(self, package, factory):
        circuit = factory()
        dd = circuit_to_dd(package, circuit)
        assert np.allclose(
            package.to_matrix(dd, circuit.num_qubits), build_unitary(circuit)
        )

    def test_barriers_skipped(self, package):
        circuit = QuantumCircuit(2)
        circuit.h(0).barrier().h(0)
        dd = circuit_to_dd(package, circuit)
        identity = package.identity(2)
        assert dd.node is identity.node

    def test_nonunitary_rejected(self, package):
        circuit = QuantumCircuit(1, 1)
        circuit.measure(0, 0)
        with pytest.raises(CircuitError):
            circuit_to_dd(package, circuit)

    def test_initial_operand(self, package):
        circuit = QuantumCircuit(2)
        circuit.x(0)
        start = circuit_to_dd(package, circuit)
        extended = circuit_to_dd(package, circuit, initial=start)
        identity = package.identity(2)
        assert extended.node is identity.node  # X then X


class TestApplyGate:
    def test_apply_matches_matrix_action(self, package, rng):
        from tests.conftest import random_state

        vector = random_state(3, rng)
        state = package.from_state_vector(vector)
        op = GateOp(gate="h", targets=(1,))
        result = apply_gate(package, state, op)
        assert np.allclose(
            package.to_vector(result, 3), gate_unitary(op, 3) @ vector
        )
