"""Edge-case and lifecycle tests for the DD package internals."""

import gc

import numpy as np
import pytest

from repro.dd import DDPackage
from repro.qc import library
from repro.qc.dd_builder import gate_to_dd
from repro.qc.operations import GateOp
from repro.simulation import DDSimulator


class TestGarbageCollection:
    def test_dropped_diagrams_are_reclaimed_pooled(self):
        # Pooled slots are not weakly held — an explicit mark-and-sweep
        # (the governor's HARD tier) reclaims unreachable indices instead.
        package = DDPackage()
        state = package.zero_state(20)
        package.clear_caches()
        assert package.stats()["unique_vector"]["entries"] == 20
        del state
        gc.collect()
        package.gc(force=True)
        assert package.stats()["unique_vector"]["entries"] == 0

    def test_shared_nodes_survive_partial_release(self):
        package = DDPackage()
        bell = package.from_state_vector([2**-0.5, 0, 0, 2**-0.5])
        other = package.from_state_vector([2**-0.5, 0, 0, 2**-0.5])
        del other
        gc.collect()
        # The shared nodes stay because `bell` still references them.
        assert package.node_count(bell) == 3
        assert np.allclose(
            package.to_vector(bell, 2), [2**-0.5, 0, 0, 2**-0.5]
        )

    def test_history_keeps_simulator_states_alive(self):
        simulator = DDSimulator(library.ghz_state(6))
        simulator.run_all()
        gc.collect()
        # Every historic state remains reconstructible.
        simulator.rewind()
        assert np.allclose(simulator.statevector(), np.eye(64)[0])


class TestCacheEviction:
    def test_compute_table_eviction_does_not_break_results(self):
        package = DDPackage(cache_capacity=16)  # absurdly small
        simulator = DDSimulator(library.qft(4), package=package)
        simulator.run_all()
        assert np.allclose(
            np.abs(simulator.statevector()) ** 2, np.full(16, 1 / 16)
        )

    def test_gate_dd_cache_hits(self):
        package = DDPackage()
        operation = GateOp(gate="x", targets=(0,), controls=(1,))
        first = gate_to_dd(package, operation, 3)
        second = gate_to_dd(package, operation, 3)
        assert first == second
        assert len(package._gate_dd_cache) == 1

    def test_gate_dd_cache_distinguishes_width(self):
        package = DDPackage()
        operation = GateOp(gate="h", targets=(0,))
        a = gate_to_dd(package, operation, 2)
        b = gate_to_dd(package, operation, 3)
        assert a.node.var != b.node.var


class TestNumericEdgeCases:
    def test_deep_circuit_stays_canonical(self):
        """1000 self-inverting gate pairs end exactly at |0...0>."""
        from repro.qc import QuantumCircuit

        circuit = QuantumCircuit(3)
        for _ in range(500):
            circuit.h(0).h(0)
        package = DDPackage()
        simulator = DDSimulator(circuit, package=package)
        simulator.run_all()
        zero = package.zero_state(3)
        assert simulator.state.node is zero.node
        assert abs(simulator.state.weight - 1.0) < 1e-9

    def test_accumulated_rotations_close_the_circle(self):
        """360 one-degree RZ rotations return (up to phase) to the start."""
        import math

        from repro.qc import QuantumCircuit

        circuit = QuantumCircuit(1)
        step = 2.0 * math.pi / 360.0
        for _ in range(360):
            circuit.rz(step, 0)
        package = DDPackage()
        simulator = DDSimulator(circuit, package=package)
        simulator.run_all()
        # Started at |0>; RZ only adds phases, so |<0|psi>| must be 1.
        fidelity = package.fidelity(simulator.state, package.zero_state(1))
        assert fidelity == pytest.approx(1.0, abs=1e-9)

    def test_tiny_amplitudes_survive_roundtrip(self):
        package = DDPackage()
        small = 1e-6
        big = np.sqrt(1.0 - small**2)
        state = package.from_state_vector([big, small])
        vector = package.to_vector(state, 1)
        assert vector[1] == pytest.approx(small, rel=1e-6)

    def test_subtolerance_amplitudes_are_flushed(self):
        package = DDPackage()
        state = package.from_state_vector([1.0, 1e-14])
        assert package.amplitude(state, 1) == 0.0
        assert state.node is package.zero_state(1).node
