"""Edge-case and lifecycle tests for the DD package internals."""

import cmath
import gc
import math

import numpy as np
import pytest

from repro.dd import DDPackage
from repro.dd.pool import TERMINAL_INDEX
from repro.dd.pooled import MATRIX, PooledApplyKernel, VECTOR
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


class TestWeightMemoSoundness:
    """The engine's matrix normalization memo replays only distance-zero
    lookups: once a representative nearer to a snapped raw value is
    minted, a stored successor weight must follow what a fresh lookup
    answers -- which, the oldest representative winning, is still the
    one the raw value snapped to before."""

    @staticmethod
    def _plant_far(weights, raw):
        """Mint a representative 0.75*tol from ``raw`` (so ``raw`` snaps
        to it at distance > 0); return its index."""
        far = weights.lookup_index(raw + complex(0.75 * weights.tolerance, 0.0))
        assert weights.value(far) != raw
        assert weights.lookup_index(raw) == far
        return far

    @staticmethod
    def _mint_nearer(weights, raw, far):
        """Mint a representative 0.375*tol from ``raw`` on the other side
        (1.125*tol from ``far``, so it is minted, not snapped)."""
        near = weights.lookup_index(raw - complex(0.375 * weights.tolerance, 0.0))
        assert near != far
        assert weights.lookup_index(raw) == far
        return near

    def test_matrix_make_node_follows_a_nearer_mint(self):
        engine = DDPackage()._pooled
        weights = engine.weights
        pivot = 2.0 + 0.0j
        other = 0.3 + 0.1j
        # The max-magnitude rule divides by the pivot: by 2, exactly.
        raw = other / 2.0
        edges = [(TERMINAL_INDEX, w) for w in (pivot, other, other, pivot)]
        far = self._plant_far(weights, raw)

        def wsuccs():
            index, factor = engine.make_node(MATRIX, 0, edges)
            assert factor == pivot
            return tuple(engine.mpool.wsucc[4 * index:4 * index + 4])

        assert wsuccs() == (1, far, far, 1)
        assert wsuccs() == (1, far, far, 1)
        self._mint_nearer(weights, raw, far)
        assert wsuccs() == (1, far, far, 1)

    def test_vector_make_node_follows_a_nearer_mint(self):
        engine = DDPackage()._pooled
        weights = engine.weights
        v0, v1 = 0.6 + 0.2j, -0.3 + 0.5j
        # The L2 rule: factor = |(v0, v1)| with the phase of v0 (kept raw),
        # and the second weight becomes v1 / factor.
        factor = cmath.rect(math.sqrt(abs(v0) ** 2 + abs(v1) ** 2), cmath.phase(v0))
        raw = v1 / factor
        edges = [(TERMINAL_INDEX, v0), (TERMINAL_INDEX, v1)]
        far = self._plant_far(weights, raw)

        def second_weight():
            index, returned = engine.make_node(VECTOR, 0, edges)
            assert returned == factor
            return engine.vpool.wsucc[2 * index + 1]

        assert second_weight() == far
        assert second_weight() == far
        self._mint_nearer(weights, raw, far)
        assert second_weight() == far == weights.lookup_index(raw)


class TestOnlyStoredWeightsAreMinted:
    """In-flight weights stay raw: a simulation mints a complex-table entry
    only for a successor weight some node stores, a root weight handed out
    at the package boundary, or an entry of a gate kernel's matrix."""

    def test_cold_simulation_mints_only_stored_weights(self, monkeypatch):
        circuit = library.random_circuit(8, 60, seed=4)
        package = DDPackage()
        weights = package.complex_table
        engine = package._pooled
        minted = []
        boundary = set()
        kernel_entries = set()
        mint = weights._mint
        to_edge = engine.to_edge
        canonical_value = PooledApplyKernel._canonical_value

        def recording_mint(value, cell):
            index = mint(value, cell)
            minted.append(index)
            return index

        def recording_to_edge(kind, edge, *top):
            result = to_edge(kind, edge, *top)
            boundary.add(result.weight)
            return result

        def recording_canonical_value(kernel, value):
            result = canonical_value(kernel, value)
            kernel_entries.add(result)
            return result

        monkeypatch.setattr(weights, "_mint", recording_mint)
        monkeypatch.setattr(engine, "to_edge", recording_to_edge)
        monkeypatch.setattr(
            PooledApplyKernel, "_canonical_value", recording_canonical_value
        )
        DDSimulator(circuit, package=package).run_all()
        assert package.stats()["governance"]["gc_runs"] == 0

        stored = set()
        for pool in (engine.vpool, engine.mpool):
            for index in pool.live_indices():
                stored.update(widx for _succ, widx in pool.edges_of(index))
        unexplained = [
            weights.value(index)
            for index in minted
            if index not in stored
            and weights.value(index) not in boundary
            and weights.value(index) not in kernel_entries
        ]
        assert len(minted) > 100
        assert unexplained == []


def test_identity_view_keeps_its_stored_child_alive():
    """A gate DD whose stored root skips the top levels is handed out as an
    identity view; holding only that view keeps the stored node through a
    forced collection."""
    package = DDPackage()
    gate = package.single_qubit_gate(4, [[0, 1], [1, 0]], 0)
    assert gate.node.var == 3
    index = package._pooled.node_index(gate.node)
    assert package._pooled.mpool.var[index] == 0
    gc.collect()
    package.gc(force=True)
    assert package._pooled.mpool.is_live(index)
    expected = np.kron(np.eye(8), [[0, 1], [1, 0]])
    assert np.allclose(package.to_matrix(gate), expected)
    assert package.node_count(gate) == 4
    assert package.sanitize().ok


class TestViewEdgeMemo:
    """A view builds its successor tuple once and keeps it; the memo stays
    equal to the pool across collections that free and recycle slots."""

    @staticmethod
    def _random_state(rng, num_qubits):
        amplitudes = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
        return (amplitudes / np.linalg.norm(amplitudes)).tolist()

    def test_memo_is_built_once_and_survives_slot_recycling(self):
        rng = np.random.default_rng(3)
        package = DDPackage()
        engine = package._pooled
        kept = package.from_state_vector(self._random_state(rng, 4))
        assert kept.node.edges is kept.node.edges
        garbage = [
            package.from_state_vector(self._random_state(rng, 4)) for _ in range(4)
        ]
        # Memoize every successor tuple of the kept diagram before the sweep.
        nodes = [kept.node]
        for node in nodes:
            nodes.extend(edge.node for edge in node.edges if edge.node.var >= 0)
        del garbage
        gc.collect()
        package.gc(force=True)
        freed = len(engine.vpool.free_list)
        assert freed > 0
        recycled = [
            package.from_state_vector(self._random_state(rng, 4)) for _ in range(4)
        ]
        assert len(engine.vpool.free_list) < freed
        for node in nodes:
            assert node.edges == engine.view_edges(VECTOR, node._index)
            successors = engine.vpool.edges_of(node._index)
            for edge, (child, _weight) in zip(node.edges, successors):
                assert edge.node is engine.view(VECTOR, child)
        assert all(state.node.var == 3 for state in recycled)


def _reachable(node):
    """Index -> view of every non-terminal node below ``node``, walked
    through the public views (no memo)."""
    nodes, stack = {}, [node]
    while stack:
        node = stack.pop()
        if node.var >= 0 and node._index not in nodes:
            nodes[node._index] = node
            stack.extend(edge.node for edge in node.edges)
    return nodes


def _views_below(node):
    """Every distinct non-terminal view below ``node``: the dense DD, whose
    identity views share their stored child's index."""
    seen, stack = set(), [node]
    while stack:
        node = stack.pop()
        if node.var >= 0 and node not in seen:
            seen.add(node)
            stack.extend(edge.node for edge in node.edges)
    return seen


class TestNodeCountMemo:
    """``node_count`` memoizes per node index; the memo must equal a fresh
    walk at every step, forget recycled slots, and spare warm re-runs."""

    @pytest.mark.parametrize("seed", range(4))
    def test_counts_equal_a_walk_at_every_step(self, seed):
        circuit = library.random_circuit(5, 40, seed=seed)
        simulator = DDSimulator(circuit, seed=seed)
        package = simulator.package
        product = package.identity(5)
        while not simulator.at_end:
            record = simulator.step_forward()
            assert record.node_count == len(_reachable(simulator.state.node))
            product = package.multiply(gate_to_dd(package, record.operation, 5), product)
            assert package.node_count(product) == len(_views_below(product.node))

    def test_recycled_index_reports_its_new_count(self):
        rng = np.random.default_rng(7)
        package = DDPackage()
        engine = package._pooled
        garbage = [package.from_state_vector(TestViewEdgeMemo._random_state(rng, 5)) for _ in range(4)]
        for state in garbage:
            for index in _reachable(state.node):
                engine.count_nodes(VECTOR, index)
        stale = set(engine._counts[VECTOR])
        del garbage, state
        gc.collect()
        package.gc(force=True)
        assert len(engine.vpool.free_list) >= len(stale)
        fresh_indices = set()
        fresh = [package.from_state_vector(TestViewEdgeMemo._random_state(rng, 3)) for _ in range(12)]
        for state in fresh:
            for index, node in _reachable(state.node).items():
                assert engine.count_nodes(VECTOR, index) == len(_reachable(node))
                fresh_indices.add(index)
        assert fresh_indices & stale  # some slots were recycled

    def test_warm_rerun_never_walks(self, monkeypatch):
        circuit = library.random_circuit(6, 60, seed=11)
        package = DDPackage()
        first = DDSimulator(circuit, package=package, seed=0).run_all()
        walks = []
        monkeypatch.setattr(package._pooled, "_count_reachable",
                            lambda *args: walks.append(args))
        second = DDSimulator(circuit, package=package, seed=0).run_all()
        assert walks == []
        assert [r.node_count for r in second] == [r.node_count for r in first]
