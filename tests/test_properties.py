"""Property-based tests (hypothesis) for the core invariants.

These exercise the DD package against dense linear algebra on randomized
inputs: canonicity, roundtrips, linearity, unitarity, probability laws.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.dd import DDPackage, NormalizationScheme
from repro.dd import sampling
from repro.qc import QuantumCircuit, library
from repro.qc.dd_builder import circuit_to_dd
from repro.simulation import DDSimulator, StatevectorSimulator, build_unitary
from repro.verification import check_equivalence_construct

# Bounded sizes keep dense references tractable.
_num_qubits = st.integers(min_value=1, max_value=4)


@st.composite
def state_vectors(draw, max_qubits: int = 4):
    n = draw(st.integers(min_value=1, max_value=max_qubits))
    size = 1 << n
    elements = st.tuples(
        st.floats(-1.0, 1.0, allow_nan=False), st.floats(-1.0, 1.0, allow_nan=False)
    )
    raw = draw(
        st.lists(elements, min_size=size, max_size=size).filter(
            lambda values: sum(re * re + im * im for re, im in values) > 1e-6
        )
    )
    vector = np.array([complex(re, im) for re, im in raw])
    return vector / np.linalg.norm(vector)


@st.composite
def unitaries(draw, max_qubits: int = 3):
    n = draw(st.integers(min_value=1, max_value=max_qubits))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    size = 1 << n
    matrix = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    q, r = np.linalg.qr(matrix)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@st.composite
def random_circuits(draw, max_qubits: int = 4, max_depth: int = 25):
    n = draw(st.integers(min_value=1, max_value=max_qubits))
    depth = draw(st.integers(min_value=0, max_value=max_depth))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return library.random_circuit(n, depth, seed=seed)


# The first build snaps the low node's weight 1/sqrt(1 + 1e-10) to the
# seeded 1.0 and then mints the root's 1 - 1e-10, which lies nearer to it;
# a nearest-representative search would hand the second build that newer
# value and so a different node.
_SNAP_BETWEEN_REPRESENTATIVES = np.array([1j, 1e-5j, 1e-5j, 1e-5j]) / np.sqrt(1 + 3e-10)


class TestVectorRoundtrips:
    @given(vector=state_vectors())
    @settings(max_examples=60, deadline=None)
    def test_from_to_vector_roundtrip(self, vector):
        package = DDPackage()
        state = package.from_state_vector(vector)
        assert np.allclose(package.to_vector(state, int(math.log2(len(vector)))),
                           vector, atol=1e-9)

    @given(vector=state_vectors())
    @example(vector=_SNAP_BETWEEN_REPRESENTATIVES)
    @settings(max_examples=60, deadline=None)
    def test_canonicity(self, vector):
        """Same vector built twice -> the very same root node."""
        package = DDPackage()
        a = package.from_state_vector(vector)
        b = package.from_state_vector(vector.copy())
        assert a.node is b.node
        assert a.weight == b.weight

    @given(vector=state_vectors())
    @settings(max_examples=40, deadline=None)
    def test_both_schemes_represent_the_same_vector(self, vector):
        n = int(math.log2(len(vector)))
        for scheme in NormalizationScheme:
            package = DDPackage(vector_scheme=scheme)
            state = package.from_state_vector(vector)
            assert np.allclose(package.to_vector(state, n), vector, atol=1e-9)

    @given(vector=state_vectors())
    @settings(max_examples=40, deadline=None)
    def test_amplitudes_match_paths(self, vector):
        package = DDPackage()
        n = int(math.log2(len(vector)))
        state = package.from_state_vector(vector)
        for index in range(len(vector)):
            assert abs(package.amplitude(state, index, n) - vector[index]) < 1e-9


class TestLinearAlgebraLaws:
    @given(matrix=unitaries(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_multiply_matches_numpy(self, matrix, seed):
        package = DDPackage()
        n = int(math.log2(matrix.shape[0]))
        rng = np.random.default_rng(seed)
        vector = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        vector /= np.linalg.norm(vector)
        result = package.multiply(
            package.from_matrix(matrix), package.from_state_vector(vector)
        )
        assert np.allclose(package.to_vector(result, n), matrix @ vector, atol=1e-9)

    @given(matrix=unitaries())
    @settings(max_examples=40, deadline=None)
    def test_unitary_times_adjoint_is_identity(self, matrix):
        package = DDPackage()
        n = int(math.log2(matrix.shape[0]))
        operation = package.from_matrix(matrix)
        product = package.multiply(operation, package.adjoint(operation))
        identity = package.identity(n)
        assert product.node is identity.node

    @given(vector=state_vectors(max_qubits=3), scale_re=st.floats(-2, 2),
           scale_im=st.floats(-2, 2))
    @settings(max_examples=40, deadline=None)
    def test_add_scaled_self(self, vector, scale_re, scale_im):
        scale = complex(scale_re, scale_im)
        package = DDPackage()
        n = int(math.log2(len(vector)))
        state = package.from_state_vector(vector)
        scaled = state.scaled(package.complex_table.lookup(scale), package.complex_table)
        total = package.add(state, scaled)
        assert np.allclose(
            package.to_vector(total, n) if not total.is_zero else np.zeros(1 << n),
            vector * (1 + scale),
            atol=1e-8,
        )

    @given(a=unitaries(max_qubits=2), b=unitaries(max_qubits=2))
    @settings(max_examples=30, deadline=None)
    def test_kron_matches_numpy(self, a, b):
        package = DDPackage()
        na = int(math.log2(a.shape[0]))
        nb = int(math.log2(b.shape[0]))
        result = package.kron(package.from_matrix(a), package.from_matrix(b))
        assert np.allclose(
            package.to_matrix(result, na + nb), np.kron(a, b), atol=1e-9
        )


class TestProbabilityLaws:
    @given(vector=state_vectors())
    @settings(max_examples=40, deadline=None)
    def test_probabilities_sum_to_one(self, vector):
        package = DDPackage()
        n = int(math.log2(len(vector)))
        state = package.from_state_vector(vector)
        for qubit in range(n):
            p0, p1 = sampling.qubit_probabilities(package, state, qubit)
            assert abs(p0 + p1 - 1.0) < 1e-9
            assert p0 >= 0.0 and p1 >= 0.0

    @given(vector=state_vectors(max_qubits=3), qubit_seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_collapse_preserves_conditional_distribution(self, vector, qubit_seed):
        package = DDPackage()
        n = int(math.log2(len(vector)))
        qubit = qubit_seed % n
        state = package.from_state_vector(vector)
        p0, p1 = sampling.qubit_probabilities(package, state, qubit)
        outcome = 0 if p0 >= p1 else 1
        __, probability, collapsed = sampling.measure_qubit(
            package, state, qubit, outcome=outcome
        )
        dense = package.to_vector(collapsed, n)
        mask = 1 << qubit
        expected = np.array([
            vector[i] if bool(i & mask) == bool(outcome) else 0.0
            for i in range(len(vector))
        ]) / math.sqrt(probability)
        # Equality up to nothing - the projector approach is exact.
        assert np.allclose(dense, expected, atol=1e-8)


class TestCircuitLevelProperties:
    @given(circuit=random_circuits())
    @settings(max_examples=25, deadline=None)
    def test_dd_simulation_matches_dense(self, circuit):
        dd = DDSimulator(circuit)
        dd.run_all()
        dense = StatevectorSimulator(circuit)
        dense.run()
        assert np.allclose(dd.statevector(), dense.state, atol=1e-8)

    @given(circuit=random_circuits(max_qubits=3, max_depth=15))
    @settings(max_examples=20, deadline=None)
    def test_circuit_functionality_matches_dense(self, circuit):
        package = DDPackage()
        functionality = circuit_to_dd(package, circuit)
        assert np.allclose(
            package.to_matrix(functionality, circuit.num_qubits),
            build_unitary(circuit),
            atol=1e-8,
        )

    @given(circuit=random_circuits(max_qubits=3, max_depth=12))
    @settings(max_examples=20, deadline=None)
    def test_circuit_equivalent_to_itself_and_double_inverse(self, circuit):
        result = check_equivalence_construct(circuit, circuit.inverse().inverse())
        assert result.equivalent

    @given(circuit=random_circuits(max_qubits=3, max_depth=12))
    @settings(max_examples=20, deadline=None)
    def test_inverse_concatenation_is_identity(self, circuit):
        package = DDPackage()
        combined = circuit.compose(circuit.inverse())
        functionality = circuit_to_dd(package, combined)
        identity = package.identity(circuit.num_qubits)
        assert functionality.node is identity.node

    @given(circuit=random_circuits(max_qubits=4, max_depth=20))
    @settings(max_examples=20, deadline=None)
    def test_qasm_roundtrip_preserves_functionality(self, circuit):
        from repro.qc.qasm import parse_qasm

        reparsed = parse_qasm(circuit.to_qasm())
        assert np.allclose(
            build_unitary(reparsed), build_unitary(circuit), atol=1e-9
        )
