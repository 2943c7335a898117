"""Unit tests for measurement, sampling and reset (paper Sec. III-B/IV-B)."""

import gc
import math

import numpy as np
import pytest

from repro.dd import DDPackage, NormalizationScheme
from repro.dd import sampling
from repro.dd.edge import ONE_EDGE, ZERO_EDGE, Edge
from repro.dd.node import TERMINAL
from repro.errors import DDError, InvalidStateError
from repro.qc import library
from repro.simulation.simulator import DDSimulator

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _bell(package):
    return package.from_state_vector([INV_SQRT2, 0.0, 0.0, INV_SQRT2])


class TestProbabilities:
    def test_bell_is_fifty_fifty(self, package):
        """Paper Ex. 2: measuring one qubit of the Bell state yields |0>
        in 50% of the cases."""
        state = _bell(package)
        for qubit in (0, 1):
            p0, p1 = sampling.qubit_probabilities(package, state, qubit)
            assert abs(p0 - 0.5) < 1e-12
            assert abs(p1 - 0.5) < 1e-12

    def test_basis_state_deterministic(self, package):
        state = package.basis_state(3, "101")
        assert sampling.qubit_probabilities(package, state, 0) == (0.0, 1.0)
        assert sampling.qubit_probabilities(package, state, 1) == (1.0, 0.0)
        assert sampling.qubit_probabilities(package, state, 2) == (0.0, 1.0)

    def test_matches_dense_computation(self, package, rng):
        from tests.conftest import random_state

        vector = random_state(3, rng)
        state = package.from_state_vector(vector)
        for qubit in range(3):
            mask = 1 << qubit
            expected_p1 = sum(
                abs(vector[i]) ** 2 for i in range(8) if i & mask
            )
            p0, p1 = sampling.qubit_probabilities(package, state, qubit)
            assert abs(p1 - expected_p1) < 1e-9

    def test_qubit_out_of_range(self, package):
        with pytest.raises(DDError):
            sampling.qubit_probabilities(package, package.zero_state(2), 2)

    def test_branch_probabilities_is_root_qubit(self, package):
        state = _bell(package)
        assert sampling.branch_probabilities(package, state) == (0.5, 0.5)

    def test_measurement_creates_no_node_views(self, rng):
        """The probabilities read the pool arrays, so the measured state's
        diagram gets no node views that its root would then keep alive."""
        from tests.conftest import random_state

        package = DDPackage(sanitize_every=0)
        state = package.from_state_vector(random_state(6, rng))
        views = package._pooled._views[0]
        gc.collect()
        before = len(views)
        for qubit in range(6):
            sampling.qubit_probabilities(package, state, qubit)
        gc.collect()
        assert len(views) == before

    def test_works_with_max_normalization(self, max_package):
        state = _bell(max_package)
        p0, p1 = sampling.qubit_probabilities(max_package, state, 0)
        assert abs(p0 - 0.5) < 1e-12


class TestSample:
    def test_bell_only_00_and_11(self, package, rng):
        state = _bell(package)
        for _ in range(50):
            outcome = sampling.sample(package, state, rng)
            assert outcome in ("00", "11")

    def test_big_endian_order(self, package, rng):
        state = package.basis_state(3, "110")
        assert sampling.sample(package, state, rng) == "110"

    def test_counts_match_distribution(self, package):
        state = package.from_state_vector([math.sqrt(0.9), 0.0, 0.0, math.sqrt(0.1)])
        counts = sampling.sample_counts(
            package, state, 2000, np.random.default_rng(7)
        )
        assert set(counts) <= {"00", "11"}
        assert abs(counts.get("00", 0) / 2000 - 0.9) < 0.05

    def test_sampling_is_nondestructive(self, package, rng):
        """Paper Sec. III-B: repeated measurement of the same DD."""
        state = _bell(package)
        before = package.to_vector(state, 2).copy()
        sampling.sample_counts(package, state, 10, rng)
        assert np.allclose(package.to_vector(state, 2), before)

    def test_max_scheme_sampling(self, max_package, rng):
        state = _bell(max_package)
        for _ in range(20):
            assert sampling.sample(max_package, state, rng) in ("00", "11")

    def test_invalid_shots(self, package, rng):
        # The shots check comes first, even for the zero vector.
        for shots in (0, -1):
            for state in (_bell(package), ZERO_EDGE):
                with pytest.raises(DDError):
                    sampling.sample_counts(package, state, shots, rng)

    def test_zero_vector_rejected(self, package, rng):
        with pytest.raises(InvalidStateError):
            sampling.sample(package, ZERO_EDGE, rng)
        with pytest.raises(InvalidStateError):
            sampling.sample_counts(package, ZERO_EDGE, 5, rng)


def _subtree_norms(edge, cache):
    """Squared norm of the sub-vector represented by ``edge`` (view walk)."""
    if edge.is_zero:
        return 0.0
    if edge.node.is_terminal:
        return abs(edge.weight) ** 2
    node_norm = cache.get(edge.node)
    if node_norm is None:
        node_norm = sum(_subtree_norms(child, cache) for child in edge.node.edges)
        cache[edge.node] = node_norm
    return abs(edge.weight) ** 2 * node_norm


def _reference_sample(package, state, rng, cache):
    """One shot by the per-shot view walk: two ``Edge`` views per level."""
    if state.is_zero:
        raise InvalidStateError("cannot sample from the zero vector")
    local = package.vector_scheme is NormalizationScheme.L2
    num_qubits = 0 if state.node.is_terminal else state.node.var + 1
    bits = [0] * num_qubits
    edge = state
    while not edge.node.is_terminal:
        zero_child, one_child = edge.node.edges
        if local:
            p0 = abs(zero_child.weight) ** 2
        else:
            mass0 = _subtree_norms(zero_child, cache)
            mass1 = _subtree_norms(one_child, cache)
            p0 = mass0 / (mass0 + mass1)
        outcome = 0 if rng.random() < p0 else 1
        bits[num_qubits - 1 - edge.node.var] = outcome
        edge = edge.node.edges[outcome]
    return "".join(str(bit) for bit in bits)


def _reference_counts(package, state, shots, rng):
    counts = {}
    cache = {}
    for _ in range(shots):
        outcome = _reference_sample(package, state, rng, cache)
        counts[outcome] = counts.get(outcome, 0) + 1
    return counts


def _assert_matches_reference(package, state, seeds=(0, 1, 2)):
    for seed in seeds:
        for shots in (1, 2, 1024):
            got_rng = np.random.default_rng(seed)
            want_rng = np.random.default_rng(seed)
            got = sampling.sample_counts(package, state, shots, got_rng)
            want = _reference_counts(package, state, shots, want_rng)
            assert got == want, (seed, shots)
            assert list(got) == list(want), (seed, shots)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


_PACKAGES = {
    "l2": lambda: DDPackage(),
    "max": lambda: DDPackage(vector_scheme=NormalizationScheme.MAX_MAGNITUDE),
}

_CIRCUITS = {
    "bell": lambda: (library.bell_pair(), None),
    "ghz16": lambda: (library.ghz_state(16), None),
    "qft14": lambda: (library.qft(14), "10110011100101"),
    "random10": lambda: (library.random_circuit(10, 100, seed=3), None),
}


def _final_state(package, name):
    circuit, basis = _CIRCUITS[name]()
    initial = None
    if basis is not None:
        initial = package.basis_state(circuit.num_qubits, basis)
    simulator = DDSimulator(circuit, package=package, initial_state=initial)
    simulator.run_all()
    return simulator.state


class TestCountsMatchReferenceWalk:
    """``sample_counts`` returns exactly the per-shot view walk's dict, in
    the same key order, and leaves the generator in the same state."""

    @pytest.mark.parametrize("circuit", sorted(_CIRCUITS))
    @pytest.mark.parametrize("make", sorted(_PACKAGES))
    def test_circuit_states(self, make, circuit):
        package = _PACKAGES[make]()
        _assert_matches_reference(package, _final_state(package, circuit))

    @pytest.mark.parametrize("root", [ONE_EDGE, Edge(TERMINAL, 0.5j)])
    def test_zero_qubit_state(self, package, root):
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        assert sampling.sample_counts(package, root, 3, rng) == {"": 3}
        assert rng.bit_generator.state == before
        _assert_matches_reference(package, root)


class _ExtremeRng:
    """Every draw is the same value: the smallest or the largest float a
    uniform ``[0, 1)`` generator can return."""

    def __init__(self, value):
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


@pytest.mark.parametrize("draw", [0.0, 1.0 - 2.0 ** -53])
@pytest.mark.parametrize(
    "scheme", [NormalizationScheme.L2, NormalizationScheme.MAX_MAGNITUDE]
)
def test_walk_never_takes_a_zero_weight_successor(scheme, draw):
    package = DDPackage(vector_scheme=scheme)
    cases = [
        (package.from_state_vector([0.6, 0.0, 0.0, 0.8]), {"00", "11"}),
        (
            package.from_state_vector([0.0, 0.6, 0.8j, 0.0, 0.0, 0.0, 0.0, 0.0]),
            {"001", "010"},
        ),
        (package.basis_state(4, "1010"), {"1010"}),
        (_final_state(package, "ghz16"), {"0" * 16, "1" * 16}),
    ]
    for state, support in cases:
        counts = sampling.sample_counts(package, state, 4, _ExtremeRng(draw))
        assert set(counts) <= support


class TestMeasureCollapse:
    def test_forced_outcome_one(self, package):
        """Paper Ex. 13 / Fig. 8: measuring q0 of the Bell state as |1>
        leaves |11> due to entanglement."""
        state = _bell(package)
        outcome, probability, collapsed = sampling.measure_qubit(
            package, state, 0, outcome=1
        )
        assert outcome == 1
        assert abs(probability - 0.5) < 1e-12
        assert np.allclose(package.to_vector(collapsed, 2), [0, 0, 0, 1])

    def test_forced_outcome_zero(self, package):
        state = _bell(package)
        __, __, collapsed = sampling.measure_qubit(package, state, 0, outcome=0)
        assert np.allclose(package.to_vector(collapsed, 2), [1, 0, 0, 0])

    def test_collapsed_state_is_normalized(self, package, rng):
        from tests.conftest import random_state

        state = package.from_state_vector(random_state(3, rng))
        __, __, collapsed = sampling.measure_qubit(package, state, 1, outcome=0)
        assert abs(package.norm_squared(collapsed) - 1.0) < 1e-9

    def test_impossible_outcome_rejected(self, package):
        state = package.zero_state(2)
        with pytest.raises(InvalidStateError):
            sampling.measure_qubit(package, state, 0, outcome=1)

    def test_invalid_outcome_value(self, package):
        with pytest.raises(DDError):
            sampling.measure_qubit(package, _bell(package), 0, outcome=2)

    def test_random_outcome_uses_rng(self, package):
        state = _bell(package)
        outcomes = {
            sampling.measure_qubit(package, state, 0, rng=np.random.default_rng(s))[0]
            for s in range(20)
        }
        assert outcomes == {0, 1}

    def test_superposition_partially_preserved(self, package):
        """Measuring an unentangled qubit leaves the rest untouched."""
        # |+>|+> - measure q0, q1 stays in |+>.
        state = package.from_state_vector([0.5, 0.5, 0.5, 0.5])
        __, __, collapsed = sampling.measure_qubit(package, state, 0, outcome=0)
        assert np.allclose(
            package.to_vector(collapsed, 2), [INV_SQRT2, 0.0, INV_SQRT2, 0.0]
        )


class TestReset:
    def test_reset_moves_branch_to_zero(self, package):
        """Paper Sec. IV-B: the remaining branch becomes the |0> branch."""
        state = _bell(package)
        observed, probability, result = sampling.reset_qubit(
            package, state, 0, outcome=1
        )
        assert observed == 1
        # q0 reset to |0>; q1 keeps the value correlated with outcome 1.
        assert np.allclose(package.to_vector(result, 2), [0, 0, 1, 0])

    def test_reset_on_zero_is_noop(self, package):
        state = package.zero_state(2)
        observed, probability, result = sampling.reset_qubit(package, state, 0)
        assert observed == 0
        assert probability == 1.0
        assert result.node is state.node

    def test_reset_probabilities(self, package):
        state = package.from_state_vector([0.6, 0.8, 0.0, 0.0])
        observed, probability, result = sampling.reset_qubit(
            package, state, 0, outcome=1
        )
        assert abs(probability - 0.64) < 1e-12
        assert np.allclose(package.to_vector(result, 2), [1, 0, 0, 0])
