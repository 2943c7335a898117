"""Property tests for dynamic variable reordering (:mod:`repro.dd.reorder`).

The contract under test: reordering changes *how* a state is stored (the
level-to-qubit map plus the diagram structure), never *what* it stores.
Every adjacent swap and every full sift must preserve the statevector
bit-for-bit through the order-aware ``to_vector``, and must leave the
package in a state the full :class:`~repro.sanitizer.core.DDSanitizer`
sweep certifies clean.  Sifting additionally never increases the live
node count and is idempotent once it has settled at a local minimum.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dd.package import DDPackage
from repro.dd.reorder import swap_adjacent
from repro.qc import QuantumCircuit
from repro.qc.library import random_circuit
from repro.sanitizer.core import sanitize_package
from repro.simulation.simulator import DDSimulator

#: Exact-preservation bound: a reorder goes through the same normalizing
#: constructors and canonical weight table as the original build, so the
#: reconstructed amplitudes match to rounding noise, not merely 1e-10.
EXACT = 1e-12


def _random_state_package(num_qubits: int, seed: int):
    """A package holding one random (dense) state rooted via incref."""
    rng = np.random.default_rng(seed)
    vector = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    vector /= np.linalg.norm(vector)
    package = DDPackage(reorder="manual")
    state = package.incref(package.from_state_vector(vector))
    return package, state, vector


def _assert_clean(package, label: str) -> None:
    report = sanitize_package(package)
    assert not report.violations, f"{label}: sanitizer found {report.violations}"


@pytest.mark.parametrize("seed", range(5))
def test_every_adjacent_swap_preserves_the_statevector(seed):
    num_qubits = 4
    package, state, vector = _random_state_package(num_qubits, seed)
    # Walk a pseudo-random sequence of adjacent swaps; after each one the
    # order-aware readout must still produce the original amplitudes and
    # the full sanitizer sweep must pass (order map, normalization,
    # unique-table and pool integrity).
    rng = np.random.default_rng(1000 + seed)
    for step in range(12):
        level = int(rng.integers(num_qubits - 1))
        swap_adjacent(package, level)
        state = package._resolve(state)
        got = package.to_vector(state, num_qubits)
        assert np.abs(got - vector).max() < EXACT, (
            f"swap {step} at level {level} changed the state "
            f"(order {package.qubit_order})"
        )
        _assert_clean(package, f"after swap {step} at level {level}")
    assert sorted(package.qubit_order) == list(range(num_qubits))


def test_swap_adjacent_is_its_own_inverse():
    package, state, vector = _random_state_package(3, seed=7)
    order_before = package.qubit_order or [0, 1, 2]
    swap_adjacent(package, 1)
    swap_adjacent(package, 1)
    state = package._resolve(state)
    assert package.qubit_order == order_before
    assert np.abs(package.to_vector(state, 3) - vector).max() < EXACT


@pytest.mark.parametrize("seed", range(8))
def test_sift_preserves_the_statevector_and_sanity(seed):
    circuit = random_circuit(4, 16, seed=seed)
    package = DDPackage(reorder="manual")
    simulator = DDSimulator(circuit, package=package)
    simulator.run_all()
    before = simulator.statevector()
    summary = package.reorder()
    after = simulator.statevector()
    assert np.abs(after - before).max() < EXACT, (
        f"sift changed the state (order {summary['order']})"
    )
    _assert_clean(package, f"after sift (seed {seed})")


@pytest.mark.parametrize("seed", range(8))
def test_sift_never_increases_the_node_count(seed):
    circuit = random_circuit(5, 20, seed=100 + seed)
    package = DDPackage(reorder="manual")
    simulator = DDSimulator(circuit, package=package)
    simulator.run_all()
    summary = package.reorder()
    assert summary["nodes_after"] <= summary["nodes_before"], summary


def test_sifting_is_idempotent_at_a_local_minimum():
    # Blocked bell pairs: partners n/2 apart, exponential under the static
    # order, linear once sifting moves partners adjacent.  After the first
    # sift the diagram sits at a local minimum, so a second sift must keep
    # both the order and the node count (ties settle at the original
    # position by construction).
    num_qubits = 6
    circuit = QuantumCircuit(num_qubits)
    half = num_qubits // 2
    for index in range(half):
        circuit.h(index + half)
        circuit.cx(index + half, index)
    package = DDPackage(reorder="manual")
    simulator = DDSimulator(circuit, package=package)
    simulator.run_all()
    reference = simulator.statevector()

    first = package.reorder()
    assert first["nodes_after"] < first["nodes_before"], (
        "sifting should compact blocked bell pairs"
    )
    second = package.reorder()
    assert second["order"] == first["order"], (
        "second sift moved variables away from the settled local minimum"
    )
    assert second["nodes_after"] == first["nodes_after"]
    assert np.abs(simulator.statevector() - reference).max() < EXACT
    _assert_clean(package, "after repeated sifts")


def test_sift_preserves_matrix_roots_under_identity_skipping():
    # A controlled gate whose stored DD skips identity levels: the sift
    # walks its dense views (identity nodes for the skipped levels) and
    # must reproduce the same operator.
    num_qubits = 3
    package = DDPackage(reorder="manual")
    gate = package.incref(
        package.controlled_gate(num_qubits, [[0, 1], [1, 0]], 0, controls=(2,))
    )
    before = package.to_matrix(gate, num_qubits)
    package.reorder()
    gate = package._resolve(gate)
    after = package.to_matrix(gate, num_qubits)
    assert np.abs(after - before).max() < EXACT
    _assert_clean(package, "after sifting a skipping matrix root")


def test_fresh_package_load_adopts_a_reordered_document():
    # A document serialized under a sifted order loads into a *fresh*
    # package (which adopts the order), but a package already holding a
    # live root under a different order must refuse it.
    from repro.dd import serialize

    package, state, vector = _random_state_package(3, seed=11)
    swap_adjacent(package, 0)
    swap_adjacent(package, 1)
    data = serialize.dd_to_dict(package, package._resolve(state))

    fresh = DDPackage()
    loaded = fresh.incref(serialize.dd_from_dict(fresh, data))
    assert fresh.qubit_order == package.qubit_order
    assert np.abs(fresh.to_vector(loaded, 3) - vector).max() < EXACT

    busy = DDPackage()
    # The binding matters: roots are tracked weakly, so an unreferenced
    # edge dies immediately and the package would count as fresh again.
    keep = busy.incref(busy.from_state_vector(np.array([1.0, 0.0])))
    with pytest.raises(Exception, match="does not match"):
        serialize.dd_from_dict(busy, data)
    assert keep is not None


def test_stale_edges_resolve_after_multiple_reorders():
    # Edges captured before any reorder keep reading back correctly after
    # several reorders — including when a rebuilt diagram collides with
    # another stale root (two states that are qubit-permutations of each
    # other, the regression behind the unique-table retirement).
    num_qubits = 2
    package = DDPackage(reorder="manual")
    rng = np.random.default_rng(42)
    vector = rng.normal(size=4) + 1j * rng.normal(size=4)
    vector /= np.linalg.norm(vector)
    swapped = vector.reshape(2, 2).T.reshape(4).copy()
    state_a = package.incref(package.from_state_vector(vector))
    state_b = package.incref(package.from_state_vector(swapped))
    for _ in range(3):
        swap_adjacent(package, 0)
        # Resolution must be idempotent: resolving an already-current
        # edge returns it unchanged.
        resolved = package._resolve(state_a)
        assert package._resolve(resolved) == resolved
        assert np.abs(package.to_vector(state_a, 2) - vector).max() < EXACT
        assert np.abs(package.to_vector(state_b, 2) - swapped).max() < EXACT
        _assert_clean(package, "after colliding swap")
