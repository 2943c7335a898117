"""Property-based invariants of the direct gate-application kernels.

* applying a unitary preserves the state's L2 norm;
* applying ``U`` then ``U†`` returns the *identical* root edge
  (canonicity: same node object via the unique table);
* the diagonal shortcut produces exactly the same edge as the generic
  kernel formula;
* the kernel path's unique/compute-table footprint never exceeds that of
  multiplying one full-system gate DD per gate onto the state;
* ``clear_caches`` drops the apply table (and ``stats`` reports it), and
  a cleared package replays a circuit to the identical root edge;
* every applied gate counts once in the kernel metrics, on a vector and
  on a matrix operand alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dd.apply import KERNEL_NAMES, apply_controlled
from repro.dd.package import DDPackage
from repro.dd.pooled import PooledApplyKernel
from repro.obs.metrics import MetricsRegistry
from repro.qc import library
from repro.qc.dd_builder import apply_gate, gate_to_dd
from repro.qc.operations import GateOp
from repro.simulation.simulator import DDSimulator
from repro.verification.alternating import _Engine

from tests.test_differential_apply import random_mixed_circuit


def _random_state(package: DDPackage, num_qubits: int, rng: np.random.Generator):
    amplitudes = rng.normal(size=1 << num_qubits) + 1j * rng.normal(
        size=1 << num_qubits
    )
    amplitudes /= np.linalg.norm(amplitudes)
    return package.from_state_vector(amplitudes)


_UNITARY_OPS = [
    GateOp(gate="h", targets=(2,)),
    GateOp(gate="t", targets=(0,)),
    GateOp(gate="u3", params=(0.37, 1.2, -0.8), targets=(1,)),
    GateOp(gate="x", targets=(1,), controls=(3,), negative_controls=(0,)),
    GateOp(gate="p", params=(0.9,), targets=(3,), controls=(0, 2)),
    GateOp(gate="swap", targets=(3, 1)),
    GateOp(gate="swap", targets=(2, 0), controls=(3,)),
    GateOp(gate="iswap", targets=(2, 1)),
    GateOp(gate="iswapdg", targets=(3, 0)),
]


@pytest.mark.parametrize("operation", _UNITARY_OPS, ids=lambda op: repr(op)[:40])
def test_apply_preserves_norm(operation):
    package = DDPackage()
    rng = np.random.default_rng(11)
    state = _random_state(package, 4, rng)
    applied = apply_gate(package, state, operation)
    assert package.norm_squared(applied) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("operation", _UNITARY_OPS, ids=lambda op: repr(op)[:40])
def test_apply_then_inverse_is_identity_on_the_dd(operation):
    package = DDPackage()
    rng = np.random.default_rng(23)
    state = _random_state(package, 4, rng)
    applied = apply_gate(package, state, operation)
    returned = apply_gate(package, applied, operation.inverse())
    # Canonicity: the round trip lands on the very same node object.
    assert returned.node is state.node
    assert package.complex_table.approx_equal(returned.weight, state.weight)


class _ForcedGenericKernel(PooledApplyKernel):
    """The generic target-level formula with the shortcuts disabled."""

    def __init__(self, package, *args):
        super().__init__(package, *args)
        # Separate the cache namespace so the comparison is not answered
        # from the shortcut kernel's own cached results.
        self.op_id = package._pooled.gate_id(("generic-test", self.op_id))

    def _apply_target(self, pair):
        u00, u01, u10, u11 = self.u_val
        c0, c1 = pair
        add, scale, kind = self.engine.add, self.engine.scale, self.kind
        return (
            add(kind, scale(c0, u00), scale(c1, u01)),
            add(kind, scale(c0, u10), scale(c1, u11)),
        )


@pytest.mark.parametrize("gate_name", ["z", "s", "sdg", "t", "tdg"])
def test_diagonal_shortcut_equals_generic_kernel(gate_name):
    package = DDPackage()
    rng = np.random.default_rng(5)
    state = _random_state(package, 3, rng)
    matrix = GateOp(gate=gate_name, targets=(1,)).matrix()
    shortcut = apply_controlled(package, state, matrix, 1)
    generic = _ForcedGenericKernel(package, "v", matrix, 1, {})
    reference = generic.run(state)
    assert shortcut.node is reference.node
    assert shortcut.weight == reference.weight


@pytest.mark.parametrize("gate_name", ["x", "y"])
def test_antidiagonal_shortcut_equals_generic_kernel(gate_name):
    package = DDPackage()
    rng = np.random.default_rng(6)
    state = _random_state(package, 3, rng)
    matrix = GateOp(gate=gate_name, targets=(2,)).matrix()
    shortcut = apply_controlled(package, state, matrix, 2)
    generic = _ForcedGenericKernel(package, "v", matrix, 2, {})
    reference = generic.run(state)
    assert shortcut.node is reference.node
    assert shortcut.weight == reference.weight


def _table_footprint(package: DDPackage):
    unique = len(package._vector_unique) + len(package._matrix_unique)
    compute = sum(len(table) for table in package._compute_tables())
    return unique, compute


def _allocations(package: DDPackage) -> int:
    return package._vector_unique.misses + package._matrix_unique.misses


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_kernel_tables_never_exceed_gate_dd_products(seed):
    rng = np.random.default_rng(seed)
    num_qubits = int(rng.integers(2, 6))
    circuit = random_mixed_circuit(num_qubits, 20, rng)

    kernel_sim = DDSimulator(circuit)
    kernel_sim.run_all()
    # One full-system gate DD per gate, multiplied onto the state (Fig. 4).
    matrix_package = DDPackage()
    state = matrix_package.zero_state(num_qubits)
    for operation in circuit:
        gate = gate_to_dd(matrix_package, operation, num_qubits)
        state = matrix_package.multiply(gate, state)

    kernel_unique, kernel_compute = _table_footprint(kernel_sim.package)
    matrix_unique, matrix_compute = _table_footprint(matrix_package)
    assert kernel_unique <= matrix_unique
    assert kernel_compute <= matrix_compute
    # The kernel path allocates strictly fewer nodes overall: it never
    # creates matrix nodes.
    assert kernel_sim.package._matrix_unique.misses == 0
    assert _allocations(kernel_sim.package) < _allocations(matrix_package)


def test_clear_caches_drops_apply_table_and_stats_reports_it():
    package = DDPackage()
    state = package.zero_state(3)
    circuit = library.qft(3)
    for operation in circuit:
        state = apply_gate(package, state, operation)
    assert len(package._apply_cache) > 0
    stats = package.stats()
    assert "apply" in stats
    assert stats["apply"]["entries"] == len(package._apply_cache)
    assert stats["apply"]["misses"] > 0

    package.clear_caches()
    assert len(package._apply_cache) == 0
    assert package.stats()["apply"]["entries"] == 0


def test_cleared_package_replays_to_identical_root_edge():
    package = DDPackage()
    circuit = library.qft_compiled(3)

    def run():
        state = package.zero_state(3)
        for operation in circuit:
            if isinstance(operation, GateOp):
                state = apply_gate(package, state, operation)
        return state

    first = run()
    package.clear_caches()
    replayed = run()
    assert replayed.node is first.node
    assert replayed.weight == first.weight


_COUNTED_OPS = [
    (GateOp(gate="swap", targets=(2, 0)), "swap"),
    (GateOp(gate="swap", targets=(2, 1), controls=(0,)), "swap"),
    (GateOp(gate="iswap", targets=(2, 1)), "swap"),
    (GateOp(gate="iswapdg", targets=(1, 0)), "swap"),
    (GateOp(gate="h", targets=(1,)), "generic"),
    (GateOp(gate="t", targets=(0,)), "diagonal"),
    (GateOp(gate="x", targets=(2,)), "antidiagonal"),
    (GateOp(gate="x", targets=(0,), controls=(2,)), "controlled"),
]


def _kernel_counts(registry: MetricsRegistry):
    counts = {}
    for name in KERNEL_NAMES:
        counter = registry.get("dd_apply_total", {"kernel": name})
        timer = registry.get("dd_apply_seconds", {"kernel": name})
        counts[name] = (
            counter.value if counter is not None else 0,
            timer.count if timer is not None else 0,
        )
    return counts


@pytest.mark.parametrize("operand", ["vector", "matrix-left", "matrix-right"])
@pytest.mark.parametrize(
    "operation, kernel", _COUNTED_OPS, ids=[op.gate for op, _ in _COUNTED_OPS]
)
def test_each_gate_is_counted_once_under_its_kernel(operation, kernel, operand):
    """One applied gate adds exactly 1 to one ``dd_apply_total`` label and
    one observation to ``dd_apply_seconds``; a multi-stage gate (SWAP,
    Fredkin, iSWAP, iSWAP-dagger) counts under ``swap``."""
    registry = MetricsRegistry(enabled=True)
    package = DDPackage(registry=registry)
    state = package.zero_state(3)
    engine = _Engine(package, 3)
    before = _kernel_counts(registry)
    if operand == "vector":
        apply_gate(package, state, operation)
    elif operand == "matrix-left":
        engine.preview_left(operation)
    else:
        engine.preview_right(operation)
    expected = dict(before)
    expected[kernel] = (before[kernel][0] + 1, before[kernel][1] + 1)
    assert _kernel_counts(registry) == expected
