"""Direct apply kernels vs. gate-DD products.

For each workload the same circuit is simulated twice on fresh packages —
once through the direct gate-application kernels (:mod:`repro.dd.apply`),
once gate by gate as a full-system gate DD multiplied onto the state
(``state = multiply(gate_to_dd(...), state)``, paper Fig. 4) — and the
benchmark reports wall time, DD node allocations (unique-table misses)
and compute-table hit rates side by side.  The acceptance bar from the
earlier issue: on the 3-qubit QFT the kernel path allocates *strictly
fewer* DD nodes than the gate-DD products (it allocates no matrix nodes
at all).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import pytest

from repro.dd.package import DDPackage
from repro.qc import library
from repro.qc.dd_builder import gate_to_dd
from repro.qc.operations import BarrierOp
from repro.simulation.simulator import DDSimulator

REPEATS = 5


def _run_kernels(circuit, package: DDPackage):
    simulator = DDSimulator(circuit, package=package)
    simulator.run_all()
    return simulator.state, simulator.peak_node_count


def _run_gate_dds(circuit, package: DDPackage):
    num_qubits = circuit.num_qubits
    state = package.zero_state(num_qubits)
    peak = package.node_count(state)
    for operation in circuit:
        if isinstance(operation, BarrierOp):
            continue
        state = package.multiply(gate_to_dd(package, operation, num_qubits), state)
        peak = max(peak, package.node_count(state))
    return state, peak


def _run_path(circuit, kernels: bool) -> dict:
    run = _run_kernels if kernels else _run_gate_dds
    best = None
    for _ in range(REPEATS):
        package = DDPackage()
        start = perf_counter()
        state, peak = run(circuit, package)
        elapsed = perf_counter() - start
        if best is None or elapsed < best["seconds"]:
            stats = package.stats()
            cache = stats["apply" if kernels else "mult-mv"]
            best = {
                "seconds": elapsed,
                "final_nodes": package.node_count(state),
                "peak_nodes": peak,
                "vector_allocations": package._vector_unique.misses,
                "matrix_allocations": package._matrix_unique.misses,
                "allocations": (
                    package._vector_unique.misses + package._matrix_unique.misses
                ),
                "cache_hit_ratio": cache["hit_ratio"],
                "state": package.to_vector(state, circuit.num_qubits)
                if circuit.num_qubits <= 12
                else None,
            }
    return best


_WORKLOADS = [
    ("qft3", lambda: library.qft(3)),
    ("qft6", lambda: library.qft(6)),
    ("ghz12", lambda: library.ghz_state(12)),
    ("grover5", lambda: library.grover(5, 19)),
    ("random6x60", lambda: library.random_circuit(6, 60, seed=11)),
]


@pytest.mark.parametrize("name,factory", _WORKLOADS, ids=[w[0] for w in _WORKLOADS])
def test_apply_kernels_vs_gate_dd_products(name, factory, report):
    circuit = factory()
    kernel = _run_path(circuit, True)
    matrix = _run_path(circuit, False)

    if kernel["state"] is not None:
        assert np.abs(kernel["state"] - matrix["state"]).max() < 1e-10
    # The kernel path never builds an operation DD ...
    assert kernel["matrix_allocations"] == 0
    # ... so it allocates strictly fewer nodes (the acceptance bar names
    # the 3-qubit QFT; it holds on every workload here).
    assert kernel["allocations"] < matrix["allocations"]
    # Both paths land on DDs of identical size.
    assert kernel["final_nodes"] == matrix["final_nodes"]

    speedup = matrix["seconds"] / kernel["seconds"] if kernel["seconds"] else 0.0
    report(
        f"apply_kernels_{name}",
        [
            f"{circuit.name}: {circuit.num_qubits} qubits, "
            f"{len(circuit)} operations",
            f"{'path':12s} {'seconds':>10s} {'allocs':>8s} "
            f"{'(vec+mat)':>12s} {'peak':>6s} {'cache hit':>10s}",
            f"{'kernels':12s} {kernel['seconds']:10.6f} "
            f"{kernel['allocations']:8d} "
            f"{kernel['vector_allocations']:5d}+{kernel['matrix_allocations']:<5d} "
            f"{kernel['peak_nodes']:6d} {kernel['cache_hit_ratio']:10.3f}",
            f"{'matrix':12s} {matrix['seconds']:10.6f} "
            f"{matrix['allocations']:8d} "
            f"{matrix['vector_allocations']:5d}+{matrix['matrix_allocations']:<5d} "
            f"{matrix['peak_nodes']:6d} {matrix['cache_hit_ratio']:10.3f}",
            f"speedup: {speedup:.2f}x   node-allocation ratio: "
            f"{matrix['allocations'] / max(kernel['allocations'], 1):.2f}x",
        ],
    )


def test_qft3_allocation_acceptance(report):
    """The acceptance criterion, stated on its own: kernel path strictly
    fewer DD node allocations than the gate-DD products on QFT(3)."""
    kernel = _run_path(library.qft(3), True)
    matrix = _run_path(library.qft(3), False)
    assert kernel["allocations"] < matrix["allocations"]
    report(
        "apply_kernels_qft3_acceptance",
        [
            f"QFT(3) node allocations: kernels={kernel['allocations']} "
            f"< matrix={matrix['allocations']}",
        ],
    )
