"""Differential fuzzer: apply kernels vs. matrix-DD oracle vs. dense reference.

Every seeded random circuit (1-6 qubits; mixed single-qubit, controlled,
multi-controlled and two-qubit gates; no measurements) is executed three
ways:

* the direct apply kernels (the one gate-application path);
* the matrix-DD oracle: the circuit's functionality DD built from gate
  DDs (:func:`~repro.qc.dd_builder.circuit_to_dd`, paper Fig. 4)
  multiplied onto the zero state;
* the dense statevector simulator of :mod:`repro.simulation.statevector`,
  the independent numerical oracle.

All three must agree amplitude-by-amplitude to ``1e-10``.

The base seed rotates in CI (``DIFFERENTIAL_SEED`` environment variable,
derived from the run number and echoed into the log); locally it defaults
to 0 so the suite is reproducible.  To replay a CI failure::

    DIFFERENTIAL_SEED=<seed from the CI log> python -m pytest \
        tests/test_differential_apply.py -q
"""
from __future__ import annotations

import functools
import os

import numpy as np
import pytest

from repro.dd.package import DDPackage
from repro.qc.circuit import QuantumCircuit
from repro.qc.dd_builder import circuit_to_dd
from repro.qc.operations import GateOp
from repro.simulation.simulator import DDSimulator
from repro.simulation.statevector import StatevectorSimulator

TOLERANCE = 1e-10
NUM_CASES = 200

BASE_SEED = int(os.environ.get("DIFFERENTIAL_SEED", "0"))

_FIXED_1Q = ("x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg")
_PARAM_1Q = ("rx", "ry", "rz", "p", "u2", "u3")


def _random_gate_params(name: str, rng: np.random.Generator):
    count = {"u2": 2, "u3": 3}.get(name, 1)
    return tuple(float(angle) for angle in rng.uniform(0.0, 2.0 * np.pi, count))


def _random_single_gate(rng: np.random.Generator):
    if rng.random() < 0.5:
        return str(rng.choice(_FIXED_1Q)), ()
    name = str(rng.choice(_PARAM_1Q))
    return name, _random_gate_params(name, rng)


def _split_controls(lines, rng: np.random.Generator):
    """Partition control lines into positive and negative controls."""
    positive, negative = [], []
    for line in lines:
        (positive if rng.random() < 0.7 else negative).append(int(line))
    return tuple(positive), tuple(negative)


def random_mixed_circuit(
    num_qubits: int, depth: int, rng: np.random.Generator
) -> QuantumCircuit:
    """A random circuit exercising every kernel family.

    Mix (for ``num_qubits >= 2``): ~35% (multi-)controlled single-qubit
    gates with mixed control polarity, ~10% SWAP (sometimes Fredkin),
    ~5% iSWAP, rest plain single-qubit gates.
    """
    circuit = QuantumCircuit(num_qubits, name=f"fuzz_{num_qubits}x{depth}")
    for _ in range(depth):
        roll = rng.random()
        if num_qubits >= 2 and roll < 0.35:
            lines = rng.permutation(num_qubits)
            max_controls = min(3, num_qubits - 1)
            num_controls = int(rng.integers(1, max_controls + 1))
            target = int(lines[0])
            controls, negatives = _split_controls(lines[1 : 1 + num_controls], rng)
            name, params = _random_single_gate(rng)
            circuit.append(
                GateOp(
                    gate=name,
                    params=params,
                    targets=(target,),
                    controls=controls,
                    negative_controls=negatives,
                )
            )
        elif num_qubits >= 2 and roll < 0.45:
            lines = rng.permutation(num_qubits)
            a, b = sorted((int(lines[0]), int(lines[1])), reverse=True)
            if num_qubits >= 3 and rng.random() < 0.4:
                controls, negatives = _split_controls((int(lines[2]),), rng)
            else:
                controls, negatives = (), ()
            circuit.append(
                GateOp(
                    gate="swap",
                    targets=(a, b),
                    controls=controls,
                    negative_controls=negatives,
                )
            )
        elif num_qubits >= 2 and roll < 0.5:
            lines = rng.permutation(num_qubits)
            a, b = sorted((int(lines[0]), int(lines[1])), reverse=True)
            circuit.append(
                GateOp(
                    gate="iswap" if rng.random() < 0.5 else "iswapdg",
                    targets=(a, b),
                )
            )
        else:
            name, params = _random_single_gate(rng)
            circuit.append(
                GateOp(
                    gate=name,
                    params=params,
                    targets=(int(rng.integers(num_qubits)),),
                )
            )
    return circuit


def matrix_dd_statevector(package: DDPackage, circuit: QuantumCircuit) -> np.ndarray:
    """The matrix-DD oracle: ``circuit_to_dd`` multiplied onto |0...0>."""
    num_qubits = circuit.num_qubits
    functionality = circuit_to_dd(package, circuit)
    state = package.multiply(functionality, package.zero_state(num_qubits))
    return package.to_vector(state, num_qubits)


def _case_circuit(case: int) -> QuantumCircuit:
    rng = np.random.default_rng(BASE_SEED * 1_000_003 + case)
    num_qubits = int(rng.integers(1, 7))
    depth = int(rng.integers(8, 9 + 3 * num_qubits))
    return random_mixed_circuit(num_qubits, depth, rng)


@functools.lru_cache(maxsize=None)
def _case_oracle(case: int) -> tuple[np.ndarray, int]:
    """Case ``case``'s matrix-DD oracle vector and its identity-skip count.

    Built once per case and shared by the sweeps below, so the 200 oracles
    are not constructed twice.
    """
    package = DDPackage()
    vector = matrix_dd_statevector(package, _case_circuit(case))
    return vector, package.identity_skip_count


@pytest.mark.parametrize("case", range(NUM_CASES))
def test_three_way_amplitude_agreement(case):
    circuit = _case_circuit(case)
    kernel_sim = DDSimulator(circuit)
    kernel_sim.run_all()
    matrix_vector, _skips = _case_oracle(case)
    dense = StatevectorSimulator(circuit)
    dense.run()

    kernel_vector = kernel_sim.statevector()
    label = f"case {case} (base seed {BASE_SEED}): {circuit.name}"
    assert np.abs(kernel_vector - dense.state).max() < TOLERANCE, (
        f"{label}: kernel path deviates from the dense reference"
    )
    assert np.abs(matrix_vector - dense.state).max() < TOLERANCE, (
        f"{label}: the matrix-DD oracle deviates from the dense reference"
    )
    assert np.abs(kernel_vector - matrix_vector).max() < TOLERANCE, (
        f"{label}: kernel path deviates from the matrix-DD oracle"
    )
    # The kernel path never constructs an operation DD.
    assert kernel_sim.package._matrix_unique.misses == 0


# Aggregate bookkeeping for the differential sweep: a tiny circuit may have
# no identity to skip, so "the reduction fired" is asserted over the whole
# sweep rather than per case.
_SWEEP_STATS = {"cases": 0, "identity_skips": 0}


@pytest.mark.parametrize("case", range(NUM_CASES))
def test_four_way_reorder_and_skipping_agreement(case):
    """The differential sweep over identity skipping.

    Each seeded circuit runs through the matrix-DD oracle — every gate is
    a full matrix DD, so the identity-skipping reduction fires constantly
    — which must agree amplitude-by-amplitude to ``TOLERANCE`` with the
    dense statevector.  (The name predates the removal of dynamic
    reordering; the oracle itself is shared with the three-way sweep.)
    """
    circuit = _case_circuit(case)
    reference, identity_skips = _case_oracle(case)
    dense = StatevectorSimulator(circuit)
    dense.run()
    label = f"case {case} (base seed {BASE_SEED}): {circuit.name}"
    assert np.abs(reference - dense.state).max() < TOLERANCE, (
        f"{label}: the matrix-DD oracle deviates from the dense reference"
    )
    _SWEEP_STATS["identity_skips"] += identity_skips
    _SWEEP_STATS["cases"] += 1


def test_four_way_sweep_exercised_the_features():
    """Over the full sweep, the matrix-DD oracle skipped identities.

    Guarded so a partial run (``-k``, a single case) skips instead of
    reporting a vacuous failure.
    """
    if _SWEEP_STATS["cases"] < NUM_CASES:
        pytest.skip("aggregate check needs the full case sweep")
    assert _SWEEP_STATS["identity_skips"] > 0, (
        "the identity-skipping reduction never fired across the whole sweep"
    )


def test_fuzzer_covers_every_kernel():
    """Across all cases the fuzzer exercises each kernel family at least
    once (counters are only collected when observability is on, so count
    operation kinds on the circuits themselves)."""
    controlled = swaps = iswaps = plain = 0
    for case in range(NUM_CASES):
        for operation in _case_circuit(case):
            if operation.gate in ("iswap", "iswapdg"):
                iswaps += 1
            elif operation.gate == "swap":
                swaps += 1
            elif operation.num_controls:
                controlled += 1
            else:
                plain += 1
    assert min(controlled, swaps, iswaps, plain) > 0
