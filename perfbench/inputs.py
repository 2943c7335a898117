"""Seeded inputs for the three workloads, with their expected outputs.

Everything here runs before timing starts; the program under test only
ever receives QASM text (or request bytes built from it).

Cost-invariant seeding.  A random circuit's cost depends heavily on its
structure: ``random_circuit(10, 100)`` takes 0.5 s for one structure seed
and 2.7 s for another.  Runs with different ``--seed`` values must cost the
same for the spread between them to mean anything, so the workload seed
never picks a circuit's structure (its gates and the lines they act on).
It redraws every rotation angle of a fixed structure (:func:`reangled`)
or picks a basis input with a fixed number of ones.  Generic
angles leave node counts unchanged, so one committed expected count per
structure checks every seed.  Only the service's uncached circuits have
seeded structures, since they are many and their cost is averaged.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import QuantumCircuit, library, parse_qasm
from repro.qc.operations import BarrierOp, GateOp
from repro.qc.transforms import decompose_to_primitives

#: Structure seeds of the two ``random_circuit(10, 100)`` jobs; both end
#: in the dense 1023-node state after about 12,000 nodes built.
RANDOM10_STRUCTURES = (10, 37)
RANDOM10_NODES = 1023

#: Marked state of Grover(5).  The 32 marks give 637-677 operations once
#: decomposed and their work spreads by 25% (2,351-2,976 nodes built), so
#: the mark is fixed rather than seeded.
GROVER5_MARKED = 5
GROVER5_OPS = 661
GROVER5_NODES = 9
GROVER5_PEAK = 17

#: Structure seed of the session circuit (see :func:`session_circuit`):
#: its forward pass sums to 4,730 state nodes over 100 steps and ends at
#: 129 nodes, the peak, whatever the angles and measurement outcome.
SESSION_STRUCTURE = 5
SESSION_NODES = 129
SESSION_PEAK = 129
#: Measurement and reset outcomes of the session are drawn from this seed.
SESSION_OUTCOMES_SEED = 0

#: Structure seeds of the batch verification pairs.
PAIR600_STRUCTURE = 600
PLANTED_STRUCTURE = 60
#: Width of the service's /verify QFT pairs.
VERIFY_QUBITS = 8

#: Peak nodes of the alternating compilation-flow checks (paper Ex. 12 for
#: QFT(3); QFT(3) by construction peaks at 21).
EX12_ALTERNATING_PEAK = 9
EX12_CONSTRUCT_PEAK = 21
QFT8_ALTERNATING_PEAK = 29
QFT5_ALTERNATING_PEAK = 17

SHOTS_BATCH = 1024
SHOTS_SERVICE = 256


def seeded_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per workload input set (any integer seed)."""
    return np.random.default_rng([seed % (1 << 64), stream])


def reangled(circuit: QuantumCircuit, rng: np.random.Generator) -> QuantumCircuit:
    """``circuit`` with every gate parameter redrawn uniformly from [0, 2pi)."""
    result = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, name=circuit.name)
    for operation in circuit:
        if isinstance(operation, GateOp) and operation.params:
            angles = rng.uniform(0.0, 2.0 * np.pi, size=len(operation.params))
            operation = dataclasses.replace(operation, params=tuple(float(a) for a in angles))
        result.append(operation)
    return result


def guarded_qasm(circuit: QuantumCircuit) -> str:
    """QASM text of ``circuit``, checked to parse back to the same circuit.

    Not every circuit has an OpenQASM 2.0 form: ``to_qasm`` raises on a Z
    with three or more controls, which is why Grover enters the benchmark
    decomposed into primitives.
    """
    text = circuit.to_qasm()
    if parse_qasm(text).digest() != circuit.digest():
        raise AssertionError(f"{circuit.name}: QASM round trip changes the circuit")
    return text


def abstract_circuit(rng: np.random.Generator, num_qubits: int, gates: int,
                     name: str) -> QuantumCircuit:
    """Random circuit over RY, RZ, CX, CP and SWAP: the abstract side of a
    compilation-flow pair (CP and SWAP expand under compilation)."""
    circuit = QuantumCircuit(num_qubits, name=name)
    for _ in range(gates):
        kind = rng.random()
        a, b = (int(q) for q in rng.choice(num_qubits, size=2, replace=False))
        if kind < 0.2:
            circuit.ry(float(rng.uniform(0.0, 2.0 * np.pi)), a)
        elif kind < 0.4:
            circuit.rz(float(rng.uniform(0.0, 2.0 * np.pi)), a)
        elif kind < 0.6:
            circuit.cx(a, b)
        elif kind < 0.8:
            circuit.cp(float(rng.uniform(0.0, 2.0 * np.pi)), a, b)
        else:
            circuit.swap(a, b)
    return circuit


def compiled(circuit: QuantumCircuit) -> QuantumCircuit:
    return decompose_to_primitives(circuit, barrier_per_gate=True)


def planted_compiled(circuit: QuantumCircuit, angle: float = 0.3) -> QuantumCircuit:
    """``compiled(circuit)`` with one extra RZ after its middle barrier:
    a pair that must be reported not equivalent."""
    clean = compiled(circuit)
    barriers = [i for i, op in enumerate(clean) if isinstance(op, BarrierOp)]
    middle = barriers[len(barriers) // 2]
    result = QuantumCircuit(clean.num_qubits, name=f"{circuit.name}_planted")
    for index, operation in enumerate(clean):
        result.append(operation)
        if index == middle:
            result.rz(angle, 0)
    return result


# ----------------------------------------------------------------------
# batch
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SimJob:
    name: str
    qasm: str
    expect_nodes: int
    expect_peak: int
    dense_check: bool  # small enough for the dense state-vector oracle


@dataclass(frozen=True)
class VerifyJob:
    name: str
    left: str
    right: str
    strategy: str  # "construct" or an ApplicationStrategy value
    expect_equivalent: bool
    expect_peak: Optional[int]


def batch_jobs(seed: int) -> Tuple[List[SimJob], List[VerifyJob]]:
    rng = seeded_rng(seed, 1)
    qft14 = QuantumCircuit(14, name="qft14_basis")
    for qubit in sorted(rng.choice(14, size=7, replace=False)):
        qft14.x(int(qubit))
    for operation in library.qft(14):
        qft14.append(operation)
    grover = decompose_to_primitives(library.grover(5, GROVER5_MARKED))
    if len(grover) != GROVER5_OPS:
        raise AssertionError(f"decomposed Grover(5) has {len(grover)} operations")
    sims = [SimJob("qft14", guarded_qasm(qft14), 14, 14, False)]
    for structure in RANDOM10_STRUCTURES:
        circuit = reangled(library.random_circuit(10, 100, seed=structure), rng)
        sims.append(SimJob(f"random10_s{structure}", guarded_qasm(circuit),
                           RANDOM10_NODES, RANDOM10_NODES, True))
    sims.append(SimJob(f"grover5_m{GROVER5_MARKED}", guarded_qasm(grover),
                       GROVER5_NODES, GROVER5_PEAK, True))
    sims.append(SimJob("ghz16", guarded_qasm(library.ghz_state(16)), 31, 31, False))

    qft3, qft3c = guarded_qasm(library.qft(3)), guarded_qasm(library.qft_compiled(3))
    big = reangled(abstract_circuit(np.random.default_rng(PAIR600_STRUCTURE), 6, 200,
                                    "pair600"), rng)
    small = reangled(abstract_circuit(np.random.default_rng(PLANTED_STRUCTURE), 6, 60,
                                      "planted"), rng)
    verifies = [
        VerifyJob("ex12_alternating", qft3, qft3c, "compilation-flow", True,
                  EX12_ALTERNATING_PEAK),
        VerifyJob("ex12_construct", qft3, qft3c, "construct", True,
                  EX12_CONSTRUCT_PEAK),
        VerifyJob("qft8_pair", guarded_qasm(library.qft(8)),
                  guarded_qasm(library.qft_compiled(8)), "compilation-flow", True,
                  QFT8_ALTERNATING_PEAK),
        VerifyJob("pair600", guarded_qasm(big), guarded_qasm(compiled(big)),
                  "compilation-flow", True, None),
        VerifyJob("planted", guarded_qasm(small), guarded_qasm(planted_compiled(small)),
                  "compilation-flow", False, None),
    ]
    return sims, verifies


# ----------------------------------------------------------------------
# session
# ----------------------------------------------------------------------
def session_circuit(circuit_seed: int) -> QuantumCircuit:
    """8 qubits: 98 random gates with a measurement after the 49th and a
    reset after the 74th, both on seed-chosen qubits."""
    base = library.random_circuit(8, 98, seed=circuit_seed)
    qubits = np.random.default_rng(circuit_seed).integers(8, size=2)
    circuit = QuantumCircuit(8, 1, name=f"session_{circuit_seed}")
    for index, operation in enumerate(base):
        if index == 49:
            circuit.measure(int(qubits[0]), 0)
        if index == 74:
            circuit.reset(int(qubits[1]))
        circuit.append(operation)
    return circuit


@dataclass(frozen=True)
class SessionInputs:
    qasm: str
    verify_left: str
    verify_right: str


def session_inputs(seed: int) -> SessionInputs:
    circuit = reangled(session_circuit(SESSION_STRUCTURE), seeded_rng(seed, 2))
    return SessionInputs(
        guarded_qasm(circuit),
        guarded_qasm(library.qft(5)), guarded_qasm(library.qft_compiled(5)),
    )


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    kind: str  # "cached", "uncached" or "verify"
    path: str
    body: bytes
    key: int  # index into the texts of its kind


@dataclass
class ServiceInputs:
    cached: List[str]
    uncached: List[str]
    verify: List[Tuple[str, str]]
    #: one closed-loop request list per connection, in sending order
    streams: List[List[Request]]


_ROTATIONS = ("rx", "ry", "rz")


def random_qasm(rng: np.random.Generator, num_qubits: int, gates: int) -> str:
    """QASM text of a random circuit: 30% CX, otherwise a rotation by a
    random angle.  Written directly, since the service needs thousands of
    fresh circuits and building each through the IR first would dominate
    the run; the round trip of every text sent is checked with
    :func:`guarded_qasm` when its answer is.

    Only rotations by generic angles, no fixed gates: then no two
    amplitudes lie within the complex-table tolerance of each other
    without being equal, so a worker shard's warm package (whose history
    decides how near-equal weights snap) reports the same node counts as a
    cold one.  With H, S and T gates it may not: one shard answered 21
    nodes where a cold package builds 23.
    """
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{num_qubits}];"]
    qubits = rng.integers(num_qubits, size=gates)
    others = rng.integers(num_qubits - 1, size=gates)
    kinds = rng.random(gates)
    rotations = rng.integers(len(_ROTATIONS), size=gates)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=gates)
    for i in range(gates):
        qubit = int(qubits[i])
        if kinds[i] < 0.3:
            other = int(others[i]) + (others[i] >= qubit)
            lines.append(f"cx q[{qubit}],q[{other}];")
        else:
            lines.append(f"{_ROTATIONS[rotations[i]]}({float(angles[i])!r}) q[{qubit}];")
    return "\n".join(lines) + "\n"


def simulate_body(qasm: str) -> bytes:
    return json.dumps({"qasm": qasm, "shots": SHOTS_SERVICE, "seed": 0}).encode()


def basis_qft_pair(num_qubits: int, bits: int) -> Tuple[str, str]:
    """QASM texts of QFT(n) and its compiled form, both on the basis input
    ``bits``.  The compiled side has a barrier after each X, as after each
    expanded gate, so the compilation flow stays aligned."""
    pair = []
    for body in (library.qft(num_qubits), library.qft_compiled(num_qubits)):
        circuit = QuantumCircuit(num_qubits, name=body.name)
        for qubit in range(num_qubits):
            if bits >> qubit & 1:
                circuit.x(qubit)
                if body.name.endswith("compiled"):
                    circuit.barrier()
        for operation in body:
            circuit.append(operation)
        pair.append(circuit.to_qasm())
    return pair[0], pair[1]


def service_inputs(seed: int, connections: int, per_connection: int) -> ServiceInputs:
    """Request streams with 70% cached /simulate (8 fixed 8-qubit x 60-gate
    circuits), 25% uncached /simulate (fresh 6-qubit x 40-gate circuits,
    every body distinct) and 5% /verify (QFT(8) against its compiled form
    on a basis input, the inputs in a seeded order; uncached for the first
    256 of a run).  Round trips of uncached texts are guarded once sent.

    The /verify pairs are QFT pairs rather than random-angle ones: a shard
    checks them on its warm package, and there a random-angle equivalent
    pair can come out "not equivalent" (1 of 250 did after 500 random
    simulations on one package; no QFT pair of 250 did)."""
    rng = seeded_rng(seed, 3)
    cached = [random_qasm(rng, 8, 60) for _ in range(8)]
    basis_inputs = rng.permutation(1 << VERIFY_QUBITS)
    qft_pairs: Dict[int, Tuple[str, str]] = {}
    cached_bodies = [simulate_body(text) for text in cached]
    kinds = rng.choice(3, size=(connections, per_connection), p=[0.70, 0.25, 0.05])
    picks = rng.integers(len(cached), size=(connections, per_connection))
    uncached: List[str] = []
    verify: List[Tuple[str, str]] = []
    streams: List[List[Request]] = [[] for _ in range(connections)]
    # Request by request across the connections, so that the first /verify
    # inputs, the ones a run reaches, go to both connections.
    for position in range(per_connection):
        for stream, kind, pick in zip(streams, kinds[:, position], picks[:, position]):
            if kind == 0:
                stream.append(Request("cached", "/simulate", cached_bodies[pick], int(pick)))
            elif kind == 1:
                uncached.append(random_qasm(rng, 6, 40))
                stream.append(Request("uncached", "/simulate", simulate_body(uncached[-1]),
                                      len(uncached) - 1))
            else:
                bits = int(basis_inputs[len(verify) % len(basis_inputs)])
                if bits not in qft_pairs:
                    qft_pairs[bits] = basis_qft_pair(VERIFY_QUBITS, bits)
                verify.append(qft_pairs[bits])
                body = json.dumps({"left": verify[-1][0], "right": verify[-1][1],
                                   "strategy": "compilation-flow"}).encode()
                stream.append(Request("verify", "/verify", body, len(verify) - 1))
    if len(set(uncached)) != len(uncached):
        raise AssertionError("an uncached body repeats an earlier one")
    return ServiceInputs(cached, uncached, verify, streams)
