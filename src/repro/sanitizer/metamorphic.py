"""Metamorphic fuzzing of the DD engine via equivalence-preserving rewrites.

Differential testing needs an oracle; metamorphic testing manufactures one
from an invariant instead: a seeded random circuit ``G`` and a rewrite
``R`` that provably preserves its unitary must satisfy ``G == R(G)`` under
the package's own alternating equivalence checker (paper Sec. III-C) *and*
produce identical sampling distributions.  Any disagreement is a bug in
the engine (or in the rewrite — which is exactly what the deliberately
broken ``broken-sign-flip`` rewrite demonstrates end to end).

Rewrites
--------

``insert-inverse-pair``
    Insert ``g . g^-1`` at a random position (identity insertion).
``commute-disjoint``
    Swap one adjacent pair of gates acting on disjoint qubit sets.
``decompose-multicontrol``
    Replace one multi-controlled / non-primitive gate with its exact
    ancilla-free decomposition (:mod:`repro.qc.transforms`).
``broken-sign-flip`` (intentionally wrong)
    Inserts ``g(theta) . g(theta)`` where the inverse required
    ``g(-theta)`` — the classic forgotten sign flip.  Exists to prove the
    harness catches a real bug and shrinks it to a minimal counterexample.

Failing cases are shrunk with a greedy delta-debugging loop over the
original circuit's operations (the rewrite is re-applied deterministically
to every candidate) and written to ``tests/data/metamorphic_corpus/`` in
the ``qdd-metamorphic-v1`` JSON format, so every historical counterexample
is replayed by the test suite forever after.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.qc.circuit import QuantumCircuit
from repro.qc.operations import GateOp

__all__ = [
    "CORPUS_FORMAT",
    "REWRITES",
    "BROKEN_REWRITES",
    "CaseResult",
    "random_program",
    "apply_rewrite",
    "check_pair",
    "run_case",
    "fuzz",
    "shrink_case",
    "counterexample_record",
    "save_counterexample",
    "load_corpus",
]

CORPUS_FORMAT = "qdd-metamorphic-v1"

_PLAIN_SINGLES = ("h", "x", "y", "z", "s", "sdg", "t", "tdg")
_PARAM_SINGLES = ("rx", "ry", "rz", "p")


# ----------------------------------------------------------------------
# seeded circuit generation
# ----------------------------------------------------------------------

def random_program(num_qubits: int, depth: int, seed: int) -> QuantumCircuit:
    """A seeded random unitary circuit exercising the whole rewrite surface.

    Unlike :func:`repro.qc.library.random_circuit` this mixes in Toffoli
    gates (so the multi-control decomposition rewrite has work to do) and
    keeps every emitted gate QASM-exportable (corpus entries store QASM).
    """
    rng = random.Random(seed)
    circuit = QuantumCircuit(num_qubits, name=f"metamorphic-{seed}")
    for _ in range(depth):
        roll = rng.random()
        if roll < 0.15 and num_qubits >= 3:
            lines = rng.sample(range(num_qubits), 3)
            circuit.gate("x", (lines[0],), controls=tuple(lines[1:]))
        elif roll < 0.40 and num_qubits >= 2:
            a, b = rng.sample(range(num_qubits), 2)
            kind = rng.choice(("cx", "cz", "cp", "swap"))
            if kind == "cx":
                circuit.gate("x", (b,), controls=(a,))
            elif kind == "cz":
                circuit.gate("z", (b,), controls=(a,))
            elif kind == "cp":
                circuit.gate(
                    "p", (b,), params=(rng.uniform(0.3, 2.8),), controls=(a,)
                )
            else:
                circuit.gate("swap", (max(a, b), min(a, b)))
        elif roll < 0.70:
            gate = rng.choice(_PARAM_SINGLES)
            circuit.gate(
                gate,
                (rng.randrange(num_qubits),),
                params=(rng.uniform(0.3, 2.8),),
            )
        else:
            circuit.gate(rng.choice(_PLAIN_SINGLES), (rng.randrange(num_qubits),))
    return circuit


# ----------------------------------------------------------------------
# rewrites
# ----------------------------------------------------------------------

def _rebuild(circuit: QuantumCircuit, operations: Sequence, name: str) -> QuantumCircuit:
    result = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, name)
    for operation in operations:
        result.append(operation)
    return result


def _random_gate_and_inverse(rng: random.Random, num_qubits: int) -> Tuple[GateOp, GateOp]:
    roll = rng.random()
    if roll < 0.4:
        gate = GateOp(gate=rng.choice(_PLAIN_SINGLES), targets=(rng.randrange(num_qubits),))
    elif roll < 0.8:
        gate = GateOp(
            gate=rng.choice(_PARAM_SINGLES),
            params=(rng.uniform(0.3, 2.8),),
            targets=(rng.randrange(num_qubits),),
        )
    elif num_qubits >= 2:
        a, b = rng.sample(range(num_qubits), 2)
        gate = GateOp(gate="x", targets=(b,), controls=(a,))
    else:
        gate = GateOp(gate="h", targets=(0,))
    return gate, gate.inverse()


def _rw_insert_inverse_pair(circuit: QuantumCircuit, rng: random.Random) -> QuantumCircuit:
    operations = list(circuit)
    position = rng.randrange(len(operations) + 1)
    gate, inverse = _random_gate_and_inverse(rng, circuit.num_qubits)
    operations[position:position] = [gate, inverse]
    return _rebuild(circuit, operations, f"{circuit.name}+gginv")


def _rw_commute_disjoint(circuit: QuantumCircuit, rng: random.Random) -> QuantumCircuit:
    operations = list(circuit)
    candidates = [
        index
        for index in range(len(operations) - 1)
        if isinstance(operations[index], GateOp)
        and isinstance(operations[index + 1], GateOp)
        and not (set(operations[index].qubits) & set(operations[index + 1].qubits))
    ]
    if candidates:
        index = rng.choice(candidates)
        operations[index], operations[index + 1] = (
            operations[index + 1],
            operations[index],
        )
    return _rebuild(circuit, operations, f"{circuit.name}+commute")


def _rw_decompose_multicontrol(circuit: QuantumCircuit, rng: random.Random) -> QuantumCircuit:
    from repro.qc import transforms

    operations = list(circuit)
    candidates = [
        index
        for index, operation in enumerate(operations)
        if isinstance(operation, GateOp)
        and not operation.negative_controls
        and (
            (operation.gate == "x" and len(operation.controls) >= 2)
            or (operation.gate == "p" and len(operation.controls) >= 1)
        )
    ]
    if not candidates:
        return _rebuild(circuit, operations, f"{circuit.name}+decompose")
    index = rng.choice(candidates)
    operation = operations[index]
    expansion = QuantumCircuit(circuit.num_qubits, name="expansion")
    if operation.gate == "x":
        transforms.emit_mcx(expansion, operation.controls, operation.targets[0])
    else:
        transforms.emit_mcp(
            expansion, operation.params[0], operation.controls, operation.targets[0]
        )
    operations[index : index + 1] = list(expansion)
    return _rebuild(circuit, operations, f"{circuit.name}+decompose")


def _rw_broken_sign_flip(circuit: QuantumCircuit, rng: random.Random) -> QuantumCircuit:
    """Intentionally buggy identity insertion: ``g(t) . g(t)``, not ``g(-t)``."""
    operations = list(circuit)
    position = rng.randrange(len(operations) + 1)
    gate = GateOp(
        gate=rng.choice(_PARAM_SINGLES),
        params=(rng.uniform(0.4, 2.5),),
        targets=(rng.randrange(circuit.num_qubits),),
    )
    operations[position:position] = [gate, gate]  # BUG: second should be gate.inverse()
    return _rebuild(circuit, operations, f"{circuit.name}+broken")


#: Correct (equivalence-preserving) rewrites.
REWRITES: Dict[str, Callable[[QuantumCircuit, random.Random], QuantumCircuit]] = {
    "insert-inverse-pair": _rw_insert_inverse_pair,
    "commute-disjoint": _rw_commute_disjoint,
    "decompose-multicontrol": _rw_decompose_multicontrol,
}

#: Deliberately wrong rewrites (harness self-tests).
BROKEN_REWRITES: Dict[str, Callable[[QuantumCircuit, random.Random], QuantumCircuit]] = {
    "broken-sign-flip": _rw_broken_sign_flip,
}


def apply_rewrite(circuit: QuantumCircuit, rewrite: str, seed: int) -> QuantumCircuit:
    """Apply ``rewrite`` to ``circuit`` deterministically under ``seed``."""
    table = REWRITES.get(rewrite) or BROKEN_REWRITES.get(rewrite)
    if table is None:
        valid = ", ".join(sorted((*REWRITES, *BROKEN_REWRITES)))
        raise ValueError(f"unknown rewrite {rewrite!r} (expected one of: {valid})")
    return table(circuit, random.Random(f"{rewrite}:{seed}"))


# ----------------------------------------------------------------------
# the metamorphic check
# ----------------------------------------------------------------------

def check_pair(
    original: QuantumCircuit,
    transformed: QuantumCircuit,
    shots: int = 128,
    sample_seed: int = 2024,
    sanitize_every: int = 0,
) -> Tuple[bool, str]:
    """Whether the pair is equivalent by checker *and* by sampling.

    Returns ``(ok, reason)``; ``reason`` names the first disagreement.
    Global phase is accepted (the rewrites may introduce one through
    decompositions), *relative* phase is not.
    """
    from repro.dd.package import DDPackage
    from repro.simulation.simulator import DDSimulator
    from repro.verification import check_equivalence_alternating

    package = DDPackage(sanitize_every=sanitize_every)
    result = check_equivalence_alternating(original, transformed, package=package)
    if not (result.equivalent or result.equivalent_up_to_global_phase):
        return False, "alternating checker: circuits are not equivalent"

    counts = []
    for circuit in (original, transformed):
        simulator = DDSimulator(
            circuit, package=DDPackage(sanitize_every=sanitize_every)
        )
        try:
            simulator.run_all()
            counts.append(simulator.sample_counts(shots, seed=sample_seed))
        finally:
            simulator.close()
    if counts[0] != counts[1]:
        return False, (
            f"sampling distributions differ under shared seed {sample_seed}: "
            f"{counts[0]} != {counts[1]}"
        )
    return True, ""


@dataclass
class CaseResult:
    """Outcome of one metamorphic case (possibly after shrinking)."""

    seed: int
    rewrite: str
    ok: bool
    reason: str = ""
    original: Optional[QuantumCircuit] = None
    transformed: Optional[QuantumCircuit] = None
    shrunk: Optional[QuantumCircuit] = None

    def describe(self) -> str:
        status = "ok" if self.ok else f"FAIL ({self.reason})"
        return f"metamorphic case seed={self.seed} rewrite={self.rewrite}: {status}"


def run_case(
    seed: int,
    rewrite: str,
    num_qubits: Optional[int] = None,
    depth: Optional[int] = None,
    shots: int = 128,
    sanitize_every: int = 0,
) -> CaseResult:
    """Generate, rewrite and check one seeded case (no shrinking)."""
    rng = random.Random(seed)
    num_qubits = num_qubits or rng.randint(2, 4)
    depth = depth or rng.randint(4, 14)
    original = random_program(num_qubits, depth, seed)
    transformed = apply_rewrite(original, rewrite, seed)
    ok, reason = check_pair(
        original,
        transformed,
        shots=shots,
        sanitize_every=sanitize_every,
    )
    return CaseResult(
        seed=seed,
        rewrite=rewrite,
        ok=ok,
        reason=reason,
        original=original,
        transformed=transformed,
    )


def fuzz(
    num_cases: int,
    seed: int = 0,
    rewrites: Sequence[str] = tuple(REWRITES),
    shots: int = 128,
    shrink: bool = True,
    sanitize_every: int = 0,
) -> List[CaseResult]:
    """Run ``num_cases`` seeded cases; return the (shrunk) failures.

    Case ``i`` uses seed ``seed + i`` and the rewrite ``rewrites[i % ...]``
    — the failing seed is embedded in every :class:`CaseResult`, so a CI
    failure message pinpoints the exact reproducer.
    """
    failures: List[CaseResult] = []
    for index in range(num_cases):
        case_seed = seed + index
        rewrite = rewrites[index % len(rewrites)]
        result = run_case(
            case_seed, rewrite, shots=shots, sanitize_every=sanitize_every
        )
        if not result.ok:
            if shrink:
                result = shrink_case(result, shots=shots)
            failures.append(result)
    return failures


# ----------------------------------------------------------------------
# shrinking (greedy delta debugging over the original operations)
# ----------------------------------------------------------------------

def shrink_case(result: CaseResult, shots: int = 128) -> CaseResult:
    """Minimize a failing case to the smallest still-failing original.

    Greedy ddmin over the original circuit's operation list: repeatedly try
    dropping chunks (halving the chunk size down to single operations); a
    candidate "fails" when re-applying the *same* rewrite under the *same*
    seed still produces a non-equivalent pair.  The transformed circuit is
    recomputed per candidate, so the minimal counterexample is genuinely
    self-contained: ``(original ops, rewrite, seed)``.
    """
    if result.ok or result.original is None:
        return result

    base = result.original

    def still_fails(operations: Sequence) -> bool:
        candidate = _rebuild(base, operations, f"{base.name}-shrunk")
        try:
            transformed = apply_rewrite(candidate, result.rewrite, result.seed)
            ok, _reason = check_pair(candidate, transformed, shots=shots)
        except Exception:
            # A candidate that breaks the pipeline outright is not a
            # *smaller* version of this equivalence failure — skip it.
            return False
        return not ok

    operations = list(base)
    chunk = max(1, len(operations) // 2)
    while chunk >= 1:
        index = 0
        shrunk_this_pass = False
        while index < len(operations):
            candidate = operations[:index] + operations[index + chunk :]
            if still_fails(candidate):
                operations = candidate
                shrunk_this_pass = True
            else:
                index += chunk
        if chunk == 1 and not shrunk_this_pass:
            break
        chunk = chunk // 2 if chunk > 1 else (1 if shrunk_this_pass else 0)

    shrunk = _rebuild(base, operations, f"{base.name}-shrunk")
    transformed = apply_rewrite(shrunk, result.rewrite, result.seed)
    ok, reason = check_pair(shrunk, transformed, shots=shots)
    return CaseResult(
        seed=result.seed,
        rewrite=result.rewrite,
        ok=ok,
        reason=reason or result.reason,
        original=result.original,
        transformed=transformed,
        shrunk=shrunk,
    )


# ----------------------------------------------------------------------
# counterexample corpus
# ----------------------------------------------------------------------

def counterexample_record(result: CaseResult) -> Dict[str, object]:
    """Serializable corpus entry for a (shrunk) failing case."""
    circuit = result.shrunk if result.shrunk is not None else result.original
    if circuit is None:
        raise ValueError("cannot serialize a case without a circuit")
    record = {
        "format": CORPUS_FORMAT,
        "rewrite": result.rewrite,
        "seed": result.seed,
        "num_qubits": circuit.num_qubits,
        "gates": len(circuit),
        "reason": result.reason,
        "qasm": circuit.to_qasm(),
    }
    if result.transformed is not None:
        record["transformed_gates"] = len(result.transformed)
    return record


def save_counterexample(directory, result: CaseResult) -> Path:
    """Write a corpus entry; the filename is stable under re-runs."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    record = counterexample_record(result)
    path = directory / f"{result.rewrite}-seed{result.seed}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def load_corpus(directory) -> List[Dict[str, object]]:
    """Load every ``qdd-metamorphic-v1`` entry under ``directory``."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    records = []
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("format") != CORPUS_FORMAT:
            raise ValueError(
                f"{path}: unknown corpus format {record.get('format')!r}"
            )
        record["path"] = str(path)
        records.append(record)
    return records


def replay_record(record: Dict[str, object], shots: int = 128) -> CaseResult:
    """Re-check one corpus entry (parse its QASM, re-apply its rewrite)."""
    from repro.qc.qasm.parser import parse_qasm

    circuit = parse_qasm(str(record["qasm"]))
    rewrite = str(record["rewrite"])
    seed = int(record["seed"])  # type: ignore[arg-type]
    transformed = apply_rewrite(circuit, rewrite, seed)
    ok, reason = check_pair(circuit, transformed, shots=shots)
    return CaseResult(
        seed=seed,
        rewrite=rewrite,
        ok=ok,
        reason=reason,
        original=circuit,
        transformed=transformed,
    )
