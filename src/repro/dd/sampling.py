"""Measurement, sampling and reset on vector decision diagrams.

Implements the paper's Sec. III-B / IV-B semantics:

* **sampling** (weak simulation, [16]): a randomized single-path traversal.
  Under the L2 normalization scheme every sub-tree represents a norm-1
  vector, so at each node the squared magnitude of the |0> successor weight
  *is* the branch probability; under other schemes subtree norms provide
  it instead.  Either way the probability is computed once per node per
  call, straight from the pooled engine's arrays, into a flat branch table
  (|0> probability and two successor positions per node).  Every shot is
  then one root-to-terminal walk over those plain lists: one float
  comparison per level and no node or edge objects.
* **measurement** of a single qubit: the outcome probabilities are reported,
  an outcome is chosen (by the caller or at random), and the state collapses
  irreversibly via the corresponding projector, renormalized.  Measurements
  of classically simulated states are non-destructive in the sense that the
  pre-measurement DD can be kept and re-measured (paper Sec. III-B).
* **reset**: probabilistic reset as described in Sec. IV-B — the qubit is
  measured, the other branch is discarded, and the remaining branch becomes
  the |0> branch (equivalently: a conditional X after the collapse).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.dd.apply import apply_single_qubit
from repro.dd.edge import Edge
from repro.dd.node import VectorNode
from repro.dd.normalization import NormalizationScheme
from repro.dd.package import DDPackage
from repro.dd.pool import WeightPool
from repro.dd.pooled import TERMINAL_KEY
from repro.errors import DDError, InvalidStateError

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_P0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_P1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)

#: Callback deciding a measurement outcome given ``(p0, p1)``; mirrors the
#: web tool's pop-up dialog (paper Sec. IV-B).
OutcomeChooser = Callable[[float, float], int]


def branch_probabilities(package: DDPackage, state: Edge) -> Tuple[float, float]:
    """Probabilities of the root qubit being |0> / |1> in ``state``."""
    return qubit_probabilities(package, state, state.node.var)


def qubit_probabilities(
    package: DDPackage, state: Edge, qubit: int
) -> Tuple[float, float]:
    """Probabilities ``(p0, p1)`` of measuring ``qubit`` in ``state``.

    Works for any normalization scheme: reads the diagram once through
    :meth:`DDPackage.walk` (no node views) and folds it bottom-up into each
    node's squared subtree norm and, at and above the qubit's level, the
    mass of outcome 1 within that subtree.
    """
    if state.is_zero:
        raise InvalidStateError("cannot measure the zero vector")
    num_qubits = package.num_qubits(state)
    if not 0 <= qubit < num_qubits:
        raise DDError(f"qubit {qubit} out of range for {num_qubits} qubits")
    nodes = package.walk(state)
    # Every child key that is not a walked node is the terminal, whose
    # sub-vector is the scalar 1; a zero stub's weight zeroes its term.
    norms: Dict[Hashable, float] = {TERMINAL_KEY: 1.0}
    masses: Dict[Hashable, float] = {TERMINAL_KEY: 0.0}
    # Vector DDs skip no level, so ascending levels finish every child
    # before its parents.
    for key in sorted(nodes, key=lambda key: nodes[key][0]):
        var, ((low, w_low), (high, w_high)) = nodes[key]
        high_norm = abs(w_high) ** 2 * norms[high]
        norms[key] = abs(w_low) ** 2 * norms[low] + high_norm
        if var == qubit:
            masses[key] = high_norm
        elif var > qubit:
            masses[key] = (
                abs(w_low) ** 2 * masses[low] + abs(w_high) ** 2 * masses[high]
            )
    root = next(iter(nodes))
    weight = abs(state.weight) ** 2
    total = weight * norms[root]
    if total <= 0.0:
        raise InvalidStateError("state has zero norm")
    p1 = weight * masses[root] / total
    p1 = min(max(p1, 0.0), 1.0)
    return 1.0 - p1, p1


def sample(
    package: DDPackage,
    state: Edge,
    rng: Optional[np.random.Generator] = None,
) -> str:
    """Draw one basis state from ``state`` via single-path traversal.

    Returns the big-endian bit string ``q_{n-1} ... q_0`` (paper footnote 1).
    """
    return next(iter(sample_counts(package, state, 1, rng)))


def _branch_table(
    package: DDPackage, root: int
) -> Tuple[List[float], List[int], List[int]]:
    """Per-node ``(p0, zero_successor, one_successor)`` rows, root at 0.

    Visits every node reachable from pool index ``root`` once.  Successor
    entries are table positions (-1 for the terminal and for zero stubs).
    A zero-weight successor gets ``p0`` of exactly 0.0 or 1.0, so a walk
    never takes it.
    """
    engine = package._pooled
    pool = engine.vpool
    var, succ, wsucc = pool.var, pool.succ, pool.wsucc
    values = engine.weights._values
    zero_weight = WeightPool.ZERO_INDEX
    position = {root: 0}
    order = [root]
    # Breadth-first: ``order`` grows while it is walked, level by level.
    for index in order:
        level = var[index]
        for k in (2 * index, 2 * index + 1):
            if wsucc[k] == zero_weight:
                continue
            child = succ[k]
            if (var[child] if child >= 0 else -1) != level - 1:
                raise DDError(
                    f"node at level {level} has a non-zero edge that skips "
                    "a level; sampling needs one node per level"
                )
            if child >= 0 and child not in position:
                position[child] = len(order)
                order.append(child)

    size = len(order)
    p0 = [0.0] * size
    zero = [-1] * size
    one = [-1] * size
    local = package.vector_scheme is NormalizationScheme.L2
    # Subtree norm per position (non-L2 only); the terminal's is 1.0.
    norms = [1.0] * size
    # Reverse breadth-first order finishes every child before its parent.
    for pos in range(size - 1, -1, -1):
        base = 2 * order[pos]
        w0, w1 = wsucc[base], wsucc[base + 1]
        s0, s1 = succ[base], succ[base + 1]
        zero[pos] = position.get(s0, -1)
        one[pos] = position.get(s1, -1)
        if w0 == zero_weight and w1 == zero_weight:
            raise DDError("node with two zero successors cannot be sampled")
        if local:
            if w0 == zero_weight:
                p0[pos] = 0.0
            elif w1 == zero_weight:
                p0[pos] = 1.0
            else:
                p0[pos] = abs(values[w0]) ** 2
            continue
        mass0 = 0.0
        if w0 != zero_weight:
            mass0 = abs(values[w0]) ** 2
            if s0 >= 0:
                mass0 *= norms[zero[pos]]
        mass1 = 0.0
        if w1 != zero_weight:
            mass1 = abs(values[w1]) ** 2
            if s1 >= 0:
                mass1 *= norms[one[pos]]
        norms[pos] = mass0 + mass1
        p0[pos] = mass0 / (mass0 + mass1)
    return p0, zero, one


def sample_counts(
    package: DDPackage,
    state: Edge,
    shots: int,
    rng: Optional[np.random.Generator] = None,
) -> Dict[str, int]:
    """Histogram of ``shots`` independent samples (non-destructive).

    Keys are big-endian bit strings in first-drawn order.  Each shot reads
    one ``rng.random(num_qubits)`` row, the same stream as one draw per
    level from the root down.
    """
    if shots <= 0:
        raise DDError("shots must be positive")
    if rng is None:
        rng = np.random.default_rng()
    if state.is_zero:
        raise InvalidStateError("cannot sample from the zero vector")
    if state.node.is_terminal:
        return {"": shots}
    if not isinstance(state.node, VectorNode):
        raise DDError("only vector decision diagrams can be sampled")
    num_qubits = state.node.var + 1
    p0, zero, one = _branch_table(
        package, package._pooled.node_index(state.node)
    )
    # Draw k of a row decides qubit num_qubits - 1 - k.
    masks = [1 << qubit for qubit in range(num_qubits - 1, -1, -1)]
    random = rng.random
    codes: Dict[int, int] = {}
    get = codes.get
    for _ in range(shots):
        cur = 0
        code = 0
        for draw, mask in zip(random(num_qubits).tolist(), masks):
            if draw < p0[cur]:
                cur = zero[cur]
            else:
                cur = one[cur]
                code |= mask
        codes[code] = get(code, 0) + 1
    width = f"0{num_qubits}b"
    return {format(code, width): count for code, count in codes.items()}


def measure_qubit(
    package: DDPackage,
    state: Edge,
    qubit: int,
    outcome: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[int, float, Edge]:
    """Measure ``qubit``; returns ``(outcome, probability, collapsed_state)``.

    If ``outcome`` is given it is forced (its probability must be non-zero),
    mirroring the user choosing an option in the tool's measurement dialog;
    otherwise the outcome is drawn from ``rng``.
    """
    p0, p1 = qubit_probabilities(package, state, qubit)
    if outcome is None:
        if rng is None:
            rng = np.random.default_rng()
        outcome = 0 if rng.random() < p0 else 1
    if outcome not in (0, 1):
        raise DDError(f"measurement outcome must be 0 or 1, got {outcome}")
    probability = p0 if outcome == 0 else p1
    if probability <= 0.0:
        raise InvalidStateError(
            f"outcome {outcome} on qubit {qubit} has probability zero"
        )
    collapsed = _project(package, state, qubit, outcome, probability)
    return outcome, probability, collapsed


def _project(
    package: DDPackage, state: Edge, qubit: int, outcome: int, probability: float
) -> Edge:
    """Apply the outcome projector and renormalize."""
    # Diagonal kernel: the projector only rescales (zeroes) edge weights.
    matrix = _P0 if outcome == 0 else _P1
    projected = apply_single_qubit(package, state, matrix, qubit)
    if projected.is_zero:
        raise InvalidStateError("projection annihilated the state")
    scale = package.complex_table.lookup(
        projected.weight / math.sqrt(probability)
    )
    return Edge(projected.node, scale)


def reset_qubit(
    package: DDPackage,
    state: Edge,
    qubit: int,
    outcome: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[int, float, Edge]:
    """Probabilistic reset (paper Sec. IV-B).

    Measures the qubit (``outcome`` may be forced, as in the tool's dialog),
    discards the other branch, and re-initializes the qubit to |0>.
    Returns ``(observed_outcome, probability, new_state)``.
    """
    observed, probability, collapsed = measure_qubit(
        package, state, qubit, outcome, rng
    )
    if observed == 1:
        collapsed = apply_single_qubit(package, collapsed, _X, qubit)
    return observed, probability, collapsed
