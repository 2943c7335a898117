"""Direct gate-application kernels for decision diagrams.

The matrix-construction path realizes every gate by building the full
``n``-qubit matrix DD (a kron chain of identities around the local 2x2
unitary) and multiplying it onto the state.  Dedicated DD packages avoid
that overhead with *direct apply* routines (Zulehner/Hillmich/Wille, DATE
2019; Wille/Hillmich/Burgholzer 2021): the gate is applied by recursing
over the state diagram alone — no gate DD is ever constructed, so no
matrix nodes are allocated and levels the gate does not touch are copied
by reference.

One dispatcher, :func:`apply_operation`, applies a circuit gate to

* a **vector DD** (one simulation step, paper Sec. III-B): ``g |psi>``;
* a **matrix DD** from either side (the alternating equivalence scheme of
  paper Sec. III-C / Ex. 12): ``g . E`` and ``E . g``.

The operand picks the kernel mode: ``"v"`` for a vector DD, ``"ml"`` or
``"mr"`` for a matrix DD taking the gate from the left or the right.  One
stage table (:func:`_stages`) splits every gate into 2x2 kernel stages in
product order; the right side runs them in reverse.

Kernel taxonomy (reported through the ``dd_apply_total`` counter, once
per applied gate):

``diagonal``
    ``Z``/``S``/``T``/``P``/``RZ``-like gates touch only edge weights —
    children are rescaled, never restructured, and no additions occur.
``antidiagonal``
    ``X``/``Y``-like gates swap the two successors (the Toffoli fast
    path: a multi-controlled X is branch selection plus one child swap).
``generic``
    Arbitrary 2x2 unitaries mix the successors with two DD additions.
``controlled``
    Any gate with control lines.  Controls *above* the target select a
    branch (the other branch is shared unchanged); controls *below* the
    target use the identity ``CU = I + P (U - I)`` with a projector-chain
    recursion (``P`` zeroes the inactive control branches).
``swap``
    Every multi-stage gate: SWAP / Fredkin as three CX stages; iSWAP as
    ``SWAP . CZ . (S x S)``.  A controlled iSWAP has no decomposition and
    raises :class:`~repro.errors.GateError`.

The recursion itself is :class:`repro.dd.pooled.PooledApplyKernel`, which
works on the engine's node and weight indices; this module builds kernels,
caches them per gate and dispatches circuit operations onto them.

All kernels share one dedicated compute table (``DDPackage._apply_cache``)
keyed on ``(gate id, node, next gate line)``, where the gate id
canonicalizes the unitary's entries through the complex table, so repeated
gates (GHZ cascades, Grover iterations, the inverse side of the alternating
scheme) hit the cache.  A node at the gate's lowest line recurses no
further, so its result is memoized only for the current application.

Results agree with the matrix-construction path (gate DD + multiply,
paper Fig. 4): both normalize through the same unique tables.  The
differential suite checks the kernels against that product and against
a dense statevector simulator.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.dd.edge import Edge
from repro.dd.node import MatrixNode
from repro.dd.pooled import PooledApplyKernel
from repro.errors import DDError, GateError
from repro.obs.metrics import DEFAULT_TIME_BUCKETS

__all__ = [
    "apply_single_qubit",
    "apply_controlled",
    "apply_operation",
    "KERNEL_NAMES",
]

#: Kernel labels used for the ``dd_apply_total`` / ``dd_apply_seconds``
#: metrics (and by tests asserting coverage of every kernel).
KERNEL_NAMES = ("diagonal", "antidiagonal", "generic", "controlled", "swap")

_X_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_S_MATRIX = np.array([[1.0, 0.0], [0.0, 1j]], dtype=complex)
_SDG_MATRIX = np.array([[1.0, 0.0], [0.0, -1j]], dtype=complex)
_Z_MATRIX = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
for _constant in (_X_MATRIX, _S_MATRIX, _SDG_MATRIX, _Z_MATRIX):
    _constant.setflags(write=False)
del _constant


# ----------------------------------------------------------------------
# instrumentation
# ----------------------------------------------------------------------
def _observe(package, kernel: str, start: Optional[float]) -> None:
    """Bump the per-kernel counter (and timer when a start time is given)."""
    counters = getattr(package, "_apply_counters", None)
    if counters is None:
        counters = {}
        package._apply_counters = counters
    entry = counters.get(kernel)
    if entry is None:
        entry = (
            package.registry.counter("dd_apply_total", {"kernel": kernel}),
            package.registry.histogram(
                "dd_apply_seconds", DEFAULT_TIME_BUCKETS, {"kernel": kernel}
            ),
        )
        counters[kernel] = entry
    entry[0].inc()
    if start is not None:
        entry[1].observe(perf_counter() - start)


# ----------------------------------------------------------------------
# kernels and the 2x2 vector-DD API
# ----------------------------------------------------------------------
def _make_kernel(package, mode, matrix, target, controls):
    """Build (or reuse) the pooled engine's kernel for one gate."""
    engine = package._pooled
    if type(matrix) is np.ndarray and not matrix.flags.writeable:
        # An immutable (interned gate-library) matrix can be keyed by
        # identity; the cache entry pins it so its id stays valid.
        key = (mode, id(matrix), int(target), tuple(sorted(controls.items())))
    else:
        matrix = np.asarray(matrix, dtype=complex)
        key = (
            mode, matrix.tobytes(), int(target), tuple(sorted(controls.items()))
        )
    generation = engine.weights.generation
    hit = engine._kernel_cache.get(key)
    if hit is not None:
        kernel, built_at, _pinned = hit
        # A mint-stable canonicalization is valid forever; a snapped one
        # only while no new representative has appeared since it was built.
        if kernel.cacheable or built_at == generation:
            return kernel
    kernel = PooledApplyKernel(package, mode, matrix, target, controls)
    if kernel.cacheable or engine.weights.generation == generation:
        engine._kernel_cache[key] = (kernel, generation, matrix)
    return kernel


def _control_map(
    controls: Sequence[int], negative_controls: Sequence[int]
) -> Dict[int, int]:
    mapping: Dict[int, int] = {}
    for line in controls:
        mapping[int(line)] = 1
    for line in negative_controls:
        if int(line) in mapping:
            raise DDError("a line cannot be both a positive and negative control")
        mapping[int(line)] = 0
    if len(mapping) != len(controls) + len(negative_controls):
        raise DDError("control lines must be distinct")
    return mapping


def apply_single_qubit(package, state: Edge, matrix: np.ndarray, target: int) -> Edge:
    """Apply a single-qubit gate directly to a vector DD: ``U_t |state>``."""
    return apply_controlled(package, state, matrix, target)


def apply_controlled(
    package,
    state: Edge,
    matrix: np.ndarray,
    target: int,
    controls: Sequence[int] = (),
    negative_controls: Sequence[int] = (),
) -> Edge:
    """Apply a (multi-)controlled single-qubit gate directly to a vector DD."""
    stage = (matrix, target, _control_map(controls, negative_controls))
    return _run_stages(package, state, "v", (stage,))


def _run_stages(package, operand: Edge, mode: str, stages) -> Edge:
    """Run 2x2 kernel stages in order: one GC check and one observation
    per gate, under the single stage's kernel or under ``swap``."""
    package._maybe_gc()
    start = perf_counter() if package._obs_on else None
    for matrix, target, controls in stages:
        kernel = _make_kernel(package, mode, matrix, target, controls)
        operand = kernel.run(operand)
    if start is not None:
        _observe(package, kernel.kernel if len(stages) == 1 else "swap", start)
    return operand


# ----------------------------------------------------------------------
# circuit-IR dispatch
# ----------------------------------------------------------------------
def _swap_stages(line_a: int, line_b: int, controls: Dict[int, int]):
    """SWAP as ``cx(b->a) . ccx(controls + a -> b) . cx(b->a)``: the
    Fredkin decomposition with every extra control on the middle Toffoli,
    as in the SWAP gate DD, so both give the same operator."""
    outer = (_X_MATRIX, line_a, {line_b: 1})
    return (outer, (_X_MATRIX, line_b, {**controls, line_a: 1}), outer)


def _stages(operation) -> Tuple[Tuple[np.ndarray, int, Dict[int, int]], ...]:
    """The 2x2 kernel stages ``(matrix, target, controls)`` of a gate in
    *product order*: the first stage is the rightmost factor, the one a
    state meets first."""
    matrix = operation.matrix_readonly()
    controls = _control_map(operation.controls, operation.negative_controls)
    if matrix.shape == (2, 2):
        return ((matrix, operation.targets[0], controls),)
    line_a, line_b = operation.targets
    if operation.gate == "swap":
        return _swap_stages(line_a, line_b, controls)
    if controls:
        raise GateError(
            f"controlled two-qubit gate {operation.gate!r} is not supported; "
            "decompose it into controlled single-qubit gates and CNOTs"
        )
    # iSWAP = SWAP . CZ . (S x S); its adjoint uses S-dagger.
    phase = _S_MATRIX if operation.gate == "iswap" else _SDG_MATRIX
    return (
        (phase, line_a, {}),
        (phase, line_b, {}),
        (_Z_MATRIX, line_a, {line_b: 1}),
    ) + _swap_stages(line_a, line_b, {})


def apply_operation(package, operand: Edge, operation, side: str = "left") -> Edge:
    """Apply one :class:`~repro.qc.operations.GateOp` to a DD.

    A vector DD takes the gate from the left (``g |psi>``, one simulation
    step).  A matrix DD takes it from the left (``g . E``) or from the
    right (``E . g``), the two moves of the alternating equivalence scheme.
    Raises :class:`~repro.errors.GateError` for a controlled iSWAP, which
    has no decomposition here and no gate DD either.
    """
    if side not in ("left", "right"):
        raise DDError(f"side must be 'left' or 'right', got {side!r}")
    if isinstance(operand.node, MatrixNode):
        mode = "ml" if side == "left" else "mr"
    elif side == "left":
        mode = "v"
    else:
        raise DDError("only a matrix DD can take a gate from the right")
    stages = _stages(operation)
    if side == "right":
        # E . (Fk ... F1) groups as ((E . Fk) . ...) . F1: the last factor
        # multiplies first from the right.
        stages = stages[::-1]
    return _run_stages(package, operand, mode, stages)
