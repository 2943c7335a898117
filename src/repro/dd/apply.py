"""Direct gate-application kernels for decision diagrams.

The matrix-construction path realizes every gate by building the full
``n``-qubit matrix DD (a kron chain of identities around the local 2x2
unitary) and multiplying it onto the state.  Dedicated DD packages avoid
that overhead with *direct apply* routines (Zulehner/Hillmich/Wille, DATE
2019; Wille/Hillmich/Burgholzer 2021): the gate is applied by recursing
over the state diagram alone — no gate DD is ever constructed, so no
matrix nodes are allocated and levels the gate does not touch are copied
by reference.

This module implements those kernels for

* **vector DDs** (one simulation step, paper Sec. III-B): ``g |psi>``;
* **matrix DDs** from either side (the alternating equivalence scheme of
  paper Sec. III-C / Ex. 12): ``g . E`` and ``E . g``.

Kernel taxonomy (reported through the ``dd_apply_total`` counter):

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
    SWAP / Fredkin via three CX kernel applications; iSWAP via
    ``SWAP . CZ . (S x S)``.

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
from repro.dd.pooled import PooledApplyKernel
from repro.errors import DDError
from repro.obs.metrics import DEFAULT_TIME_BUCKETS

__all__ = [
    "apply_single_qubit",
    "apply_controlled",
    "apply_swap",
    "apply_operation",
    "apply_operation_matrix",
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
# public vector-DD API
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
    package._maybe_gc()
    kernel = _make_kernel(
        package, "v", matrix, target, _control_map(controls, negative_controls)
    )
    if not package._obs_on:
        return kernel.run(state)
    start = perf_counter()
    result = kernel.run(state)
    _observe(package, kernel.kernel, start)
    return result


def apply_swap(
    package,
    state: Edge,
    line_a: int,
    line_b: int,
    controls: Sequence[int] = (),
    negative_controls: Sequence[int] = (),
) -> Edge:
    """Apply a (controlled) SWAP via three CX kernel applications.

    The standard Fredkin decomposition ``cx(c,b); ccx(ctrls+b, c); cx(c,b)``
    with all extra controls attached to the middle Toffoli — mirroring the
    SWAP gate DD so both produce the same operator.
    """
    if line_a == line_b:
        raise DDError("SWAP needs two distinct lines")
    package._maybe_gc()
    mapping = _control_map(controls, negative_controls)
    start = perf_counter() if package._obs_on else None
    outer = _make_kernel(package, "v", _X_MATRIX, line_a, {line_b: 1})
    mapping[line_a] = 1
    inner = _make_kernel(package, "v", _X_MATRIX, line_b, mapping)
    result = outer.run(inner.run(outer.run(state)))
    if start is not None:
        _observe(package, "swap", start)
    return result


def _iswap_stages(targets: Tuple[int, int], sign: int):
    """iSWAP = SWAP . CZ . (S x S); the adjoint uses S† (``sign=-1``)."""
    high, low = targets
    phase = _S_MATRIX if sign > 0 else _SDG_MATRIX
    return (
        (phase, high, {}),
        (phase, low, {}),
        (_Z_MATRIX, high, {low: 1}),
    )


# ----------------------------------------------------------------------
# circuit-IR dispatch
# ----------------------------------------------------------------------
def apply_operation(package, state: Edge, operation, num_qubits: int):
    """Apply one :class:`~repro.qc.operations.GateOp` to a vector DD.

    Returns the new state edge, or ``None`` when the operation has no
    direct kernel (the caller falls back to gate DD + multiply).
    """
    matrix = operation.matrix_readonly()
    targets = operation.targets
    if matrix.shape == (2, 2):
        return apply_controlled(
            package,
            state,
            matrix,
            targets[0],
            controls=operation.controls,
            negative_controls=operation.negative_controls,
        )
    if operation.gate == "swap":
        return apply_swap(
            package,
            state,
            targets[0],
            targets[1],
            controls=operation.controls,
            negative_controls=operation.negative_controls,
        )
    if operation.gate in ("iswap", "iswapdg") and operation.num_controls == 0:
        start = perf_counter() if package._obs_on else None
        sign = 1 if operation.gate == "iswap" else -1
        result = state
        for gate_matrix, target, ctrls in _iswap_stages(targets, sign):
            result = _make_kernel(package, "v", gate_matrix, target, ctrls).run(result)
        result = apply_swap(package, result, targets[0], targets[1])
        if start is not None:
            _observe(package, "swap", start)
        return result
    return None


def apply_operation_matrix(
    package, operand: Edge, operation, num_qubits: int, side: str = "left"
):
    """Apply a gate to a *matrix* DD from the left (``g . E``) or right
    (``E . g``) — the two moves of the alternating equivalence scheme.

    Returns ``None`` when the operation has no direct kernel.
    """
    if side not in ("left", "right"):
        raise DDError(f"side must be 'left' or 'right', got {side!r}")
    package._maybe_gc()
    mode = "ml" if side == "left" else "mr"
    matrix = operation.matrix_readonly()
    targets = operation.targets
    if matrix.shape == (2, 2):
        kernel = _make_kernel(
            package,
            mode,
            matrix,
            targets[0],
            _control_map(operation.controls, operation.negative_controls),
        )
        if not package._obs_on:
            return kernel.run(operand)
        start = perf_counter()
        result = kernel.run(operand)
        _observe(package, kernel.kernel, start)
        return result
    if matrix.shape != (4, 4):
        return None
    stages = _matrix_stages(package, operation, targets)
    if stages is None:
        return None
    start = perf_counter() if package._obs_on else None
    if side == "left":
        # (Fk ... F1) . E groups as Fk . (... . (F1 . E)): the first product
        # factor (stages are listed in application order) multiplies first.
        ordered = stages
    else:
        # E . (Fk ... F1) groups as ((E . Fk) . ...) . F1: the last factor
        # multiplies first from the right.
        ordered = tuple(reversed(stages))
    result = operand
    for gate_matrix, target, ctrls in ordered:
        result = _make_kernel(package, mode, gate_matrix, target, ctrls).run(result)
    if start is not None:
        _observe(package, "swap", start)
    return result


def _matrix_stages(package, operation, targets):
    """Decompose a supported 4x4 gate into 2x2 stages in *product order*
    (first stage = rightmost factor, applied first to a state)."""
    extra = _control_map(operation.controls, operation.negative_controls)
    if operation.gate == "swap":
        cx_outer = (_X_MATRIX, targets[0], {targets[1]: 1})
        inner_controls = dict(extra)
        inner_controls[targets[0]] = 1
        cx_inner = (_X_MATRIX, targets[1], inner_controls)
        return (cx_outer, cx_inner, cx_outer)
    if operation.gate in ("iswap", "iswapdg") and not extra:
        sign = 1 if operation.gate == "iswap" else -1
        high, low = targets
        swap_stages = (
            (_X_MATRIX, high, {low: 1}),
            (_X_MATRIX, low, {high: 1}),
            (_X_MATRIX, high, {low: 1}),
        )
        # Product order: SWAP . CZ . (S x S) — the phase layer acts first.
        return _iswap_stages(targets, sign) + swap_stages
    return None
