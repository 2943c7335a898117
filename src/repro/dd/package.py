"""The decision-diagram package facade.

:class:`DDPackage` owns the complex table, the unique tables and the compute
tables, and exposes every operation the paper builds on:

* construction of state DDs (``zero_state``, ``basis_state``,
  ``from_state_vector``) and operation DDs (``identity``, ``from_matrix``,
  ``single_qubit_gate``, ``controlled_gate``, ``two_qubit_gate``);
* arithmetic — element-wise addition, matrix-vector and matrix-matrix
  multiplication (paper Fig. 4), tensor products by terminal replacement
  (paper Fig. 3) and conjugate transposition;
* queries — node counts (terminal excluded, as in the paper), amplitudes,
  dense reconstruction, inner products and norms.

The recursions run on the pooled index engine of :mod:`repro.dd.pooled`;
the package converts between its node indices and public edges.  All edge
weights flowing through the package are canonicalized through the
complex table, so edges compare with plain ``==`` and two structurally equal
diagrams share the very same root node (canonicity; paper Sec. III-C).

Qubit/level convention follows the paper's big-endian notation: level ``n-1``
(the root) is the most-significant qubit ``q_{n-1}``, level ``0`` is ``q_0``.
"""

from __future__ import annotations

import os
import weakref
from time import perf_counter
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dd.complex_table import ComplexTable, DEFAULT_TOLERANCE
from repro.dd.compute_table import ComputeTable
from repro.dd.edge import Edge, ONE_EDGE, ZERO_EDGE
from repro.dd.governance import GcStats, MemoryBudget, ResourceGovernor
from repro.dd.node import MatrixNode, TERMINAL
from repro.dd.normalization import NormalizationScheme
from repro.dd.pool import WeightPool
from repro.dd.pooled import MATRIX, PooledEngine, PooledUniqueAdapter, VECTOR, WalkEntry
from repro.errors import DDError, DimensionMismatchError, InvalidStateError
from repro.obs.metrics import DEFAULT_TIME_BUCKETS, MetricsRegistry

_ID2 = np.eye(2, dtype=complex)

#: Elementary matrices |i><j| used to decompose two-qubit gates.
_ELEMENTARY = {
    (i, j): np.array(
        [[1.0 if (r, c) == (i, j) else 0.0 for c in (0, 1)] for r in (0, 1)],
        dtype=complex,
    )
    for i in (0, 1)
    for j in (0, 1)
}

BitString = Union[str, int, Sequence[int]]


def _check_widths(left: Edge, right: Edge, operation: str) -> None:
    """Both operands of a binary operation must span the same qubits."""
    if left.node.var != right.node.var:
        raise DimensionMismatchError(
            f"cannot {operation} DDs over {left.node.var + 1} and "
            f"{right.node.var + 1} qubits"
        )


def _bits_from(value: BitString, num_qubits: int) -> Tuple[int, ...]:
    """Normalize a basis-state designator to a big-endian bit tuple."""
    if isinstance(value, str):
        if len(value) != num_qubits or any(c not in "01" for c in value):
            raise DDError(f"invalid basis string {value!r} for {num_qubits} qubits")
        return tuple(int(c) for c in value)
    if isinstance(value, int):
        if not 0 <= value < (1 << num_qubits):
            raise DDError(f"basis index {value} out of range for {num_qubits} qubits")
        return tuple((value >> (num_qubits - 1 - k)) & 1 for k in range(num_qubits))
    bits = tuple(int(b) for b in value)
    if len(bits) != num_qubits or any(b not in (0, 1) for b in bits):
        raise DDError(f"invalid bit sequence {value!r} for {num_qubits} qubits")
    return bits


class DDPackage:
    """A self-contained decision-diagram package instance.

    Diagrams created by different packages must not be mixed: canonicity
    only holds within one package's unique tables.

    Gates are applied by the direct kernels of :mod:`repro.dd.apply`
    (:func:`repro.qc.dd_builder.apply_gate`).  :meth:`multiply`, :meth:`kron`
    and the gate-DD builders stay the paper's operations (Figs. 3-4), for
    functionality construction and for gates without a kernel.

    Parameters
    ----------
    tolerance:
        Complex-number identification tolerance.
    vector_scheme:
        Normalization scheme for vector nodes.  The default ``L2`` scheme
        (paper footnote 3) makes subtree norms 1, enabling single-path
        sampling; ``MAX_MAGNITUDE`` is provided for ablation.
    registry:
        Metrics registry receiving the package's table statistics and
        operation counters/timers.  Each package creates a private registry
        by default (so per-package statistics stay separate); pass one
        explicitly to aggregate several components into one report.
    budget:
        Memory budget enforced by the package's resource governor
        (:mod:`repro.dd.governance`).  The default budget has no limits:
        ``incref``/``decref``/``gc`` still work (so workers can force a
        collection between jobs), but no automatic collection triggers.
    sanitize_every:
        Run the structural sanitizer (:mod:`repro.sanitizer`) every N
        public operations, raising :class:`~repro.errors.SanitizerError`
        on the first violation.  ``0`` disables op-boundary sanitizing;
        ``None`` (the default) reads the ``REPRO_SANITIZE_EVERY``
        environment variable (unset/invalid means disabled).  While
        enabled, the sanitizer also runs after every garbage collection.
    event_bus:
        Optional :class:`repro.obs.events.EventBus` onto which the package
        publishes structured events: ``dd.gc`` per collection,
        ``dd.pressure`` per pressure-tier transition and ``dd.sanitize``
        per failing sanitizer run (the live dashboard's state feed).

    The variable order is fixed: level ``k`` hosts qubit ``q_k``.  A
    different order is a wire permutation of the circuit before simulation
    (:func:`repro.qc.transforms.permute_qubits`; paper Sec. III-C).

    Matrix DDs are stored with identity skipping (arXiv:2406.11959, see
    :mod:`repro.dd.pooled`), but every matrix edge the package hands out
    shows the paper's dense DD: its node sits at the DD's top level, its
    views expose skipped levels as identity nodes, and :meth:`node_count`
    counts them.
    """

    _OPERATION_NAMES = ("add", "multiply", "kron", "adjoint", "inner_product")

    def __init__(
        self,
        tolerance: float = DEFAULT_TOLERANCE,
        vector_scheme: NormalizationScheme = NormalizationScheme.L2,
        cache_capacity: int = 1 << 16,
        registry: Optional[MetricsRegistry] = None,
        budget: Optional[MemoryBudget] = None,
        sanitize_every: Optional[int] = None,
        event_bus=None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Optional :class:`repro.obs.events.EventBus`: the governor
        #: publishes GC/pressure events onto it and :meth:`sanitize`
        #: publishes its verdicts, feeding the service's live streams.
        self.event_bus = event_bus
        self.complex_table = WeightPool(tolerance, registry=self.registry)
        self.vector_scheme = vector_scheme
        self._add_cache = ComputeTable("add", cache_capacity, registry=self.registry)
        self._mult_mv_cache = ComputeTable(
            "mult-mv", cache_capacity, registry=self.registry
        )
        self._mult_mm_cache = ComputeTable(
            "mult-mm", cache_capacity, registry=self.registry
        )
        self._kron_cache = ComputeTable("kron", cache_capacity, registry=self.registry)
        self._adjoint_cache = ComputeTable(
            "adjoint", cache_capacity, registry=self.registry
        )
        self._inner_cache = ComputeTable(
            "inner", cache_capacity, registry=self.registry
        )
        self._apply_cache = ComputeTable(
            "apply", cache_capacity, registry=self.registry
        )
        self._pooled = PooledEngine(
            self.complex_table,
            vector_scheme,
            {
                "add": self._add_cache,
                "mult-mv": self._mult_mv_cache,
                "mult-mm": self._mult_mm_cache,
                "kron": self._kron_cache,
                "adjoint": self._adjoint_cache,
                "inner": self._inner_cache,
                "apply": self._apply_cache,
            },
        )
        self._vector_unique = PooledUniqueAdapter(
            self._pooled, "vector", registry=self.registry
        )
        self._matrix_unique = PooledUniqueAdapter(
            self._pooled, "matrix", registry=self.registry
        )
        # Operation counters/timers cover only the *public* entry points;
        # the recursive workers below them stay uninstrumented so the hot
        # recursion pays nothing.
        self._obs_on = self.registry.enabled
        self._op_counters = {
            name: self.registry.counter("dd_ops_total", {"op": name})
            for name in self._OPERATION_NAMES
        }
        self._op_timers = {
            name: self.registry.histogram(
                "dd_op_seconds", DEFAULT_TIME_BUCKETS, {"op": name}
            )
            for name in self._OPERATION_NAMES
        }
        # Sanitizer state must exist before the governor: `collect()` calls
        # back into `_post_gc_sanitize()`.
        if sanitize_every is None:
            raw = os.environ.get("REPRO_SANITIZE_EVERY", "")
            try:
                sanitize_every = int(raw) if raw.strip() else 0
            except ValueError:
                sanitize_every = 0
        self.sanitize_every = max(0, int(sanitize_every))
        self._sanitize_ticks = 0
        self.sanitize_runs = 0
        self.sanitize_violations = 0
        self.last_sanitize_report = None
        self._m_sanitize_runs = self.registry.counter("dd_sanitize_runs_total")
        self._m_sanitize_violations = self.registry.counter(
            "dd_sanitize_violations_total"
        )
        self.governor = ResourceGovernor(
            self,
            budget if budget is not None else MemoryBudget(),
            self.registry,
            event_bus=event_bus,
        )
        # Occupancy is sampled at export time through a weakly-bound
        # collector, so a shared registry never keeps a package alive.
        ref = weakref.ref(self)
        self.registry.add_collector(
            lambda: None if ref() is None else ref()._collect_occupancy()
        )

    def _collect_occupancy(self) -> None:
        """Sample table occupancy into gauges (export-time collector)."""
        registry = self.registry
        registry.gauge("dd_complex_table_entries").set(len(self.complex_table))
        registry.gauge("dd_unique_table_entries", {"kind": "vector"}).set(
            len(self._vector_unique)
        )
        registry.gauge("dd_unique_table_entries", {"kind": "matrix"}).set(
            len(self._matrix_unique)
        )
        for table in self._compute_tables():
            registry.gauge(
                "dd_compute_table_entries", {"table": table.name}
            ).set(len(table))
        # Plain-int hot-path counters, synced into the registry at export
        # time so the recursions pay nothing while metrics are idle.
        registry.counter("dd_identity_skipped_total").set_value(
            self.identity_skip_count
        )

    def _observe_op(self, name: str, start: float) -> None:
        self._op_counters[name].inc()
        self._op_timers[name].observe(perf_counter() - start)

    # ------------------------------------------------------------------
    # node creation (normalizing constructors)
    # ------------------------------------------------------------------
    def make_vector_node(self, var: int, edges: Sequence[Edge]) -> Edge:
        """Create (or reuse) a normalized vector node; returns its edge.

        The returned edge's weight is the common factor extracted by the
        normalization scheme.  If all successors are zero, the zero stub is
        returned instead of a node.
        """
        if var < 0:
            raise DDError("vector nodes require a non-negative level")
        return self._pooled.make_node_public(VECTOR, var, edges)

    def make_matrix_node(self, var: int, edges: Sequence[Edge]) -> Edge:
        """Create (or reuse) a normalized matrix node; returns its edge."""
        if var < 0:
            raise DDError("matrix nodes require a non-negative level")
        return self._pooled.make_node_public(MATRIX, var, edges)

    # ------------------------------------------------------------------
    # state construction
    # ------------------------------------------------------------------
    def zero_state(self, num_qubits: int) -> Edge:
        """The all-zero state |0...0> as a vector DD (paper Ex. 3)."""
        return self.basis_state(num_qubits, 0)

    def basis_state(self, num_qubits: int, bits: BitString) -> Edge:
        """The computational basis state |bits> as a vector DD."""
        if num_qubits <= 0:
            raise DDError("states require at least one qubit")
        bit_tuple = _bits_from(bits, num_qubits)
        edge = ONE_EDGE
        for var in range(num_qubits):
            bit = bit_tuple[num_qubits - 1 - var]
            children = [ZERO_EDGE, ZERO_EDGE]
            children[bit] = edge
            edge = self.make_vector_node(var, children)
        return edge

    def from_state_vector(self, vector: Iterable[complex]) -> Edge:
        """Build a vector DD from a dense state vector of length ``2**n``.

        The recursive sub-vector decomposition of paper Sec. III-A; sharing
        happens automatically through the unique table.
        """
        array = np.asarray(list(vector), dtype=complex).reshape(-1)
        size = array.shape[0]
        num_qubits = int(size).bit_length() - 1
        if size < 2 or (1 << num_qubits) != size:
            raise InvalidStateError(f"state vector length {size} is not a power of two >= 2")
        if not np.isfinite(np.vdot(array, array).real):
            raise InvalidStateError(
                "state vector amplitudes must be finite with a finite norm"
            )
        return self._vector_from_array(array, num_qubits - 1)

    def _vector_from_array(self, array: np.ndarray, var: int) -> Edge:
        if var < 0:
            value = complex(array[0])
            if self.complex_table.is_zero(value):
                return ZERO_EDGE
            return Edge(TERMINAL, self.complex_table.lookup(value))
        half = array.shape[0] // 2
        low = self._vector_from_array(array[:half], var - 1)
        high = self._vector_from_array(array[half:], var - 1)
        return self.make_vector_node(var, (low, high))

    # ------------------------------------------------------------------
    # matrix construction
    # ------------------------------------------------------------------
    def identity(self, num_qubits: int) -> Edge:
        """The identity operation on ``num_qubits`` qubits as a matrix DD."""
        if num_qubits <= 0:
            raise DDError("operations require at least one qubit")
        edge = ONE_EDGE
        for var in range(num_qubits):
            edge = self.make_matrix_node(var, (edge, ZERO_EDGE, ZERO_EDGE, edge))
        return edge

    def from_matrix(self, matrix: "np.ndarray | Sequence[Sequence[complex]]") -> Edge:
        """Build a matrix DD from a dense ``2**n x 2**n`` matrix.

        Splits into the four sub-matrices ``U_ij`` recursively (paper Ex. 7).
        """
        array = np.asarray(matrix, dtype=complex)
        if array.ndim != 2 or array.shape[0] != array.shape[1]:
            raise DDError(f"expected a square matrix, got shape {array.shape}")
        size = array.shape[0]
        num_qubits = int(size).bit_length() - 1
        if size < 2 or (1 << num_qubits) != size:
            raise DDError(f"matrix dimension {size} is not a power of two >= 2")
        if not np.isfinite(array).all():
            raise DDError("matrix entries must be finite")
        return self._matrix_from_array(array, num_qubits - 1)

    def _matrix_from_array(self, array: np.ndarray, var: int) -> Edge:
        if var < 0:
            value = complex(array[0, 0])
            if self.complex_table.is_zero(value):
                return ZERO_EDGE
            return Edge(TERMINAL, self.complex_table.lookup(value))
        half = array.shape[0] // 2
        blocks = (
            array[:half, :half],
            array[:half, half:],
            array[half:, :half],
            array[half:, half:],
        )
        children = tuple(self._matrix_from_array(block, var - 1) for block in blocks)
        return self.make_matrix_node(var, children)

    def _chain(self, num_qubits: int, factors: Dict[int, np.ndarray]) -> Edge:
        """Matrix DD for a tensor-product chain with 2x2 ``factors`` at the
        given qubit lines and identities everywhere else."""
        edge = ONE_EDGE
        for var in range(num_qubits):
            matrix = factors.get(var, _ID2)
            children: List[Edge] = []
            for i in (0, 1):
                for j in (0, 1):
                    value = complex(matrix[i, j])
                    if self.complex_table.is_zero(value) or edge.is_zero:
                        children.append(ZERO_EDGE)
                    else:
                        weight = self.complex_table.lookup(value * edge.weight)
                        children.append(Edge(edge.node, weight))
            edge = self.make_matrix_node(var, children)
        return edge

    def single_qubit_gate(
        self, num_qubits: int, matrix: np.ndarray, target: int
    ) -> Edge:
        """Matrix DD of a single-qubit gate embedded into ``num_qubits``
        qubits (identity on all other lines; paper Ex. 3 / Fig. 3)."""
        self._check_line(num_qubits, target)
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (2, 2):
            raise DDError(f"expected a 2x2 matrix, got shape {matrix.shape}")
        return self._chain(num_qubits, {target: matrix})

    def controlled_gate(
        self,
        num_qubits: int,
        matrix: np.ndarray,
        target: int,
        controls: Sequence[int] = (),
        negative_controls: Sequence[int] = (),
    ) -> Edge:
        """Matrix DD of a (multi-)controlled single-qubit gate.

        Uses the identity ``CU = I + P_c ⊗ (U - I)`` where ``P_c`` projects
        the control lines onto their active values: the gate acts only where
        all positive controls are |1> and all negative controls |0>.
        """
        self._check_line(num_qubits, target)
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (2, 2):
            raise DDError(f"expected a 2x2 matrix, got shape {matrix.shape}")
        lines = {target, *controls, *negative_controls}
        if len(lines) != 1 + len(controls) + len(negative_controls):
            raise DDError("target and control lines must be distinct")
        for line in lines:
            self._check_line(num_qubits, line)
        if not controls and not negative_controls:
            return self._chain(num_qubits, {target: matrix})
        factors: Dict[int, np.ndarray] = {target: matrix - _ID2}
        for control in controls:
            factors[control] = _ELEMENTARY[(1, 1)]
        for control in negative_controls:
            factors[control] = _ELEMENTARY[(0, 0)]
        return self._add(self.identity(num_qubits), self._chain(num_qubits, factors))

    def two_qubit_gate(
        self, num_qubits: int, matrix: np.ndarray, qubit_high: int, qubit_low: int
    ) -> Edge:
        """Matrix DD of an arbitrary two-qubit gate on any pair of lines.

        ``matrix`` is the 4x4 unitary in big-endian order with ``qubit_high``
        as the more significant of the two lines.  Decomposes into
        ``sum_ij |i><j|_high ⊗ B_ij_low`` (four tensor-product chains).
        """
        self._check_line(num_qubits, qubit_high)
        self._check_line(num_qubits, qubit_low)
        if qubit_high == qubit_low:
            raise DDError("two-qubit gates need two distinct lines")
        if qubit_high < qubit_low:
            raise DDError("qubit_high must be the more significant line")
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (4, 4):
            raise DDError(f"expected a 4x4 matrix, got shape {matrix.shape}")
        result = ZERO_EDGE
        for i in (0, 1):
            for j in (0, 1):
                block = matrix[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                if np.allclose(block, 0.0, atol=self.complex_table.tolerance):
                    continue
                term = self._chain(
                    num_qubits,
                    {qubit_high: _ELEMENTARY[(i, j)], qubit_low: block},
                )
                result = self._add(result, term)
        return result

    @staticmethod
    def _check_line(num_qubits: int, line: int) -> None:
        if not 0 <= line < num_qubits:
            raise DDError(f"qubit line {line} out of range for {num_qubits} qubits")

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def add(self, left: Edge, right: Edge) -> Edge:
        """Element-wise sum of two vector or two matrix DDs (paper Fig. 4)."""
        self._maybe_gc()
        if not self._obs_on:
            return self._add(left, right)
        start = perf_counter()
        result = self._add(left, right)
        self._observe_op("add", start)
        return result

    def _add(self, left: Edge, right: Edge) -> Edge:
        if left.is_zero:
            return right
        if right.is_zero:
            return left
        engine = self._pooled
        lt, rt = left.node.is_terminal, right.node.is_terminal
        if not lt and not rt and (
            isinstance(left.node, MatrixNode) != isinstance(right.node, MatrixNode)
        ):
            raise DDError("cannot add a vector DD and a matrix DD")
        _check_widths(left, right, "add")
        probe = right.node if lt else left.node
        kind = MATRIX if isinstance(probe, MatrixNode) else VECTOR
        return engine.to_edge(
            kind,
            engine.add(kind, engine.from_edge(left), engine.from_edge(right)),
            probe.var,
        )

    def multiply(self, operation: Edge, operand: Edge) -> Edge:
        """Matrix-vector or matrix-matrix product (paper Fig. 4).

        ``operation`` must be a matrix DD; ``operand`` may be a vector DD
        (simulation step) or a matrix DD (functionality construction).
        """
        self._maybe_gc()
        if not self._obs_on:
            return self._multiply(operation, operand)
        start = perf_counter()
        result = self._multiply(operation, operand)
        self._observe_op("multiply", start)
        return result

    def _multiply(self, operation: Edge, operand: Edge) -> Edge:
        if operation.is_zero or operand.is_zero:
            return ZERO_EDGE
        if not isinstance(operation.node, MatrixNode):
            raise DDError("the first multiply operand must be a matrix DD")
        _check_widths(operation, operand, "multiply")
        engine = self._pooled
        if isinstance(operand.node, MatrixNode):
            raw = engine.multiply_mm(
                engine.from_edge(operation), engine.from_edge(operand)
            )
            return engine.to_edge(MATRIX, raw, operand.node.var)
        raw = engine.multiply_mv(engine.from_edge(operation), engine.from_edge(operand))
        return engine.to_edge(VECTOR, raw)

    def kron(self, top: Edge, bottom: Edge) -> Edge:
        """Tensor product ``top ⊗ bottom`` by terminal replacement.

        The terminal of ``top`` is replaced by the root of ``bottom`` and the
        ``top`` levels are shifted above ``bottom``'s (paper Fig. 3).  Works
        for two vector DDs or two matrix DDs.
        """
        self._maybe_gc()
        if not self._obs_on:
            return self._kron(top, bottom)
        start = perf_counter()
        result = self._kron(top, bottom)
        self._observe_op("kron", start)
        return result

    def _kron(self, top: Edge, bottom: Edge) -> Edge:
        if top.is_zero or bottom.is_zero:
            return ZERO_EDGE
        if (
            not top.node.is_terminal
            and not bottom.node.is_terminal
            and isinstance(top.node, MatrixNode) != isinstance(bottom.node, MatrixNode)
        ):
            raise DDError("cannot tensor a vector DD with a matrix DD")
        shift = bottom.node.var + 1
        engine = self._pooled
        probe = bottom.node if top.node.is_terminal else top.node
        kind = MATRIX if isinstance(probe, MatrixNode) else VECTOR
        return engine.to_edge(
            kind,
            engine.kron(kind, engine.from_edge(top), engine.from_edge(bottom), shift),
            top.node.var + shift,
        )

    # ------------------------------------------------------------------
    # direct gate application (no gate DD is constructed)
    # ------------------------------------------------------------------
    def apply_single_qubit_gate(
        self, state: Edge, matrix: np.ndarray, target: int
    ) -> Edge:
        """Apply a single-qubit gate directly to a vector DD.

        Unlike :meth:`single_qubit_gate` + :meth:`multiply`, no full-system
        matrix DD is built — the kernel recurses over the state diagram
        alone (:mod:`repro.dd.apply`).
        """
        from repro.dd import apply as apply_kernels

        self._check_line(self.num_qubits(state), target)
        return apply_kernels.apply_single_qubit(self, state, matrix, target)

    def apply_controlled_gate(
        self,
        state: Edge,
        matrix: np.ndarray,
        target: int,
        controls: Sequence[int] = (),
        negative_controls: Sequence[int] = (),
    ) -> Edge:
        """Apply a (multi-)controlled single-qubit gate directly to a
        vector DD (the direct counterpart of :meth:`controlled_gate`)."""
        from repro.dd import apply as apply_kernels

        num_qubits = self.num_qubits(state)
        for line in (target, *controls, *negative_controls):
            self._check_line(num_qubits, line)
        return apply_kernels.apply_controlled(
            self, state, matrix, target, controls, negative_controls
        )

    def apply_swap_gate(
        self,
        state: Edge,
        line_a: int,
        line_b: int,
        controls: Sequence[int] = (),
        negative_controls: Sequence[int] = (),
    ) -> Edge:
        """Apply a (controlled) SWAP directly to a vector DD."""
        from repro.dd import apply as apply_kernels

        num_qubits = self.num_qubits(state)
        for line in (line_a, line_b, *controls, *negative_controls):
            self._check_line(num_qubits, line)
        return apply_kernels.apply_swap(
            self, state, line_a, line_b, controls, negative_controls
        )

    def adjoint(self, operation: Edge) -> Edge:
        """Conjugate transpose of a matrix DD."""
        self._maybe_gc()
        if not self._obs_on:
            return self._adjoint(operation)
        start = perf_counter()
        result = self._adjoint(operation)
        self._observe_op("adjoint", start)
        return result

    def _adjoint(self, operation: Edge) -> Edge:
        if operation.is_zero:
            return ZERO_EDGE
        if not operation.node.is_terminal and not isinstance(
            operation.node, MatrixNode
        ):
            raise DDError("adjoint is only defined for matrix DDs")
        engine = self._pooled
        return engine.to_edge(
            MATRIX, engine.adjoint(engine.from_edge(operation)), operation.node.var
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @staticmethod
    def num_qubits(edge: Edge) -> int:
        """Number of qubits of a (non-zero) DD rooted at ``edge``."""
        return edge.node.var + 1

    def node_count(self, edge: Edge) -> int:
        """Number of non-terminal nodes reachable from ``edge``.

        The terminal is not counted, following the paper's convention
        (Ex. 6: the Bell-state DD "consists of 3 nodes").  A matrix DD
        counts as the paper's dense DD, identity nodes included.
        """
        node = edge.node
        if node.is_terminal:
            return 0
        return self._pooled.count_nodes(
            node._KIND, self._pooled.node_index(node), node.var
        )

    def walk(self, edge: Edge) -> Dict[Hashable, WalkEntry]:
        """The nodes of the DD rooted at ``edge`` as the renderers read
        them, without creating node views: ``key -> (var, ((child key,
        weight), ...))`` in depth-first pre-order, the root first.

        Keys are hashable, one per node a view would show: a vector node's
        index, or a matrix node's ``(level, index)``, skipped levels
        included as identity nodes.  Every child key that is not a key of
        the result is the terminal; a zero stub carries weight ``0``.  A
        root of another package raises :class:`~repro.errors.DDError`.
        See :meth:`repro.dd.pooled.PooledEngine.walk`.
        """
        return self._pooled.walk(edge)

    def amplitude(self, state: Edge, basis: BitString, num_qubits: Optional[int] = None) -> complex:
        """Amplitude of ``|basis>`` in ``state`` (product of path weights)."""
        if num_qubits is None:
            num_qubits = self.num_qubits(state)
        bits = _bits_from(basis, num_qubits)
        value = complex(1.0, 0.0)
        edge = state
        for bit in bits:
            if edge.is_zero:
                return ComplexTable.ZERO
            value *= edge.weight
            edge = edge.node.edges[bit]
        if edge.is_zero:
            return ComplexTable.ZERO
        return self.complex_table.lookup(value * edge.weight)

    def matrix_entry(
        self,
        operation: Edge,
        row: BitString,
        column: BitString,
        num_qubits: Optional[int] = None,
    ) -> complex:
        """Entry ``U[row, column]`` of a matrix DD."""
        if num_qubits is None:
            num_qubits = self.num_qubits(operation)
        row_bits = _bits_from(row, num_qubits)
        col_bits = _bits_from(column, num_qubits)
        value = complex(1.0, 0.0)
        edge = operation
        for i, j in zip(row_bits, col_bits):
            if edge.is_zero:
                return ComplexTable.ZERO
            value *= edge.weight
            edge = edge.node.edges[2 * i + j]
        if edge.is_zero:
            return ComplexTable.ZERO
        return self.complex_table.lookup(value * edge.weight)

    def to_vector(self, state: Edge, num_qubits: Optional[int] = None) -> np.ndarray:
        """Dense state vector represented by ``state`` (for small systems)."""
        if num_qubits is None:
            num_qubits = self.num_qubits(state)
        out = np.zeros(1 << num_qubits, dtype=complex)
        self._fill_vector(state, 0, complex(1.0, 0.0), out)
        return out

    def _fill_vector(
        self, edge: Edge, offset: int, weight: complex, out: np.ndarray
    ) -> None:
        if edge.is_zero:
            return
        weight = weight * edge.weight
        if edge.node.is_terminal:
            out[offset] = weight
            return
        stride = 1 << edge.node.var
        self._fill_vector(edge.node.edges[0], offset, weight, out)
        self._fill_vector(edge.node.edges[1], offset + stride, weight, out)

    def to_matrix(self, operation: Edge, num_qubits: Optional[int] = None) -> np.ndarray:
        """Dense matrix represented by ``operation`` (for small systems)."""
        if num_qubits is None:
            num_qubits = self.num_qubits(operation)
        size = 1 << num_qubits
        out = np.zeros((size, size), dtype=complex)
        self._fill_matrix(operation, 0, 0, complex(1.0, 0.0), out)
        return out

    def _fill_matrix(
        self, edge: Edge, row: int, column: int, weight: complex, out: np.ndarray
    ) -> None:
        if edge.is_zero:
            return
        weight = weight * edge.weight
        node = edge.node
        if node.is_terminal:
            out[row, column] = weight
            return
        stride = 1 << node.var
        for i in (0, 1):
            for j in (0, 1):
                self._fill_matrix(
                    node.edges[2 * i + j],
                    row + i * stride,
                    column + j * stride,
                    weight,
                    out,
                )

    def inner_product(self, left: Edge, right: Edge) -> complex:
        """The inner product ``<left|right>`` of two vector DDs."""
        self._maybe_gc()
        if not self._obs_on:
            return self._inner_product(left, right)
        start = perf_counter()
        result = self._inner_product(left, right)
        self._observe_op("inner_product", start)
        return result

    def _inner_product(self, left: Edge, right: Edge) -> complex:
        if left.is_zero or right.is_zero:
            return ComplexTable.ZERO
        if isinstance(left.node, MatrixNode) or isinstance(right.node, MatrixNode):
            raise DDError("the inner product is defined on vector DDs")
        factor = left.weight.conjugate() * right.weight
        engine = self._pooled
        return self.complex_table.lookup(
            factor
            * engine.inner_nodes(
                engine.node_index(left.node), engine.node_index(right.node)
            )
        )

    def norm_squared(self, state: Edge) -> float:
        """Squared L2 norm of a vector DD."""
        return self.inner_product(state, state).real

    def fidelity(self, left: Edge, right: Edge) -> float:
        """``|<left|right>|**2`` of two (normalized) states."""
        return abs(self.inner_product(left, right)) ** 2

    # ------------------------------------------------------------------
    # resource governance
    # ------------------------------------------------------------------
    def incref(self, edge: Edge) -> Edge:
        """Register a long-lived root edge with the governor.

        Holders of roots that must survive garbage collection — simulators,
        verification engines, service sessions — call this so a complex-
        table sweep never purges the root's weight representative.  Node
        liveness itself is still governed by ordinary Python references.
        Returns ``edge`` for call-through convenience.
        """
        self.governor.incref(edge)
        return edge

    def decref(self, edge: Edge) -> None:
        """Release a root edge registered with :meth:`incref`.

        Unbalanced calls are tolerated: a decref of an unregistered edge is
        a no-op, and a forgotten decref self-cleans once the node dies.
        """
        self.governor.decref(edge)

    def gc(self, force: bool = False) -> GcStats:
        """Run one garbage collection at the current pressure tier.

        ``force=True`` runs the full HARD tier (clear compute tables, sweep
        the complex table) regardless of measured pressure.  Only safe
        between operations — never call from inside a DD recursion.
        """
        return self.governor.collect(force=force)

    def _maybe_gc(self) -> None:
        """Governor hook for public operation entry points.

        Runs *before* the operation starts, when no un-marked intermediate
        edges are in flight; a sweep mid-recursion could purge weights held
        only by local variables and silently degrade canonicity.  The
        sanitizer tick shares this boundary for the same reason: between
        operations every live edge is table-resident, so a violation here
        is a real invariant break, never an in-flight intermediate.
        """
        if self.sanitize_every:
            self._sanitize_ticks += 1
            if self._sanitize_ticks >= self.sanitize_every:
                self._sanitize_ticks = 0
                self.sanitize(raise_on_violation=True)
        if self.governor.should_collect():
            self.governor.collect()

    # ------------------------------------------------------------------
    # sanitizing
    # ------------------------------------------------------------------
    def sanitize(self, raise_on_violation: bool = False):
        """Verify the package's structural invariants.

        Walks the unique tables, the complex table and the governor's root
        registry, checking hash-consing canonicity, normalization, weight
        hygiene and representative uniqueness (see :mod:`repro.sanitizer`).
        Returns the :class:`~repro.sanitizer.core.SanitizeReport`; with
        ``raise_on_violation`` a failing report raises
        :class:`~repro.errors.SanitizerError` instead.
        """
        from repro.sanitizer.core import DDSanitizer

        report = DDSanitizer(self).run()
        self.sanitize_runs += 1
        self.last_sanitize_report = report
        self._m_sanitize_runs.inc()
        if not report.ok:
            self.sanitize_violations += len(report.violations)
            self._m_sanitize_violations.inc(len(report.violations))
            if self.event_bus is not None:
                self.event_bus.publish("dd.sanitize", {
                    "ok": False,
                    "violations": len(report.violations),
                    "violations_total": self.sanitize_violations,
                    "checks": sorted({v.check for v in report.violations}),
                })
            if raise_on_violation:
                report.raise_if_violations()
        return report

    def _post_gc_sanitize(self) -> None:
        """Governor callback: re-verify invariants right after a collection.

        A sweep is the riskiest moment for canonicity (a live weight swept
        from the complex table lets a later lookup mint a second
        representative), so while sanitizing is enabled every collection is
        followed by a full check.
        """
        if self.sanitize_every:
            self.sanitize(raise_on_violation=True)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def clear_caches(self) -> None:
        """Drop all memoized operation results (unique tables are kept)."""
        for table in self._compute_tables():
            table.clear()
        self._pooled.clear_memos()

    def _compute_tables(self) -> Tuple[ComputeTable, ...]:
        return (
            self._add_cache,
            self._mult_mv_cache,
            self._mult_mm_cache,
            self._kron_cache,
            self._adjoint_cache,
            self._inner_cache,
            self._apply_cache,
        )

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Table statistics (sizes and hit ratios) for diagnostics."""
        result: Dict[str, Dict[str, float]] = {
            "complex_table": {
                "entries": len(self.complex_table),
                "hits": self.complex_table.hits,
                "misses": self.complex_table.misses,
            },
            "unique_vector": {
                "entries": len(self._vector_unique),
                "hits": self._vector_unique.hits,
                "misses": self._vector_unique.misses,
            },
            "unique_matrix": {
                "entries": len(self._matrix_unique),
                "hits": self._matrix_unique.hits,
                "misses": self._matrix_unique.misses,
            },
        }
        for table in self._compute_tables():
            result[table.name] = {
                "entries": len(table),
                "hits": table.hits,
                "misses": table.misses,
                "hit_ratio": table.hit_ratio,
            }
        result["governance"] = self.governor.stats()
        result["storage"] = self._pooled.stats()
        result["sanitizer"] = {
            "every": self.sanitize_every,
            "runs": self.sanitize_runs,
            "violations": self.sanitize_violations,
        }
        return result

    @property
    def identity_skip_count(self) -> int:
        """Total identity matrix nodes ``(e, 0, 0, e)`` reduced to ``e``."""
        return self._pooled.identity_skips
