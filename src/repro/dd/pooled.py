"""The pooled (index-based) DD engine behind :class:`~repro.dd.package.DDPackage`.

The engine keeps every node in a :class:`~repro.dd.pool.NodePool` and every
stored edge weight in a :class:`~repro.dd.pool.WeightPool`; the hot
recursions (addition, multiplication, tensor products, the direct apply
kernels) pass in-flight edges as ``(node_index, complex)`` pairs and never
allocate node or edge objects.  In-flight weights stay raw floats, as in
arXiv:1911.12691: only the successor weights a node *stores* and the root
weight of every edge handed out at the package boundary are canonicalized
through the complex table, so stored edges compare with ``==`` and
structurally equal diagrams share one root.  An in-flight weight is either
exactly ``0j`` (the zero stub) or not sub-tolerance.  The differential suite
checks the engine's gate kernels and its matrix products against an
independent dense simulator.

Matrix DDs are stored with identity skipping (arXiv:2406.11959): a matrix
node of the shape ``(e, 0, 0, e)`` is never consed, so a stored edge from
level ``l`` to a node at level ``k < l - 1`` stands for identities on the
levels in between.  Vector DDs never skip.

At the package boundary the engine hands out lightweight *views*
(:class:`PooledVectorNode` / :class:`PooledMatrixNode`): real
``VectorNode``/``MatrixNode`` subclasses whose ``edges`` tuple is
materialized lazily from the pool arrays, once per view.  Matrix views show
the paper's dense DD: a skipped level appears as a
:class:`PooledIdentityNode` ``(level, child)``, and a boundary matrix edge
points at the view for its full width, so a root that skips top levels
still shows its chain of identity nodes.  Views keep ``isinstance`` checks
and serialization working unchanged, and they double as GC roots: a diagram is live exactly while some view of it is reachable from
Python, so ordinary references govern liveness.  The renderers create no
views below the root: :meth:`PooledEngine.walk` reads the same dense DD
straight from the arrays.

Index invariants (enforced by the sanitizer's ``pool-*`` and ``unique-key``
checks, which read the pool arrays and create no views):

* every live node's successor indices point at live slots (or the terminal),
* every live node's weight indices point at live weight-pool entries,
* the free-list holds exactly the freed slots, each once,
* every live node is reachable through its own unique-table probe chain.

All index-keyed memoization (the shared compute tables, the interned gate
ids, the matrix normalization memo) is cleared *before* a sweep frees any
index — a stale index key would otherwise alias a recycled slot.
"""

from __future__ import annotations

import cmath
import itertools
import math
import weakref
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.dd.complex_table import ComplexTable
from repro.dd.edge import Edge, ZERO_EDGE
from repro.dd.node import MatrixNode, Node, TERMINAL, VectorNode
from repro.dd.normalization import NormalizationScheme
from repro.dd.pool import (
    NodePool,
    PooledUniqueTable,
    TERMINAL_INDEX,
    WeightPool,
)
from repro.errors import DDError, DimensionMismatchError

__all__ = [
    "PooledEngine",
    "PooledVectorNode",
    "PooledMatrixNode",
    "PooledIdentityNode",
    "PooledApplyKernel",
    "TERMINAL_KEY",
]

#: An in-flight edge: ``(node_index, raw complex weight)``.
RawEdge = Tuple[int, complex]

ZERO = ComplexTable.ZERO
ONE = ComplexTable.ONE

#: In-flight edges for the two special shapes.
ZERO_E = (TERMINAL_INDEX, ZERO)
ONE_E = (TERMINAL_INDEX, ONE)

VECTOR, MATRIX = 0, 1

#: The terminal's key in :meth:`PooledEngine.walk`, for both node kinds.
TERMINAL_KEY = TERMINAL_INDEX
#: What :meth:`PooledEngine.walk` maps a node key to: its level and its
#: ``(child key, weight)`` pairs in slot order.
WalkEntry = Tuple[int, Tuple[Tuple[Hashable, complex], ...]]


# ----------------------------------------------------------------------
# views
# ----------------------------------------------------------------------
class _PooledViewMixin:
    """Shared plumbing for pooled node views.

    Views bypass ``Node.__init__``: ``var``/``uid`` are copied from the pool
    (the uid is the pool's creation-order stamp — stable across view
    re-materialization, unique per allocation) and ``edges`` is a property
    that builds the successor tuple from the pool arrays on first access
    and memoizes it in ``_edges``.  The memo cannot go stale, for three
    reasons:

    1. :meth:`PooledEngine.sweep` marks every live view, so a view's slot
       is never freed or recycled while the view exists;
    2. :class:`~repro.dd.pool.NodePool` writes ``var``/``succ``/``wsucc``
       only in ``alloc``, so a live slot's successors never change;
    3. the weights of a marked node survive ``WeightPool.sweep_indices``.

    ``edges`` is read-only: the sanitizer and the fault injector work on
    the pool arrays, never on a view.
    """

    __slots__ = ()

    def _init_view(self, engine: "PooledEngine", index: int) -> None:
        pool = engine.vpool if self._KIND == VECTOR else engine.mpool
        self.var = pool.var[index]
        self.uid = pool.order[index]
        self._engine = engine
        self._index = index
        self._edges = None

    @property
    def edges(self):
        edges = self._edges
        if edges is None:
            edges = self._edges = self._engine.view_edges(self._KIND, self._index)
        return edges

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = type(self).__name__
        return f"<{kind} q{self.var} #{self.uid} @{self._index}>"


class PooledVectorNode(_PooledViewMixin, VectorNode):
    """View of a pooled vector node (a real :class:`VectorNode`)."""

    __slots__ = ("_engine", "_index", "_edges")
    _KIND = VECTOR

    def __init__(self, engine: "PooledEngine", index: int):
        self._init_view(engine, index)


class PooledMatrixNode(_PooledViewMixin, MatrixNode):
    """View of a pooled matrix node (a real :class:`MatrixNode`)."""

    __slots__ = ("_engine", "_index", "_edges")
    _KIND = MATRIX

    def __init__(self, engine: "PooledEngine", index: int):
        self._init_view(engine, index)


class PooledIdentityNode(MatrixNode):
    """Dense view of a level the stored matrix DD skips.

    Stands for the identity node ``(e, 0, 0, e)`` at ``var`` above the
    stored node (or terminal) ``_index``; ``e`` leads to the dense view one
    level down.  Memoized per ``(level, index)`` pair by the engine.  The
    view holds the stored child's view, so a sweep marks the child while
    the identity view lives.  It has no pool slot and no unique-table
    entry, and the sanitizer reads only pool slots, so it never sees one.
    """

    __slots__ = ("_engine", "_index", "_child", "_edges")
    _KIND = MATRIX

    def __init__(self, engine: "PooledEngine", level: int, index: int):
        self._child = engine.view(MATRIX, index)
        self.var = level
        # A negative uid that depends only on the pair, so a re-materialized
        # view keeps it (Cantor pairing of the child's uid and the level).
        total = self._child.uid + level
        self.uid = -1 - (total * (total + 1) // 2 + level)
        self._engine = engine
        self._index = index
        self._edges = None

    @property
    def edges(self):
        edges = self._edges
        if edges is None:
            unit = Edge(self._engine.matrix_view(self.var - 1, self._index), ONE)
            edges = self._edges = (unit, ZERO_EDGE, ZERO_EDGE, unit)
        return edges

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PooledIdentityNode q{self.var} #{self.uid} @{self._index}>"


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class PooledEngine:
    """Index-based DD operations over pooled storage.

    Owns the node pools, the open-addressed unique tables and the view
    caches; shares the package's :class:`WeightPool` and compute tables so
    statistics, governance accounting and cache eviction all see one set
    of tables.
    """

    def __init__(
        self,
        weights: WeightPool,
        vector_scheme: NormalizationScheme,
        caches: Dict[str, object],
    ):
        self.weights = weights
        self.vector_scheme = vector_scheme
        # Matrix nodes of the shape (e, 0, 0, e) are never consed: the
        # constructor returns ``e`` and counts the reduction here.
        self.identity_skips = 0
        self.vpool = NodePool(2)
        self.mpool = NodePool(4)
        self._vunique = PooledUniqueTable(self.vpool)
        self._munique = PooledUniqueTable(self.mpool)
        self._order = itertools.count(1)  # 0 is the terminal's uid
        self._add_cache = caches["add"]
        self._mult_mv_cache = caches["mult-mv"]
        self._mult_mm_cache = caches["mult-mm"]
        self._kron_cache = caches["kron"]
        self._adjoint_cache = caches["adjoint"]
        self._inner_cache = caches["inner"]
        self._apply_cache = caches["apply"]
        self._views: Tuple[weakref.WeakValueDictionary, weakref.WeakValueDictionary] = (
            weakref.WeakValueDictionary(),
            weakref.WeakValueDictionary(),
        )
        # Identity views of skipped matrix levels, keyed (level, index).
        self._identity_views: weakref.WeakValueDictionary = (
            weakref.WeakValueDictionary()
        )
        # Interned gate operations: op-key tuple -> small integer, so apply
        # cache keys are two-int tuples instead of nested tuples.
        self._gate_ids: Dict[tuple, int] = {}
        # Constructed apply kernels, reused across gate applications when
        # their canonicalization is mint-stable (kernel.cacheable).
        self._kernel_cache: Dict[tuple, object] = {}
        # Normalization memo for matrix nodes (the complex operation
        # caches of arXiv:1911.12691): a repeated raw weight tuple replays
        # its factor and stored weight indices with one dict probe.
        #
        # Soundness: ``lookup`` snaps a raw value to the oldest stored
        # representative within tolerance, which a later mint cannot
        # displace but a freed slot can.  Only decompositions whose every
        # stored weight resolved at distance zero (bit-identical to its
        # representative, or canonically zero) are memoized: those can
        # never resolve differently while their indices live.  A
        # raw-keyed vector memo was measured and costs more than it saves.
        self._norm_memo: Dict[tuple, tuple] = {}
        # Reachable-node counts per kind, keyed by node index (dense
        # counts for matrix nodes); see ``count_nodes``.
        self._counts: Tuple[Dict[int, int], Dict[int, int]] = ({}, {})
        self._tolerance = weights.tolerance

    _NORM_MEMO_CAP = 1 << 17

    # ------------------------------------------------------------------
    # views and edge conversion
    # ------------------------------------------------------------------
    def view(self, kind: int, index: int) -> Node:
        if index < 0:
            return TERMINAL
        cache = self._views[kind]
        node = cache.get(index)
        if node is None:
            node = (
                PooledVectorNode(self, index)
                if kind == VECTOR
                else PooledMatrixNode(self, index)
            )
            cache[index] = node
        return node

    def matrix_view(self, level: int, index: int) -> Node:
        """The dense view of stored matrix node ``index`` shown at ``level``:
        the node's own view, or an identity view if ``index`` sits below."""
        if self.var_of(MATRIX, index) == level:
            return self.view(MATRIX, index)
        key = (level, index)
        node = self._identity_views.get(key)
        if node is None:
            node = self._identity_views[key] = PooledIdentityNode(self, level, index)
        return node

    def dense_child(self, var: int, succ: int, wsucc: int) -> Node:
        """The successor a level-``var`` matrix view shows for one stored
        edge (a zero stub keeps the terminal)."""
        if succ < 0 and wsucc == 0:
            return TERMINAL
        return self.matrix_view(var - 1, succ)

    def view_edges(self, kind: int, index: int) -> Tuple[Edge, ...]:
        pool = self.vpool if kind == VECTOR else self.mpool
        value = self.weights.value
        if kind == MATRIX:
            var = pool.var[index]
            return tuple(
                Edge(self.dense_child(var, succ, wsucc), value(wsucc))
                for succ, wsucc in pool.edges_of(index)
            )
        return tuple(
            Edge(self.view(kind, succ), value(wsucc))
            for succ, wsucc in pool.edges_of(index)
        )

    def node_index(self, node: Node) -> int:
        if node.var < 0:
            return TERMINAL_INDEX
        index = getattr(node, "_index", None)
        if index is None or getattr(node, "_engine", None) is not self:
            raise DDError(
                "node does not belong to this package's pooled storage"
            )
        return index

    def to_edge(self, kind: int, edge: RawEdge, top: int = -1) -> Edge:
        """The boundary :class:`Edge` of an in-flight edge (its weight
        canonicalized).  A matrix edge points at its dense view at level
        ``top``, the DD's width minus one."""
        index, weight = edge
        if not weight:
            return ZERO_EDGE
        weights = self.weights
        widx = weights.lookup_index(weight)
        if widx == 0:
            return ZERO_EDGE
        if kind == MATRIX:
            node = self.matrix_view(max(top, self.var_of(MATRIX, index)), index)
        else:
            node = self.view(kind, index)
        return Edge(node, weights._values[widx])

    def from_edge(self, edge: Edge) -> RawEdge:
        """The in-flight edge of a boundary :class:`Edge`."""
        weights = self.weights
        widx = weights.lookup_index(edge.weight)
        if widx == 0:
            return ZERO_E
        return (self.node_index(edge.node), weights._values[widx])

    def var_of(self, kind: int, index: int) -> int:
        if index < 0:
            return -1
        pool = self.vpool if kind == VECTOR else self.mpool
        return pool.var[index]

    def count_nodes(self, kind: int, index: int, top: int = -1) -> int:
        """Reachable non-terminal node count, memoized per node index.

        A matrix DD counts as the paper's dense DD of width ``top + 1``:
        its stored nodes, plus one identity node per distinct pair
        ``(skipped level j, child c)``, including the chain from ``top``
        down to the root.  Only the chain depends on ``top``, so the memo
        holds the count below the root.

        Soundness: a pool writes a slot's ``var``/``succ``/``wsucc`` only
        in ``alloc``, and ``alloc`` reuses only slots that ``sweep`` freed.
        So the nodes reachable from an index cannot change between sweeps,
        and ``sweep`` drops the memo (``clear_memos``) before it frees any
        slot.  The same argument backs the views' successor memo.  Bound:
        the keys are allocated slot indices, so the memo never holds more
        entries than the pools have slots.
        """
        chain = 0
        if kind == MATRIX:
            chain = max(0, top - self.var_of(MATRIX, index))
        if index < 0:
            return chain
        counts = self._counts[kind]
        count = counts.get(index)
        if count is None:
            count = counts[index] = self._count_reachable(kind, index)
        return count + chain

    def _count_reachable(self, kind: int, index: int) -> int:
        """Walk the flat arrays from ``index``, counting non-terminals (and,
        for matrix nodes, the identity nodes of skipped levels)."""
        pool = self.vpool if kind == VECTOR else self.mpool
        succ = pool.succ
        arity = pool.arity
        seen = {index}
        stack = [index]
        pop = stack.pop
        push = stack.append
        if kind == VECTOR:
            while stack:
                base = pop() * arity
                for k in range(base, base + arity):
                    # Any stored successor counts, even under a
                    # (theoretical) zero weight.
                    child = succ[k]
                    if child >= 0 and child not in seen:
                        seen.add(child)
                        push(child)
            return len(seen)
        var, wsucc = pool.var, pool.wsucc
        # The highest parent level of every child a non-zero-stub edge
        # reaches: the child's identity nodes fill the levels in between.
        top_parent: Dict[int, int] = {}
        while stack:
            parent = pop()
            level = var[parent]
            base = parent * 4
            for k in range(base, base + 4):
                child = succ[k]
                if child < 0:
                    if wsucc[k] and top_parent.get(-1, -1) < level:
                        top_parent[-1] = level
                    continue
                if top_parent.get(child, -1) < level:
                    top_parent[child] = level
                if child not in seen:
                    seen.add(child)
                    push(child)
        skipped = 0
        for child, level in top_parent.items():
            skipped += level - 1 - (var[child] if child >= 0 else -1)
        return len(seen) + skipped

    # ------------------------------------------------------------------
    # read-only walk
    # ------------------------------------------------------------------
    def walk(self, root: Edge) -> Dict[Hashable, WalkEntry]:
        """Every non-terminal node the views of ``root`` show, read from the
        pool arrays without creating a view: ``key -> (var, ((child key,
        weight), ...))`` in depth-first pre-order (the root first, then
        each non-zero child in slot order), each node once.

        A vector node's key is its index.  A matrix node's key is
        ``(level, index)``: the stored node when ``level`` is its own
        level, else the identity node ``(e, 0, 0, e)`` the dense DD shows
        at that skipped level (:class:`PooledIdentityNode`).  The terminal
        is :data:`TERMINAL_KEY`, and a zero stub is weight ``0`` on it.  A
        scalar root yields nothing.  Each call builds its own dict, so no
        memo outlives it; the caller's ``root`` keeps every walked slot
        alive (a sweep marks what its view reaches).
        """
        node = root.node
        if node.var < 0:
            return {}
        index = self.node_index(node)
        if node._KIND == VECTOR:
            return self._walk_vector(index)
        return self._walk_matrix(node.var, index)

    def _walk_vector(self, index: int) -> Dict[Hashable, WalkEntry]:
        var, succ, wsucc = self.vpool.var, self.vpool.succ, self.vpool.wsucc
        values = self.weights._values
        nodes: Dict[Hashable, WalkEntry] = {}
        stack = [index]
        pop, push = stack.pop, stack.append
        while stack:
            index = pop()
            if index in nodes:
                continue
            base = index + index
            low, high = succ[base], succ[base + 1]
            wlow, whigh = wsucc[base], wsucc[base + 1]
            # Weight index 0 is the zero stub (TERMINAL_KEY is the index -1).
            if not wlow:
                low = TERMINAL_KEY
            if not whigh:
                high = TERMINAL_KEY
            nodes[index] = (var[index], ((low, values[wlow]), (high, values[whigh])))
            if high >= 0:
                push(high)
            if low >= 0:
                push(low)
        return nodes

    def _walk_matrix(self, level: int, index: int) -> Dict[Hashable, WalkEntry]:
        var, succ, wsucc = self.mpool.var, self.mpool.succ, self.mpool.wsucc
        values = self.weights._values
        stub = (TERMINAL_KEY, ZERO)
        nodes: Dict[Hashable, WalkEntry] = {}
        stack = [(level, index)]
        pop, push = stack.pop, stack.append
        while stack:
            key = pop()
            if key in nodes:
                continue
            level, index = key
            below = level - 1
            if index >= 0 and var[index] == level:
                base = 4 * index
                edges = tuple(
                    (TERMINAL_KEY if below < 0 else (below, succ[k]), values[wsucc[k]])
                    if wsucc[k] else stub
                    for k in range(base, base + 4)
                )
            else:
                unit = (TERMINAL_KEY if below < 0 else (below, index), ONE)
                edges = (unit, stub, stub, unit)
            nodes[key] = (level, edges)
            if below >= 0:
                for child, weight in reversed(edges):
                    if weight:
                        push(child)
        return nodes

    # ------------------------------------------------------------------
    # weight arithmetic (raw values)
    # ------------------------------------------------------------------
    def scale(self, edge: RawEdge, factor: complex) -> RawEdge:
        """Mirror of :meth:`Edge.scaled` on in-flight edges: the product
        stays raw, and a sub-tolerance product becomes the zero stub."""
        if factor == ONE:
            return edge
        weight = edge[1] * factor
        tol = self._tolerance
        if -tol < weight.real < tol and -tol < weight.imag < tol:
            return ZERO_E
        return (edge[0], weight)

    def _product(self, a: complex, b: complex) -> complex:
        """``a * b``, with a sub-tolerance product mapped to exactly 0j."""
        weight = a * b
        tol = self._tolerance
        if -tol < weight.real < tol and -tol < weight.imag < tol:
            return ZERO
        return weight

    # ------------------------------------------------------------------
    # node creation (normalizing constructor)
    # ------------------------------------------------------------------
    def _cons(
        self, kind: int, var: int, successors: Sequence[int], wsuccs: Sequence[int]
    ) -> int:
        """Hash-cons a node with already-normalized successors."""
        unique = self._vunique if kind == VECTOR else self._munique
        slot, found = unique.find_slot(var, successors, wsuccs)
        if found >= 0:
            unique.hits += 1
            return found
        unique.misses += 1
        pool = self.vpool if kind == VECTOR else self.mpool
        index = pool.alloc(var, successors, wsuccs, next(self._order))
        unique.insert_at(slot, index)
        return index

    def make_node(self, kind: int, var: int, edges: Sequence[RawEdge]) -> RawEdge:
        """Normalize + cons from in-flight edges; returns ``(index, factor)``.

        Applies the :class:`~repro.dd.normalization.NormalizationScheme`
        rules on the raw weights (no cleaning is needed here: an in-flight
        weight is exactly zero or not sub-tolerance).  Only the successor
        weights the node stores go through the complex table; the extracted
        factor is returned raw.  A zero input weight sends its successor to
        the terminal; a normalized weight that collapses to zero keeps its
        successor.
        """
        if kind == VECTOR and self.vector_scheme is NormalizationScheme.L2:
            lookup_index = self.weights.lookup_index
            (n0, w0), (n1, w1) = edges
            if not w0:
                if not w1:
                    return ZERO_E
                # sum() over the cleaned pair: 0 + 0.0 + |w1|**2.
                norm = math.sqrt(0.0 + abs(w1) ** 2)
                factor = cmath.rect(norm, cmath.phase(w1))
                successors = (TERMINAL_INDEX, n1)
                wsuccs = (0, lookup_index(complex(abs(w1) / norm, 0.0)))
            elif not w1:
                norm = math.sqrt(0.0 + abs(w0) ** 2)
                factor = cmath.rect(norm, cmath.phase(w0))
                successors = (n0, TERMINAL_INDEX)
                wsuccs = (lookup_index(complex(abs(w0) / norm, 0.0)), 0)
            else:
                norm = math.sqrt(abs(w0) ** 2 + abs(w1) ** 2)
                factor = cmath.rect(norm, cmath.phase(w0))
                successors = (n0, n1)
                wsuccs = (
                    lookup_index(complex(abs(w0) / norm, 0.0)),
                    lookup_index(w1 / factor),
                )
            return (self._cons(kind, var, successors, wsuccs), factor)
        # MAX_MAGNITUDE (matrix nodes; vector nodes under that scheme).
        if kind == VECTOR:
            hit = self._max_magnitude(tuple(w for _n, w in edges), None)
            if hit is None:
                return ZERO_E
            successors = tuple(n if w else TERMINAL_INDEX for n, w in edges)
            return (self._cons(kind, var, successors, hit[1]), hit[0])
        (n0, w0), (n1, w1), (n2, w2), (n3, w3) = edges
        if (
            not w1 and not w2 and w0 and n0 == n3
            and (w0 == w3 or self.weights.is_one(w3 / w0))
        ):
            self.identity_skips += 1
            return (n0, w0)
        raw = (w0, w1, w2, w3)
        hit = self._norm_memo.get(raw)
        if hit is None:
            hit = self._max_magnitude(raw, self._norm_memo)
            if hit is None:
                return ZERO_E
        successors = (
            n0 if w0 else TERMINAL_INDEX,
            n1 if w1 else TERMINAL_INDEX,
            n2 if w2 else TERMINAL_INDEX,
            n3 if w3 else TERMINAL_INDEX,
        )
        return (self._cons(kind, var, successors, hit[1]), hit[0])

    def _max_magnitude(
        self, raw: Tuple[complex, ...], memo: Optional[dict]
    ) -> Optional[Tuple[complex, Tuple[int, ...]]]:
        """``(factor, stored weight indices)`` of a row of raw weights under
        the max-magnitude rule, or ``None`` if every weight is zero.

        The factor is the pivot weight itself, raw.  The decomposition goes
        into ``memo`` only if every stored weight resolved at distance zero:
        no later mint can change it then.
        """
        magnitudes = [abs(w) for w in raw]
        maximum = max(magnitudes)
        if maximum == 0.0:
            return None
        threshold = maximum - self._tolerance
        pivot = next(
            k for k, magnitude in enumerate(magnitudes) if magnitude >= threshold
        )
        factor = raw[pivot]
        lookup_index = self.weights.lookup_index
        values = self.weights._values
        stable = True
        wsuccs = []
        for k, w in enumerate(raw):
            if not w:
                wsuccs.append(0)
            elif k == pivot:
                wsuccs.append(WeightPool.ONE_INDEX)
            else:
                quotient = w / factor
                widx = lookup_index(quotient)
                if widx and values[widx] != quotient:
                    stable = False
                wsuccs.append(widx)
        hit = (factor, tuple(wsuccs))
        if stable and memo is not None:
            if len(memo) >= self._NORM_MEMO_CAP:
                memo.clear()
            memo[raw] = hit
        return hit

    def make_node_public(self, kind: int, var: int, edges: Sequence[Edge]) -> Edge:
        """Package-boundary constructor taking ordinary edge objects.

        Cleans the edges (non-finite weights are rejected, numerically zero
        ones become zero stubs), then builds through :meth:`make_node`.
        """
        arity = 2 if kind == VECTOR else 4
        if len(edges) != arity:
            noun = "two" if arity == 2 else "four"
            name = "vector" if arity == 2 else "matrix"
            raise ValueError(f"{name} nodes have exactly {noun} successors")
        converted = []
        for edge in edges:
            weight = complex(edge.weight)
            if not (math.isfinite(weight.real) and math.isfinite(weight.imag)):
                raise DDError(f"non-finite edge weight {weight!r} in normalization")
            if self.weights.is_zero(weight):
                converted.append(ZERO_E)
            else:
                converted.append((self.node_index(edge.node), weight))
        return self.to_edge(kind, self.make_node(kind, var, converted), var)

    # ------------------------------------------------------------------
    # arithmetic (in-flight edges)
    # ------------------------------------------------------------------
    def add(self, kind: int, left: RawEdge, right: RawEdge) -> RawEdge:
        ln, lw = left
        rn, rw = right
        if not lw:
            return right
        if not rw:
            return left
        if ln < 0 and rn < 0:
            total = lw + rw
            tol = self._tolerance
            if -tol < total.real < tol and -tol < total.imag < tol:
                return ZERO_E
            return (TERMINAL_INDEX, total)
        pool = self.vpool if kind == VECTOR else self.mpool
        # Addition is commutative: order operands by creation stamp (the
        # terminal's is 0) for better cache reuse.
        order = pool.order
        if (order[rn] if rn >= 0 else 0) < (order[ln] if ln >= 0 else 0):
            ln, lw, rn, rw = rn, rw, ln, lw
        # Factor the left weight out: l + r = w_l * (l/w_l + r/w_l).
        ratio = rw / lw
        key = (kind, ln, rn, ratio)
        cache = self._add_cache
        cached = cache.lookup(key)
        if cached is None:
            if kind == VECTOR:
                # Vector DDs never skip: both operands sit at one level.
                var = pool.var[ln]
                succ, wsucc = pool.succ, pool.wsucc
                values = self.weights._values
                lbase = ln * 2
                rbase = rn * 2
                children = [
                    self.add(
                        kind,
                        (succ[lbase + k], values[wsucc[lbase + k]]),
                        self.scale((succ[rbase + k], values[wsucc[rbase + k]]), ratio),
                    )
                    for k in (0, 1)
                ]
            else:
                var = max(self.var_of(MATRIX, ln), self.var_of(MATRIX, rn))
                lchildren = self._mchildren_at(ln, var, ONE)
                rchildren = self._mchildren_at(rn, var, ratio)
                children = [
                    self.add(MATRIX, lchildren[k], rchildren[k]) for k in range(4)
                ]
            cached = self.make_node(kind, var, children)
            cache.insert(key, cached)
        return self.scale(cached, lw)

    def _mchildren_at(self, index: int, var: int, weight: complex):
        """Successors of ``weight * node`` viewed as a matrix node at ``var``.

        The terminal or a node below ``var`` stands for ``I ⊗ ... ⊗ node``:
        virtually a diagonal node ``(e, 0, 0, e)``.
        """
        if index >= 0 and self.mpool.var[index] == var:
            base = index * 4
            succ, wsucc = self.mpool.succ, self.mpool.wsucc
            values = self.weights._values
            return tuple(
                self.scale((succ[base + k], values[wsucc[base + k]]), weight)
                for k in range(4)
            )
        unit = (index, weight)
        return (unit, ZERO_E, ZERO_E, unit)

    def multiply_mv(self, m_edge: RawEdge, v_edge: RawEdge) -> RawEdge:
        mn, mw = m_edge
        vn, vw = v_edge
        if not mw or not vw:
            return ZERO_E
        factor = self._product(mw, vw)
        if not factor:
            return ZERO_E
        if mn < 0:
            # w * I applied to the state: rescale only.
            return (vn, factor)
        # The matrix sits at the vector's level or skips down from it.
        vvar = self.vpool.var[vn]
        key = (mn, vn)
        cache = self._mult_mv_cache
        cached = cache.lookup(key)
        if cached is None:
            mchildren = self._mchildren_at(mn, vvar, ONE)
            vsucc, vwsucc = self.vpool.succ, self.vpool.wsucc
            values = self.weights._values
            vbase = vn * 2
            v0 = (vsucc[vbase], values[vwsucc[vbase]])
            v1 = (vsucc[vbase + 1], values[vwsucc[vbase + 1]])
            children = [
                self.add(
                    VECTOR,
                    self.multiply_mv(mchildren[2 * i], v0),
                    self.multiply_mv(mchildren[2 * i + 1], v1),
                )
                for i in (0, 1)
            ]
            cached = self.make_node(VECTOR, vvar, children)
            cache.insert(key, cached)
        return self.scale(cached, factor)

    def multiply_mm(self, a_edge: RawEdge, b_edge: RawEdge) -> RawEdge:
        an, aw = a_edge
        bn, bw = b_edge
        if not aw or not bw:
            return ZERO_E
        factor = self._product(aw, bw)
        if not factor:
            return ZERO_E
        # w * I absorbs into the other operand's weight.
        if an < 0:
            return (bn, factor)
        if bn < 0:
            return (an, factor)
        var = max(self.mpool.var[an], self.mpool.var[bn])
        key = (an, bn)
        cache = self._mult_mm_cache
        cached = cache.lookup(key)
        if cached is None:
            achildren = self._mchildren_at(an, var, ONE)
            bchildren = self._mchildren_at(bn, var, ONE)
            children = []
            for i in (0, 1):
                for j in (0, 1):
                    children.append(
                        self.add(
                            MATRIX,
                            self.multiply_mm(achildren[2 * i], bchildren[j]),
                            self.multiply_mm(
                                achildren[2 * i + 1], bchildren[2 + j]
                            ),
                        )
                    )
            cached = self.make_node(MATRIX, var, children)
            cache.insert(key, cached)
        return self.scale(cached, factor)

    def kron(
        self,
        kind: int,
        top: RawEdge,
        bottom: RawEdge,
        shift: int,
    ) -> RawEdge:
        if not top[1] or not bottom[1]:
            return ZERO_E
        factor = self._product(top[1], bottom[1])
        if not factor:
            return ZERO_E
        result = self.kron_nodes(kind, top[0], bottom[0], shift)
        return self.scale(result, factor)

    def kron_nodes(self, kind: int, top: int, bottom: int, shift: int) -> RawEdge:
        if top < 0:
            return (bottom, ONE)
        key = (kind, top, bottom, shift)
        cache = self._kron_cache
        cached = cache.lookup(key)
        if cached is None:
            pool = self.vpool if kind == VECTOR else self.mpool
            values = self.weights._values
            children = []
            for succ, wsucc in pool.edges_of(top):
                if wsucc == 0:
                    children.append(ZERO_E)
                else:
                    sub = self.kron_nodes(kind, succ, bottom, shift)
                    children.append(self.scale(sub, values[wsucc]))
            cached = self.make_node(kind, pool.var[top] + shift, children)
            cache.insert(key, cached)
        return cached

    def adjoint(self, operation: RawEdge) -> RawEdge:
        if not operation[1]:
            return ZERO_E
        result = self.adjoint_node(operation[0])
        return self.scale(result, operation[1].conjugate())

    def adjoint_node(self, index: int) -> RawEdge:
        if index < 0:
            return ONE_E
        cached = self._adjoint_cache.lookup(index)
        if cached is None:
            succ, wsucc = self.mpool.succ, self.mpool.wsucc
            values = self.weights._values
            base = index * 4
            transposed = (base, base + 2, base + 1, base + 3)
            children = [
                self.adjoint((succ[offset], values[wsucc[offset]]))
                for offset in transposed
            ]
            cached = self.make_node(MATRIX, self.mpool.var[index], children)
            self._adjoint_cache.insert(index, cached)
        return cached

    def inner_nodes(self, left: int, right: int) -> complex:
        if left < 0 and right < 0:
            return complex(1.0, 0.0)
        pool = self.vpool
        lvar = pool.var[left] if left >= 0 else -1
        rvar = pool.var[right] if right >= 0 else -1
        if lvar != rvar:
            raise DimensionMismatchError(
                f"inner product of DDs at levels {lvar} and {rvar}"
            )
        key = (left, right)
        cached = self._inner_cache.lookup(key)
        if cached is None:
            values = self.weights._values
            succ, wsucc = pool.succ, pool.wsucc
            lbase = left * 2
            rbase = right * 2
            total = complex(0.0, 0.0)
            for index in (0, 1):
                lww = wsucc[lbase + index]
                rww = wsucc[rbase + index]
                if lww == 0 or rww == 0:
                    continue
                total += (
                    values[lww].conjugate()
                    * values[rww]
                    * self.inner_nodes(succ[lbase + index], succ[rbase + index])
                )
            cached = total
            self._inner_cache.insert(key, cached)
        return cached

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def clear_memos(self) -> None:
        """Drop engine-private memoization (the interned gate ids).

        The shared compute tables are cleared by the package; this hook
        exists so ``clear_caches``/HARD collections also reset state whose
        keys embed canonical weight values.  The matrix normalization memo
        resolves to weight indices and the node-count memo is keyed by node
        indices, so both MUST be dropped before any sweep can recycle an
        index.
        """
        self._gate_ids.clear()
        self._kernel_cache.clear()
        self._norm_memo.clear()
        for counts in self._counts:
            counts.clear()

    def gate_id(self, op_key: tuple) -> int:
        """Intern an apply-kernel operation key to a small integer."""
        gate_id = self._gate_ids.get(op_key)
        if gate_id is None:
            gate_id = len(self._gate_ids)
            self._gate_ids[op_key] = gate_id
        return gate_id

    def sweep(self, roots: Sequence[Tuple[Node, complex]]) -> Tuple[int, int]:
        """Mark-and-sweep the pools; returns ``(nodes_freed, weights_freed)``.

        Mark roots are every live view (any Python-reachable diagram) plus
        the governor's reference-counted root edges.  Must run only after
        every index-keyed cache has been cleared — freed indices are
        recycled by later allocations.
        """
        self.clear_memos()
        marked: Tuple[set, set] = (set(), set())
        stack: List[Tuple[int, int]] = []
        for kind in (VECTOR, MATRIX):
            for view in list(self._views[kind].values()):
                stack.append((kind, view._index))
        for node, _weight in roots:
            index = getattr(node, "_index", None)
            if index is not None and getattr(node, "_engine", None) is self:
                stack.append((node._KIND, index))
        pools = (self.vpool, self.mpool)
        while stack:
            kind, index = stack.pop()
            if index < 0 or index in marked[kind]:
                continue
            marked[kind].add(index)
            pool = pools[kind]
            base = index * pool.arity
            for offset in range(pool.arity):
                child = pool.succ[base + offset]
                if child >= 0 and child not in marked[kind]:
                    stack.append((kind, child))
        nodes_freed = 0
        marked_weights: set = set()
        for kind in (VECTOR, MATRIX):
            pool = pools[kind]
            live = marked[kind]
            for index in pool.live_indices():
                if index in live:
                    base = index * pool.arity
                    for offset in range(pool.arity):
                        marked_weights.add(pool.wsucc[base + offset])
                else:
                    pool.free(index)
                    nodes_freed += 1
            unique = self._vunique if kind == VECTOR else self._munique
            unique.rebuild(sorted(live))
        exact = self.weights._exact
        for _node, weight in roots:
            widx = exact.get(weight)
            if widx is not None:
                marked_weights.add(widx)
        weights_freed = self.weights.sweep_indices(marked_weights)
        return nodes_freed, weights_freed

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def table_bytes(self) -> int:
        """Actual resident bytes of the flat index arrays."""
        return (
            self.vpool.array_bytes()
            + self.mpool.array_bytes()
            + self._vunique.array_bytes()
            + self._munique.array_bytes()
            + self.weights.index_bytes()
        )

    def stats(self) -> Dict[str, float]:
        return {
            "pooled": 1,
            "vector_slots": self.vpool.slot_count,
            "vector_live": self.vpool.live_count,
            "vector_free": len(self.vpool.free_list),
            "matrix_slots": self.mpool.slot_count,
            "matrix_live": self.mpool.live_count,
            "matrix_free": len(self.mpool.free_list),
            "weight_slots": self.weights.slot_count,
            "weight_free": len(self.weights._free),
            "unique_capacity": self._vunique.capacity + self._munique.capacity,
            "gate_ids": len(self._gate_ids),
            "identity_skips": self.identity_skips,
            "array_bytes": self.table_bytes(),
        }

    # ------------------------------------------------------------------
    # fault-injection support
    # ------------------------------------------------------------------
    def clone_node_for_fault(self, kind: int, index: int) -> int:
        """Allocate a structural clone of node ``index`` bypassing hash
        consing (test-only).

        Plants the aliasing corruption the ``alias-unique-entry`` fault
        models: two live pool nodes with the same signature, both reachable
        through the unique table's probe chains.
        """
        pool = self.vpool if kind == VECTOR else self.mpool
        unique = self._vunique if kind == VECTOR else self._munique
        base = index * pool.arity
        var = pool.var[index]
        successors = list(pool.succ[base : base + pool.arity])
        wsuccs = list(pool.wsucc[base : base + pool.arity])
        clone = pool.alloc(var, successors, wsuccs, next(self._order))
        slot = unique._hash(var, successors, wsuccs) & unique._mask
        while unique._slots[slot] >= 0:
            slot = (slot + 1) & unique._mask
        unique.insert_at(slot, clone)
        return clone


# ----------------------------------------------------------------------
# direct gate application on pooled storage
# ----------------------------------------------------------------------
class PooledApplyKernel:
    """One prepared direct gate application (see :mod:`repro.dd.apply`).

    A 2x2 unitary at ``target`` with control lines, specialized to a DD
    mode: ``"v"`` (vector nodes), ``"ml"`` (matrix nodes, gate multiplied
    from the left, acting on the row index) or ``"mr"`` (from the right,
    realized by transposing the unitary and recursing on column pairs).
    The recursion takes the diagonal / antidiagonal shortcuts, selects
    branches for controls above the target and uses the projector chain
    ``CU = I + P (U - I)`` for controls below it.  It operates on
    in-flight ``(node_index, complex)`` edges, with the apply-cache keyed
    ``(interned gate id, node index, next gate line)`` so repeated gates
    hash three small integers instead of a nested unitary tuple.
    """

    __slots__ = (
        "engine", "weights", "pool", "cache", "mode", "kind",
        "u_val", "d00", "d11", "target", "controls", "below", "below_map",
        "op_id", "proj_id", "kernel", "cacheable", "high", "lowest",
        "lines", "below_lines", "transient",
    )

    def __init__(
        self,
        package,
        mode: str,
        matrix,
        target: int,
        controls: Dict[int, int],
    ):
        import numpy as np

        engine = package._pooled
        self.engine = engine
        self.weights = engine.weights
        self.mode = mode
        self.kind = VECTOR if mode == "v" else MATRIX
        self.pool = engine.vpool if mode == "v" else engine.mpool
        self.cache = engine._apply_cache
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (2, 2):
            raise DDError(f"expected a 2x2 matrix, got shape {matrix.shape}")
        if mode == "mr":
            matrix = matrix.T
        raw_values = tuple(complex(matrix[i, j]) for i in (0, 1) for j in (0, 1))
        self.u_val = tuple(self._canonical_value(value) for value in raw_values)
        is_zero = self.weights.is_zero
        # The diagonal of U - I, raw, for controls below the target
        # (CU = I + P (U - I)).
        d00 = self.u_val[0] - 1.0
        d11 = self.u_val[3] - 1.0
        self.d00 = ZERO if is_zero(d00) else d00
        self.d11 = ZERO if is_zero(d11) else d11
        # Reusable across applications iff every matrix entry resolved at
        # distance zero (canonically zero, or bit-identical to its
        # representative): a later mint can then never change the
        # canonicalization, so a fresh construction would be identical.
        self.cacheable = all(
            is_zero(raw) or canonical == raw
            for raw, canonical in zip(raw_values, self.u_val)
        )
        self.target = target
        self.controls = dict(controls)
        for line, bit in self.controls.items():
            if line == target:
                raise DDError("target and control lines must be distinct")
            if bit not in (0, 1):
                raise DDError(f"control value must be 0 or 1, got {bit!r}")
        self.lines = tuple(sorted([target, *self.controls], reverse=True))
        self.high = self.lines[0]
        self.lowest = self.lines[-1]
        self.below = tuple(
            sorted((line, bit) for line, bit in self.controls.items() if line < target)
        )
        self.below_map = dict(self.below)
        self.below_lines = tuple(sorted(self.below_map, reverse=True))
        self.transient: Dict[tuple, RawEdge] = {}
        ctrl_key = tuple(sorted(self.controls.items()))
        self.op_id = engine.gate_id(("apply", mode, self.u_val, target, ctrl_key))
        self.proj_id = engine.gate_id(("proj", mode, self.below))
        if self.controls:
            self.kernel = "controlled"
        elif self.u_val[1] == ComplexTable.ZERO and self.u_val[2] == ComplexTable.ZERO:
            self.kernel = "diagonal"
        elif self.u_val[0] == ComplexTable.ZERO and self.u_val[3] == ComplexTable.ZERO:
            self.kernel = "antidiagonal"
        else:
            self.kernel = "generic"

    def _canonical_value(self, value: complex) -> complex:
        value = complex(value)
        if self.weights.is_zero(value):
            return ZERO
        return self.weights.lookup(value)

    # -- entry -----------------------------------------------------------
    def run(self, root: Edge) -> Edge:
        if root.is_zero:
            return ZERO_EDGE
        node = root.node
        expected = VectorNode if self.mode == "v" else MatrixNode
        if node.is_terminal or not isinstance(node, expected):
            kind = "vector" if self.mode == "v" else "matrix"
            raise DDError(f"apply kernels need a non-trivial {kind} DD root")
        if node.var < self.high:
            raise DDError(
                f"gate lines exceed the DD's qubit range (root level {node.var})"
            )
        engine = self.engine
        index, weight = engine.from_edge(root)
        if self.transient:
            self.transient.clear()
        result = engine.scale(self._rec(index, node.var), weight)
        return engine.to_edge(self.kind, result, node.var)

    # -- recursion ---------------------------------------------------------
    # Matrix DDs skip identity levels, so the recursion tracks the next
    # gate line and keys the cache on it (node-only keys would collide when
    # gate lines fall in skipped ranges).  Vector DDs never skip, so the
    # same recursion is exact for them.
    #
    # A node at (or skipping past) the gate's lowest line recurses no
    # further, so ``_rec`` memoizes its result only for the current
    # application, in ``transient``; the shared apply cache keeps the
    # entries that save a recursion and stays no larger than one gate DD
    # multiplied on per gate (tests/test_apply_properties.py).  Projector
    # results all go to the shared cache: they are keyed by the controls
    # below the target alone, so every gate with those controls reuses
    # them.
    def _pairs_at(self, index: int, virtual: bool):
        if not virtual:
            return self._pairs(index)
        # The node skips this level: virtually a diagonal (e, 0, 0, e),
        # identical under row ("ml") and column ("mr") grouping.
        unit = (index, ONE)
        return ((unit, ZERO_E), (ZERO_E, unit))

    def _rec_edge(self, edge: RawEdge, level: int) -> RawEdge:
        if not edge[1]:
            return ZERO_E
        return self.engine.scale(self._rec(edge[0], level), edge[1])

    def _rec(self, index: int, level: int) -> RawEdge:
        """The gate applied to ``index`` seen at ``level``: levels above the
        gate's lines are shared unchanged, a control selects its branch and
        the target level applies the unitary."""
        for line in self.lines:  # the next gate line at or below ``level``
            if line <= level:
                break
        else:
            return (index, ONE)
        var = self.pool.var[index] if index >= 0 else -1
        key = (self.op_id, index, line)
        persist = var > line or line != self.lowest
        cached = self.cache.lookup(key) if persist else self.transient.get(key)
        if cached is not None:
            return cached
        if var > line:
            # A line between the gate's lines: descend on every branch.
            new_pairs = [
                tuple(self._rec_edge(child, var - 1) for child in pair)
                for pair in self._pairs(index)
            ]
            cached = self._make(var, new_pairs)
        else:
            pairs = self._pairs_at(index, index < 0 or var < line)
            if line == self.target:
                new_pairs = [self._apply_target(pair) for pair in pairs]
            else:
                # Control above the remaining gate lines: the active branch
                # continues, the inactive branch is shared unchanged.
                bit = self.controls[line]
                new_pairs = []
                for pair in pairs:
                    updated = list(pair)
                    updated[bit] = self._rec_edge(pair[bit], line - 1)
                    new_pairs.append(tuple(updated))
            cached = self._make(line, new_pairs)
        if persist:
            self.cache.insert(key, cached)
        else:
            self.transient[key] = cached
        return cached

    # -- the target level -----------------------------------------------
    def _apply_target(self, pair):
        u00, u01, u10, u11 = self.u_val
        c0, c1 = pair
        engine = self.engine
        scale = engine.scale
        kind = self.kind
        if self.below:
            # Controls below the target: CU = I + P (U - I), with the
            # projector chain P applied to the subtrees first.
            add = engine.add
            d00, d11 = self.d00, self.d11
            p0 = self._proj_edge(c0, self.target - 1)
            p1 = self._proj_edge(c1, self.target - 1)
            new0 = add(kind, c0, add(kind, scale(p0, d00), scale(p1, u01)))
            new1 = add(kind, c1, add(kind, scale(p0, u10), scale(p1, d11)))
            return (new0, new1)
        if not u01 and not u10:
            # Diagonal shortcut: only the edge weights change.
            return (scale(c0, u00), scale(c1, u11))
        if not u00 and not u11:
            # Anti-diagonal shortcut (X/Y): swap the successors.
            return (scale(c1, u01), scale(c0, u10))
        add = engine.add
        new0 = add(kind, scale(c0, u00), scale(c1, u01))
        new1 = add(kind, scale(c0, u10), scale(c1, u11))
        return (new0, new1)

    # -- projector chain for controls below the target -------------------
    def _proj_edge(self, edge: RawEdge, level: int) -> RawEdge:
        if not edge[1]:
            return ZERO_E
        return self.engine.scale(self._proj(edge[0], level), edge[1])

    def _proj(self, index: int, level: int) -> RawEdge:
        for line in self.below_lines:
            if line <= level:
                break
        else:
            return (index, ONE)
        var = self.pool.var[index] if index >= 0 else -1
        key = (self.proj_id, index, line)
        cached = self.cache.lookup(key)
        if cached is not None:
            return cached
        if var > line:
            new_pairs = [
                tuple(self._proj_edge(child, var - 1) for child in pair)
                for pair in self._pairs(index)
            ]
            cached = self._make(var, new_pairs)
        else:
            pairs = self._pairs_at(index, index < 0 or var < line)
            bit = self.below_map[line]
            new_pairs = []
            for pair in pairs:
                updated = [ZERO_E, ZERO_E]
                updated[bit] = self._proj_edge(pair[bit], line - 1)
                new_pairs.append(tuple(updated))
            cached = self._make(line, new_pairs)
        self.cache.insert(key, cached)
        return cached

    # -- mode-dependent successor layout ---------------------------------
    def _pairs(self, index: int):
        """Successors grouped into 2-vectors along the gate's active index."""
        pool = self.pool
        base = index * pool.arity
        succ, wsucc = pool.succ, pool.wsucc
        values = self.weights._values
        edges = [
            (succ[base + k], values[wsucc[base + k]]) for k in range(pool.arity)
        ]
        if self.mode == "v":
            return (tuple(edges),)
        if self.mode == "ml":
            # Row pairs per column j: (U_0j, U_1j).
            return ((edges[0], edges[2]), (edges[1], edges[3]))
        # "mr": column pairs per row i: (U_i0, U_i1).
        return ((edges[0], edges[1]), (edges[2], edges[3]))

    def _make(self, var: int, new_pairs) -> RawEdge:
        if self.mode == "v":
            return self.engine.make_node(VECTOR, var, new_pairs[0])
        if self.mode == "ml":
            (e00, e10), (e01, e11) = new_pairs
        else:
            (e00, e01), (e10, e11) = new_pairs
        return self.engine.make_node(MATRIX, var, (e00, e01, e10, e11))
