"""Struct-of-arrays storage primitives for the pooled DD engine.

Production DD packages keep nodes in flat arrays and refer to successors
and weights by *integer index* instead of allocating one heap object per
node and per edge (arXiv:2108.07027 Sec. "the node pool"; arXiv:1911.12691
for the table-based complex management).  This module provides the three
storage primitives the pooled engine (:mod:`repro.dd.pooled`) is built
from:

:class:`WeightPool`
    A :class:`~repro.dd.complex_table.ComplexTable` subclass that assigns
    every canonical representative a stable integer index.  Values are
    kept in a flat list (plus parallel ``array('d')`` component arrays)
    with a free-list, and an exact-value dict gives O(1) index lookup for
    values that repeat bit-identically — the overwhelmingly common case on
    the hot path, because products/sums of canonical values repeat exactly.
    The exact-first fast path is semantics-preserving: an exact match has
    Chebyshev distance 0, which is always the strict nearest representative
    the bucket search would have returned.

:class:`NodePool`
    Flat per-kind node storage: ``var``, successor node indices, successor
    weight indices and a monotonically increasing creation ``order`` are
    kept in parallel ``array`` objects, ``arity`` entries per node, with a
    free-list for slot reuse after a GC sweep.  ``order`` values are never
    reused, so they serve as stable, creation-ordered node uids.

:class:`PooledUniqueTable`
    An open-addressed integer hash table keyed on
    ``(var, successor indices, weight indices)`` with linear probing.
    Deletion is tombstone-free: a GC sweep rebuilds the whole slot array
    from the surviving nodes (:meth:`PooledUniqueTable.rebuild`), so probe
    chains never degrade.
"""

from __future__ import annotations

import math
import weakref
from array import array
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.dd.complex_table import ComplexTable, DEFAULT_TOLERANCE
from repro.obs.metrics import MetricsRegistry

__all__ = ["WeightPool", "NodePool", "PooledUniqueTable", "TERMINAL_INDEX"]

#: Successor index denoting the terminal node (it lives in no pool).
TERMINAL_INDEX = -1

#: ``var`` value marking a freed node-pool slot.
FREED_VAR = -2


class WeightPool(ComplexTable):
    """A complex table whose representatives carry stable integer indices.

    Index 0 is always the canonical zero and index 1 the canonical one
    (:data:`ZERO_INDEX` / :data:`ONE_INDEX`); the remaining seed values
    occupy the next few indices.  Seeds are permanent — a sweep never frees
    them.  All base-class entry points (``lookup``, ``sweep``, ``entries``,
    ``_insert``) remain functional and keep the index layer consistent, so
    code written against :class:`ComplexTable` (normalization, sanitizer,
    fault injection) works on a pool unchanged.
    """

    ZERO_INDEX = 0
    ONE_INDEX = 1

    def __init__(
        self,
        tolerance: float = DEFAULT_TOLERANCE,
        registry: Optional[MetricsRegistry] = None,
    ):
        # The index layer must exist before the base constructor runs
        # (it seeds the table through our _seed override).
        self._values: List[Optional[complex]] = []
        self._exact = {}
        self._re = array("d")
        self._im = array("d")
        self._free: List[int] = []
        # Bumped on every mutation of the representative set (mint, sweep,
        # clear).  ``lookup`` resolves a raw value to its *nearest* stored
        # representative, so its result is only a pure function of the
        # input while the generation stands still — caches of lookup
        # results must be invalidated whenever it moves.
        self.generation = 0
        super().__init__(tolerance, registry=registry)

    # ------------------------------------------------------------------
    # index layer
    # ------------------------------------------------------------------
    def _register_value(self, value: complex) -> int:
        """Assign ``value`` an index (reusing a freed slot when possible)."""
        self.generation += 1
        if self._free:
            index = self._free.pop()
            self._values[index] = value
            self._re[index] = value.real
            self._im[index] = value.imag
        else:
            index = len(self._values)
            self._values.append(value)
            self._re.append(value.real)
            self._im.append(value.imag)
        self._exact[value] = index
        return index

    def _seed(self) -> None:
        sqrt2_inv = 1.0 / math.sqrt(2.0)
        for special in (
            self.ZERO, self.ONE, -self.ONE, 1j, -1j,
            complex(sqrt2_inv, 0.0), complex(-sqrt2_inv, 0.0),
            complex(0.0, sqrt2_inv), complex(0.0, -sqrt2_inv),
        ):
            bucket = self._buckets.setdefault(self._key(special), [])
            if special not in bucket:
                bucket.append(special)
            if special not in self._exact:
                self._register_value(special)
        if not hasattr(self, "_seed_count"):
            self._seed_count = len(self._values)

    def _insert(self, value: complex) -> None:
        super()._insert(value)
        if value not in self._exact:
            self._register_value(value)

    def lookup(self, value: complex) -> complex:
        """Canonicalize ``value`` (exact-match fast path, then base search).

        A bit-identical hit on the exact dict short-circuits the bucket
        search; distance 0 is always the strict nearest representative, so
        the result is identical to the base class's.
        """
        index = self._exact.get(value)
        if index is not None:
            self.hits += 1
            return self._values[index]
        return super().lookup(value)

    def lookup_index(self, value: complex) -> int:
        """Canonicalize ``value`` and return its representative's *index*."""
        index = self._exact.get(value)
        if index is not None:
            self.hits += 1
            return index
        rep = super().lookup(value)
        return self._exact[rep]

    def lookup_many(self, values: Iterable[complex]) -> List[int]:
        """Batched canonicalization: one index per input value.

        Amortizes attribute lookups over a whole batch (used when building
        DDs from dense vectors/matrices and by the batched normalization
        path); exact-dict hits dominate because repeated amplitudes repeat
        bit-identically.
        """
        exact_get = self._exact.get
        out = []
        append = out.append
        hits = 0
        for value in values:
            index = exact_get(value)
            if index is None:
                rep = super().lookup(value)
                index = self._exact[rep]
            else:
                hits += 1
            append(index)
        self.hits += hits
        return out

    def value(self, index: int) -> complex:
        """The canonical value stored at ``index``.

        Freed slots answer NaN (never a canonical value) so audits of
        stale indices fail loudly instead of resurrecting old weights.
        """
        value = self._values[index]
        if value is None:
            return complex(float("nan"), float("nan"))
        return value

    def index_is_live(self, index: int) -> bool:
        return 0 <= index < len(self._values) and self._values[index] is not None

    @property
    def slot_count(self) -> int:
        """Allocated index slots, including freed ones (capacity metric)."""
        return len(self._values)

    def index_bytes(self) -> int:
        """Resident bytes of the index layer's flat arrays."""
        return (
            len(self._re) * self._re.itemsize
            + len(self._im) * self._im.itemsize
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop all values and indices (seeds are re-registered).

        Invalidates every outstanding index; only callable when no pooled
        nodes reference the table (the engine clears node pools first).
        """
        self._values = []
        self._exact = {}
        self._re = array("d")
        self._im = array("d")
        self._free = []
        self.generation += 1
        super().clear()

    def sweep(self, marked: "set[complex]") -> int:
        """Value-level sweep (base API): frees the indices of swept values."""
        marked_indices = {
            index
            for value, index in self._exact.items()
            if value in marked
        }
        return self.sweep_indices(marked_indices)

    def sweep_indices(self, marked: "set[int]") -> int:
        """Free every index not in ``marked``; seeds always survive.

        Rebuilds the buckets and the exact dict from the survivors —
        tombstone-free, like the unique-table rebuild — and pushes freed
        slots onto the free-list for reuse.  Returns the number freed.
        """
        freed = 0
        self.generation += 1
        survivors: dict = {}
        for index, value in enumerate(self._values):
            if value is None:
                continue
            if index < self._seed_count or index in marked:
                survivors.setdefault(self._key(value), []).append(value)
            else:
                freed += 1
                del self._exact[value]
                self._values[index] = None
                self._re[index] = float("nan")
                self._im[index] = float("nan")
                self._free.append(index)
        self._buckets = survivors
        # Seeds are index-permanent, but a fault may have removed one from
        # the buckets; re-seeding restores bucket membership idempotently.
        self._seed()
        return freed


class NodePool:
    """Flat storage for one node kind (vector: arity 2, matrix: arity 4).

    Per node: ``var`` (level), ``arity`` successor node indices, ``arity``
    successor weight indices, and a creation-order stamp.  Freed slots are
    marked ``var == FREED_VAR`` and recycled through a free-list; ``order``
    stamps are handed out by the engine's shared counter and never reused,
    so they double as stable uids.
    """

    __slots__ = ("arity", "var", "succ", "wsucc", "order", "free_list")

    def __init__(self, arity: int):
        self.arity = arity
        self.var = array("i")
        self.succ = array("q")
        self.wsucc = array("q")
        self.order = array("q")
        self.free_list: List[int] = []

    def alloc(
        self,
        var: int,
        successors: Sequence[int],
        weights: Sequence[int],
        order: int,
    ) -> int:
        arity = self.arity
        if self.free_list:
            index = self.free_list.pop()
            self.var[index] = var
            base = index * arity
            for offset in range(arity):
                self.succ[base + offset] = successors[offset]
                self.wsucc[base + offset] = weights[offset]
            self.order[index] = order
        else:
            index = len(self.var)
            self.var.append(var)
            self.succ.extend(successors)
            self.wsucc.extend(weights)
            self.order.append(order)
        return index

    def free(self, index: int) -> None:
        self.var[index] = FREED_VAR
        self.free_list.append(index)

    def is_live(self, index: int) -> bool:
        return 0 <= index < len(self.var) and self.var[index] != FREED_VAR

    @property
    def slot_count(self) -> int:
        return len(self.var)

    @property
    def live_count(self) -> int:
        return len(self.var) - len(self.free_list)

    def live_indices(self) -> List[int]:
        freed = set(self.free_list)
        return [i for i in range(len(self.var)) if i not in freed]

    def edges_of(self, index: int) -> List[Tuple[int, int]]:
        base = index * self.arity
        return [
            (self.succ[base + k], self.wsucc[base + k])
            for k in range(self.arity)
        ]

    def array_bytes(self) -> int:
        return (
            len(self.var) * self.var.itemsize
            + len(self.succ) * self.succ.itemsize
            + len(self.wsucc) * self.wsucc.itemsize
            + len(self.order) * self.order.itemsize
        )


class PooledUniqueTable:
    """Open-addressed hash consing over a :class:`NodePool`.

    Slots hold node indices (or -1 for empty) in a power-of-two
    ``array('q')``; collisions are resolved by linear probing.  Keys are
    never stored — a probe compares the candidate node's pool fields
    directly, so the table costs 8 bytes per slot.  There are no
    tombstones: deletion happens only during a GC sweep, which rebuilds
    the slot array from the survivors (:meth:`rebuild`).
    """

    __slots__ = ("pool", "_slots", "_mask", "_count", "hits", "misses")

    _INITIAL_CAPACITY = 1 << 10

    def __init__(self, pool: NodePool):
        self.pool = pool
        self._slots = array("q", [-1]) * self._INITIAL_CAPACITY
        self._mask = self._INITIAL_CAPACITY - 1
        self._count = 0
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _hash(var: int, successors: Sequence[int], weights: Sequence[int]) -> int:
        # hash() of a flat tuple: C-speed mixing, stable within a process.
        return hash((var,) + tuple(successors) + tuple(weights))

    def find_slot(
        self, var: int, successors: Sequence[int], weights: Sequence[int]
    ) -> Tuple[int, int]:
        """Probe for ``(var, successors, weights)``.

        Returns ``(slot, node_index)`` — ``node_index`` is -1 when absent,
        with ``slot`` pointing at the insertion position.
        """
        pool = self.pool
        arity = pool.arity
        slots = self._slots
        mask = self._mask
        pvar, psucc, pwsucc = pool.var, pool.succ, pool.wsucc
        slot = self._hash(var, successors, weights) & mask
        while True:
            candidate = slots[slot]
            if candidate < 0:
                return slot, -1
            if pvar[candidate] == var:
                base = candidate * arity
                for k in range(arity):
                    if (
                        psucc[base + k] != successors[k]
                        or pwsucc[base + k] != weights[k]
                    ):
                        break
                else:
                    return slot, candidate
            slot = (slot + 1) & mask

    def insert_at(self, slot: int, node_index: int) -> None:
        """Fill the empty ``slot`` found by :meth:`find_slot`."""
        self._slots[slot] = node_index
        self._count += 1
        if self._count * 3 >= (self._mask + 1) * 2:
            self._grow()

    def _grow(self) -> None:
        self._resize((self._mask + 1) * 2)

    def _resize(self, capacity: int) -> None:
        live = [index for index in self._slots if index >= 0]
        self._slots = array("q", [-1]) * capacity
        self._mask = capacity - 1
        self._reinsert(live)

    def _reinsert(self, indices: Iterable[int]) -> None:
        pool = self.pool
        slots = self._slots
        mask = self._mask
        for index in indices:
            slot = self._hash(
                pool.var[index], *self._key_parts(index)
            ) & mask
            while slots[slot] >= 0:
                slot = (slot + 1) & mask
            slots[slot] = index

    def _key_parts(self, index: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        base = index * self.pool.arity
        end = base + self.pool.arity
        return tuple(self.pool.succ[base:end]), tuple(self.pool.wsucc[base:end])

    def rebuild(self, live_indices: Iterable[int]) -> None:
        """Tombstone-free deletion: re-hash only the surviving nodes.

        Capacity shrinks back towards the survivors' size (never below the
        initial capacity), so a large transient peak does not pin memory.
        """
        live = list(live_indices)
        capacity = self._INITIAL_CAPACITY
        while capacity * 2 < len(live) * 3:
            capacity *= 2
        self._slots = array("q", [-1]) * capacity
        self._mask = capacity - 1
        self._count = len(live)
        self._reinsert(live)

    def remove_index(self, node_index: int) -> bool:
        """Remove one node from the consing table (reorder retirement).

        Linear probing has no tombstones, so deletion re-inserts the rest
        of the probe cluster to keep every survivor reachable through its
        own chain.  Returns whether the index was present.
        """
        pool = self.pool
        base = node_index * pool.arity
        end = base + pool.arity
        slot, found = self.find_slot(
            pool.var[node_index],
            tuple(pool.succ[base:end]),
            tuple(pool.wsucc[base:end]),
        )
        if found != node_index:
            return False
        slots = self._slots
        mask = self._mask
        slots[slot] = -1
        probe = (slot + 1) & mask
        cluster = []
        while slots[probe] >= 0:
            cluster.append(slots[probe])
            slots[probe] = -1
            probe = (probe + 1) & mask
        self._count -= 1
        self._reinsert(cluster)
        return True

    def contains_index(self, node_index: int) -> bool:
        """Whether ``node_index`` is reachable through its own probe chain
        (probe-chain integrity check used by the sanitizer)."""
        pool = self.pool
        base = node_index * pool.arity
        end = base + pool.arity
        _slot, found = self.find_slot(
            pool.var[node_index],
            tuple(pool.succ[base:end]),
            tuple(pool.wsucc[base:end]),
        )
        return found == node_index

    @property
    def capacity(self) -> int:
        return self._mask + 1

    def __len__(self) -> int:
        return self._count

    def array_bytes(self) -> int:
        return len(self._slots) * self._slots.itemsize

    def clear(self) -> None:
        self._slots = array("q", [-1]) * self._INITIAL_CAPACITY
        self._mask = self._INITIAL_CAPACITY - 1
        self._count = 0
        self.hits = 0
        self.misses = 0

    def iter_indices(self) -> Iterable[int]:
        for index in self._slots:
            if index >= 0:
                yield index
