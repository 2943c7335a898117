"""Struct-of-arrays storage primitives for the pooled DD engine.

Production DD packages keep nodes in flat arrays and refer to successors
and weights by *integer index* instead of allocating one heap object per
node and per edge (arXiv:2108.07027 Sec. "the node pool"; arXiv:1911.12691
for the table-based complex management).  This module provides the three
storage primitives the pooled engine (:mod:`repro.dd.pooled`) is built
from:

:class:`WeightPool`
    The complex table: one canonical representative per tolerance ball,
    each with a stable integer index.  Values are kept in a flat list
    (plus parallel ``array('d')`` component arrays) with a free-list, and
    an exact-value dict gives O(1) index lookup for values that repeat
    bit-identically — the overwhelmingly common case on the hot path,
    because products/sums of canonical values repeat exactly.  The
    exact-first fast path is semantics-preserving: a stored value was
    minted only because no older representative lay within tolerance of
    it, so it is the one the search would have returned.  Everything after an
    exact miss is one fused slow path: snap, one search of 2x2 cells of
    width ``2 * tolerance``, and a mint into the already-computed cell.

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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import DDError
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "DEFAULT_TOLERANCE",
    "WeightPool",
    "NodePool",
    "PooledUniqueTable",
    "TERMINAL_INDEX",
]

#: Default tolerance used to identify complex numbers.
DEFAULT_TOLERANCE = 1e-10

#: Successor index denoting the terminal node (it lives in no pool).
TERMINAL_INDEX = -1

#: ``var`` value marking a freed node-pool slot.
FREED_VAR = -2


class WeightPool:
    """The complex table: canonical edge weights with stable integer indices.

    Values within ``tolerance`` (Chebyshev distance, strict) of a stored
    representative resolve to it -- to the oldest one if several are in
    reach; otherwise the value is stored and becomes a representative
    itself.  Oldest-wins makes a lookup's answer independent of what was
    minted after its representative, so building the same diagram twice
    yields the same nodes; only freeing a representative (a sweep) can
    change an answer.  Index 0 is always the canonical
    zero and index 1 the canonical one (:data:`ZERO_INDEX` /
    :data:`ONE_INDEX`); the remaining seed values occupy the next few
    indices.  Seeds are permanent: a sweep never frees them.

    Representatives live in a flat list (plus parallel ``array('d')``
    component arrays) with a free-list, and an exact-value dict maps each
    one to its index.  For the tolerance search they are also filed in a
    grid of square cells ``2 * tolerance`` wide.  The values within
    tolerance of a query span exactly one cell width per axis, so they lie
    in the query's own cell or in the neighbour on the side of the half
    cell the query falls in: :meth:`_search` searches those 2x2 cells,
    and nothing outside the class indexes the grid.
    """

    #: Canonical zero and one, shared by every table.
    ZERO = complex(0.0, 0.0)
    ONE = complex(1.0, 0.0)

    ZERO_INDEX = 0
    ONE_INDEX = 1

    def __init__(
        self,
        tolerance: float = DEFAULT_TOLERANCE,
        registry: Optional[MetricsRegistry] = None,
    ):
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self.tolerance = tolerance
        self._width = 2.0 * tolerance
        self._buckets: Dict[Tuple[int, int], List[complex]] = {}
        self._values: List[Optional[complex]] = []
        self._exact: Dict[complex, int] = {}
        self._re = array("d")
        self._im = array("d")
        self._free: List[int] = []
        # Mint stamp per slot (slots are recycled, stamps never are): the
        # search's "oldest representative" order.
        self._born: List[int] = []
        self._mints = 0
        # Bumped on every mutation of the representative set (mint, sweep,
        # clear).  A lookup that snapped to a representative at distance
        # > 0 resolves differently once that representative is freed, so
        # the engine's apply-kernel cache keeps such results only while
        # the generation stands still (conservatively, mints included).
        self.generation = 0
        # Plain-integer statistics (every weight canonicalization passes
        # through a lookup, so the hot path must stay one increment); a
        # registry collector copies them into counters at export time.
        self.hits = 0
        self.misses = 0
        if registry is not None and registry.enabled:
            self._register(registry)
        self._seed()
        self._seed_count = len(self._values)

    def _seed(self) -> None:
        """(Re-)insert the special values as canonical representatives.

        Shared by ``__init__``, ``clear`` and the sweeps so the seed set
        cannot drift between construction and later resets.  Idempotent:
        a seed that is still stored is not inserted twice.
        """
        sqrt2_inv = 1.0 / math.sqrt(2.0)
        for special in (
            self.ZERO, self.ONE, -self.ONE, 1j, -1j,
            complex(sqrt2_inv, 0.0), complex(-sqrt2_inv, 0.0),
            complex(0.0, sqrt2_inv), complex(0.0, -sqrt2_inv),
        ):
            if special not in self._exact:
                self._insert(special)

    # ------------------------------------------------------------------
    # canonicalization
    # ------------------------------------------------------------------
    def lookup(self, value: complex) -> complex:
        """Return the canonical representative for ``value``.

        If stored values lie within the tolerance (component-wise), the
        oldest one is returned; otherwise ``value`` is stored and
        returned.  Components below the tolerance snap to exactly zero.
        """
        index = self._exact.get(value)
        if index is None:
            return self._values[self._resolve(value)]
        self.hits += 1
        return self._values[index]

    def lookup_index(self, value: complex) -> int:
        """Canonicalize ``value`` and return its representative's *index*."""
        index = self._exact.get(value)
        if index is not None:
            self.hits += 1
            return index
        return self._resolve(value)

    def _resolve(self, value: complex) -> int:
        """The slow path of both lookups, after an exact-dict miss.

        Rejects non-finite values and values too large for a grid cell key
        with :class:`~repro.errors.DDError`, snaps sub-tolerance components
        to zero (which keeps subnormals out of the table: ``cmath.phase``
        raises on them) and re-probes the exact dict after a snap, searches
        the 2x2 cells, and mints into the query's cell on a miss.
        """
        real = value.real
        imag = value.imag
        if not (math.isfinite(real) and math.isfinite(imag)):
            raise DDError(f"non-finite complex value: {value!r}")
        tolerance = self.tolerance
        snapped = False
        if real != 0.0 and abs(real) < tolerance:
            real = 0.0
            snapped = True
        if imag != 0.0 and abs(imag) < tolerance:
            imag = 0.0
            snapped = True
        if snapped:
            index = self._exact.get(complex(real, imag))
            if index is not None:
                self.hits += 1
                return index
        try:
            best, cell, _window = self._search(real, imag)
        except OverflowError:
            raise DDError(f"complex value out of range: {value!r}") from None
        if best is not None:
            self.hits += 1
            return self._exact[best]
        self.misses += 1
        return self._mint(complex(real, imag), cell)

    def _search(self, real: float, imag: float) -> Tuple[
        Optional[complex], Tuple[int, int], Tuple[Tuple[int, int], ...]
    ]:
        """The oldest stored value within tolerance of ``(real, imag)``.

        Returns ``(representative or None, the query's own cell, the
        searched cells)``.  Per axis, a value at fraction ``f`` of its cell
        has every value within tolerance inside ``(f - 1/2, f + 1/2)`` cell
        widths: its own cell plus the lower neighbour when ``f < 1/2``,
        else the upper one (at exactly ``1/2`` the window touches no
        neighbour).  So 2x2 cells hold every candidate.

        Of several candidates the one minted first wins, whatever their
        distances: a representative minted later can then never capture a
        value that an earlier lookup resolved elsewhere.
        """
        width = self._width
        scaled_r = real / width
        scaled_i = imag / width
        key_r = math.floor(scaled_r)
        key_i = math.floor(scaled_i)
        low_r = key_r - 1 if scaled_r - key_r < 0.5 else key_r
        low_i = key_i - 1 if scaled_i - key_i < 0.5 else key_i
        window = (
            (low_r, low_i), (low_r, low_i + 1),
            (low_r + 1, low_i), (low_r + 1, low_i + 1),
        )
        buckets = self._buckets
        tolerance = self.tolerance
        best = None
        best_born = 0
        for key in window:
            bucket = buckets.get(key)
            if bucket:
                for stored in bucket:
                    if (
                        abs(stored.real - real) < tolerance
                        and abs(stored.imag - imag) < tolerance
                    ):
                        born = self._born[self._exact[stored]]
                        if best is None or born < best_born:
                            best = stored
                            best_born = born
        return best, (key_r, key_i), window

    def find(self, value: complex) -> Optional[complex]:
        """The stored representative ``lookup`` would resolve ``value`` to,
        or ``None``; never mints (the sanitizer's canonicity probe)."""
        return self._search(value.real, value.imag)[0]

    def near(self, value: complex) -> List[complex]:
        """Every stored value within tolerance of ``value`` (itself
        included if stored), in search order; for duplicate audits."""
        real = value.real
        imag = value.imag
        tolerance = self.tolerance
        buckets = self._buckets
        return [
            stored
            for key in self._search(real, imag)[2]
            for stored in buckets.get(key, ())
            if max(abs(stored.real - real), abs(stored.imag - imag)) < tolerance
        ]

    def cell(self, value: complex) -> Tuple[int, int]:
        """The grid cell ``value`` is filed under."""
        width = self._width
        return (math.floor(value.real / width), math.floor(value.imag / width))

    def _mint(self, value: complex, cell: Tuple[int, int]) -> int:
        """Store ``value`` as a new representative in ``cell``."""
        self.generation += 1
        self._mints += 1
        bucket = self._buckets.get(cell)
        if bucket is None:
            self._buckets[cell] = [value]
        else:
            bucket.append(value)
        if self._free:
            index = self._free.pop()
            self._values[index] = value
            self._re[index] = value.real
            self._im[index] = value.imag
            self._born[index] = self._mints
        else:
            index = len(self._values)
            self._values.append(value)
            self._re.append(value.real)
            self._im.append(value.imag)
            self._born.append(self._mints)
        self._exact[value] = index
        return index

    def _insert(self, value: complex) -> int:
        """Store ``value`` without searching (seeding; fault injection
        plants duplicate representatives with it)."""
        return self._mint(value, self.cell(value))

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def is_zero(self, value: complex) -> bool:
        """Whether ``value`` is (canonically) zero."""
        return value == self.ZERO or (
            abs(value.real) < self.tolerance and abs(value.imag) < self.tolerance
        )

    def is_one(self, value: complex) -> bool:
        """Whether ``value`` is (canonically) one."""
        return value == self.ONE or (
            abs(value.real - 1.0) < self.tolerance
            and abs(value.imag) < self.tolerance
        )

    def approx_equal(self, a: complex, b: complex) -> bool:
        """Whether two complex numbers agree within the tolerance."""
        return (
            abs(a.real - b.real) < self.tolerance
            and abs(a.imag - b.imag) < self.tolerance
        )

    # ------------------------------------------------------------------
    # index layer
    # ------------------------------------------------------------------
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

    def _register(self, registry: MetricsRegistry) -> None:
        hits = registry.counter("dd_complex_table_hits_total")
        misses = registry.counter("dd_complex_table_misses_total")
        ref = weakref.ref(self)

        def sync() -> None:
            table = ref()
            if table is not None:
                hits.set_value(table.hits)
                misses.set_value(table.misses)

        registry.add_collector(sync)

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def entries(self) -> "list[Tuple[Tuple[int, int], complex]]":
        """Snapshot of ``(cell, stored value)`` pairs for audits."""
        return [
            (key, value)
            for key, bucket in self._buckets.items()
            for value in bucket
        ]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop all values and indices (seeds are re-registered).

        Invalidates every outstanding index; only callable when no pooled
        nodes reference the table (the engine clears node pools first).
        """
        self._buckets = {}
        self._values = []
        self._exact = {}
        self._re = array("d")
        self._im = array("d")
        self._free = []
        self._born = []
        self.generation += 1
        self.hits = 0
        self.misses = 0
        self._seed()

    def sweep(self, marked: "set[complex]") -> int:
        """Drop every stored value not in ``marked``; return how many.

        ``marked`` must contain every weight still referenced by a live
        diagram: removing a live weight's representative would let a
        later lookup mint a *different* one, silently breaking the exact
        ``==``/hash canonicity the rest of the package relies on.  The
        seeds always survive.
        """
        marked_indices = {
            index
            for value, index in self._exact.items()
            if value in marked
        }
        return self.sweep_indices(marked_indices)

    def sweep_indices(self, marked: "set[int]") -> int:
        """Free every index not in ``marked``; seeds always survive.

        Rebuilds the cells and the exact dict from the survivors —
        tombstone-free, like the unique-table rebuild — and pushes freed
        slots onto the free-list for reuse.  Returns the number freed.
        """
        freed = 0
        self.generation += 1
        survivors: Dict[Tuple[int, int], List[complex]] = {}
        for index, value in enumerate(self._values):
            if value is None:
                continue
            if index < self._seed_count or index in marked:
                survivors.setdefault(self.cell(value), []).append(value)
            else:
                freed += 1
                del self._exact[value]
                self._poison(index)
        self._buckets = survivors
        # A fault may have released a seed; re-seeding restores it.
        self._seed()
        return freed

    def release(self, index: int) -> None:
        """Free one slot exactly as a sweep frees an unmarked one.

        Only safe for a dead weight; fault injection uses it on live ones
        to model a mark phase that missed them.
        """
        value = self._values[index]
        self.generation += 1
        del self._exact[value]
        bucket = self._buckets.get(self.cell(value))
        if bucket and value in bucket:
            bucket.remove(value)
        self._poison(index)

    def _poison(self, index: int) -> None:
        self._values[index] = None
        self._re[index] = float("nan")
        self._im[index] = float("nan")
        self._free.append(index)


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
