"""Property tests for the pooled storage primitives (ISSUE 7, satellite 2).

Seeded-random workloads against :class:`~repro.dd.pool.NodePool`,
:class:`~repro.dd.pool.PooledUniqueTable` and
:class:`~repro.dd.pool.WeightPool` directly — below the engine — so the
invariants the sanitizer assumes (probe-chain integrity, free-list
exactness, canonicalization idempotence) are pinned down at the layer
that provides them:

* insert/lookup round-trips: every inserted key is found again at the
  same node index, absent keys report absent;
* probe-chain integrity after a GC-style ``rebuild``: every survivor is
  reachable through its own probe chain, every freed node is gone;
* free-list reuse never aliases live nodes;
* canonicalization is idempotent and index-stable through both
  ``lookup`` and ``lookup_index``.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.dd.pool import (
    FREED_VAR,
    NodePool,
    PooledUniqueTable,
    TERMINAL_INDEX,
    WeightPool,
)

SEEDS = [0, 1, 7, 42, 12345]


def _random_key(rng, pool, live):
    """A random (var, successors, weights) key over existing live nodes."""
    var = rng.randrange(0, 8)
    successors = tuple(
        rng.choice(live) if live and rng.random() < 0.7 else TERMINAL_INDEX
        for _ in range(pool.arity)
    )
    weights = tuple(rng.randrange(0, 16) for _ in range(pool.arity))
    return var, successors, weights


def _build(rng, arity, inserts):
    """Grow a pool/table pair by hash-consing random keys."""
    pool = NodePool(arity)
    table = PooledUniqueTable(pool)
    order = itertools.count(1)
    by_key = {}
    live = []
    for _ in range(inserts):
        var, successors, weights = _random_key(rng, pool, live)
        slot, found = table.find_slot(var, successors, weights)
        if found >= 0:
            assert by_key[(var, successors, weights)] == found
            continue
        index = pool.alloc(var, successors, weights, next(order))
        table.insert_at(slot, index)
        by_key[(var, successors, weights)] = index
        live.append(index)
    return pool, table, by_key


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("arity", [2, 4])
def test_insert_lookup_roundtrip(seed, arity):
    rng = random.Random(seed)
    pool, table, by_key = _build(rng, arity, 400)
    assert len(table) == len(by_key) == pool.live_count
    for (var, successors, weights), index in by_key.items():
        slot, found = table.find_slot(var, successors, weights)
        assert found == index
    # Absent keys stay absent (var=99 was never inserted).
    _slot, found = table.find_slot(99, (TERMINAL_INDEX,) * arity, (1,) * arity)
    assert found == -1


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("arity", [2, 4])
def test_probe_chains_survive_rebuild(seed, arity):
    """After a GC-style free + rebuild, every survivor is reachable through
    its own probe chain and every freed key is gone — no tombstones."""
    rng = random.Random(seed)
    pool, table, by_key = _build(rng, arity, 400)
    victims = {
        index for index in pool.live_indices() if rng.random() < 0.5
    }
    # Survivors must not reference victims, or the dangling-successor
    # invariant the sanitizer enforces would not hold after the free;
    # transitively grow the victim set (children of survivors survive).
    changed = True
    while changed:
        changed = False
        for index in pool.live_indices():
            if index in victims:
                continue
            if any(
                succ in victims
                for succ, _w in pool.edges_of(index)
                if succ >= 0
            ):
                victims.add(index)
                changed = True
    for index in victims:
        pool.free(index)
    survivors = sorted(set(pool.live_indices()))
    table.rebuild(survivors)
    assert len(table) == len(survivors)
    for index in survivors:
        assert table.contains_index(index)
    for (var, successors, weights), index in by_key.items():
        _slot, found = table.find_slot(var, successors, weights)
        if index in victims:
            assert found == -1, "freed key still reachable"
        else:
            assert found == index


@pytest.mark.parametrize("seed", SEEDS)
def test_free_list_reuse_never_aliases_live_nodes(seed):
    rng = random.Random(seed)
    pool = NodePool(2)
    order = itertools.count(1)
    live = set()
    for _ in range(600):
        if live and rng.random() < 0.4:
            victim = rng.choice(sorted(live))
            pool.free(victim)
            live.remove(victim)
            assert pool.var[victim] == FREED_VAR
            assert not pool.is_live(victim)
        else:
            index = pool.alloc(
                rng.randrange(0, 8),
                [TERMINAL_INDEX, TERMINAL_INDEX],
                [rng.randrange(0, 8), rng.randrange(0, 8)],
                next(order),
            )
            # A recycled slot must come off the free-list, never collide
            # with a live index.
            assert index not in live
            assert pool.is_live(index)
            live.add(index)
        free = set(pool.free_list)
        assert len(free) == len(pool.free_list), "free-list duplicate"
        assert not (free & live), "free-list aliases a live node"
        assert pool.live_count == len(live)
    # Order stamps are never reused, even through heavy slot recycling.
    stamps = [pool.order[index] for index in sorted(live)]
    assert len(stamps) == len(set(stamps))


@pytest.mark.parametrize("seed", SEEDS)
def test_canonicalization_idempotent_and_index_stable(seed):
    """lookup/lookup_index agree, and canonicalizing a canonical value
    is the identity (same representative, same index)."""
    rng = random.Random(seed)
    table = WeightPool()
    values = [
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(200)
    ]
    # Perturbations inside the tolerance ball of an earlier value.
    values += [
        v + complex(rng.uniform(-0.3, 0.3) * table.tolerance, 0)
        for v in rng.sample(values, 50)
    ]
    indices = [table.lookup_index(value) for value in values]
    for value, index in zip(values, indices):
        rep = table.value(index)
        assert table.lookup(value) == rep
        assert table.lookup_index(value) == index
        # Idempotence: a representative canonicalizes to itself.
        assert table.lookup(rep) == rep
        assert table.lookup_index(rep) == index
    # A second pass returns identical indices.
    assert [table.lookup_index(value) for value in values] == indices


@pytest.mark.parametrize("seed", SEEDS)
def test_weight_sweep_keeps_seeds_and_marked(seed):
    rng = random.Random(seed)
    table = WeightPool()
    indices = [
        table.lookup_index(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        for _ in range(100)
    ]
    non_seed = sorted(
        {i for i in indices if i >= table._seed_count}
    )
    keep = set(rng.sample(non_seed, len(non_seed) // 2))
    values_kept = {table.value(i) for i in keep}
    freed = table.sweep_indices(keep)
    assert freed == len(non_seed) - len(keep)
    for index in range(table._seed_count):
        assert table.index_is_live(index)
    for index in keep:
        assert table.index_is_live(index)
        assert table.value(index) in values_kept
    for index in non_seed:
        if index not in keep:
            assert not table.index_is_live(index)
            assert index in table._free
    # Freed indices are recycled before the slot array grows.
    before = table.slot_count
    table.lookup(complex(3.25, -4.75))
    assert table.slot_count == before


def test_unique_table_grows_and_shrinks():
    """Load factor stays below 2/3 through growth; rebuild shrinks the
    capacity back toward the survivor count (never below initial)."""
    pool = NodePool(2)
    table = PooledUniqueTable(pool)
    order = itertools.count(1)
    initial = table.capacity
    for var in range(2000):
        slot, found = table.find_slot(var, (-1, -1), (1, 1))
        assert found == -1
        table.insert_at(slot, pool.alloc(var, [-1, -1], [1, 1], next(order)))
        assert len(table) * 3 < table.capacity * 2 + 3
    assert table.capacity > initial
    survivors = pool.live_indices()[:10]
    for index in pool.live_indices()[10:]:
        pool.free(index)
    table.rebuild(survivors)
    assert table.capacity == initial
    assert len(table) == 10
    for index in survivors:
        assert table.contains_index(index)
