"""Unit tests for hash-consing and memoization tables."""

import gc

import pytest

from repro.dd.compute_table import ComputeTable
from repro.dd.edge import ONE_EDGE, ZERO_EDGE
from repro.dd.package import DDPackage


def _vector_table():
    """A fresh package (to keep alive) and its vector unique table."""
    package = DDPackage()
    return package, package._vector_unique


class TestUniqueTable:
    def test_identical_structure_shares_node(self):
        package, table = _vector_table()
        a = package.make_vector_node(0, (ZERO_EDGE, ONE_EDGE))
        b = package.make_vector_node(0, (ZERO_EDGE, ONE_EDGE))
        assert a.node is b.node
        assert table.hits == 1
        assert table.misses == 1

    def test_different_levels_are_distinct(self):
        package, _table = _vector_table()
        a = package.make_vector_node(0, (ZERO_EDGE, ONE_EDGE))
        b = package.make_vector_node(1, (ZERO_EDGE, ONE_EDGE))
        assert a.node is not b.node

    def test_different_weights_are_distinct(self):
        package, _table = _vector_table()
        a = package.make_vector_node(0, (ONE_EDGE, ZERO_EDGE))
        b = package.make_vector_node(0, (ONE_EDGE, ONE_EDGE))
        assert a.node is not b.node

    def test_weak_references_allow_collection(self):
        # The engine caches node views weakly: once the last view is gone,
        # the next full collection frees the slot.
        package, table = _vector_table()
        edge = package.make_vector_node(0, (ZERO_EDGE, ONE_EDGE))
        assert len(table) == 1
        del edge
        gc.collect()
        package.gc(force=True)
        assert len(table) == 0

    def test_clear(self):
        package, table = _vector_table()
        keep = package.make_vector_node(0, (ZERO_EDGE, ONE_EDGE))
        table.clear()
        assert len(table) == 0
        again = package.make_vector_node(0, (ZERO_EDGE, ONE_EDGE))
        assert again.node is not keep.node  # fresh node after clear


class TestComputeTable:
    def test_lookup_miss_then_hit(self):
        cache = ComputeTable("test")
        assert cache.lookup("key") is None
        cache.insert("key", "value")
        assert cache.lookup("key") == "value"
        assert cache.hits == 1
        assert cache.misses == 1

    def test_capacity_clears_when_full(self):
        cache = ComputeTable("test", capacity=2)
        cache.insert("a", 1)
        cache.insert("b", 2)
        cache.insert("c", 3)  # exceeds capacity: table cleared first
        assert cache.lookup("a") is None
        assert cache.lookup("c") == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ComputeTable("test", capacity=0)

    def test_hit_ratio(self):
        cache = ComputeTable("test")
        assert cache.hit_ratio == 0.0
        cache.insert("x", 1)
        cache.lookup("x")
        cache.lookup("y")
        assert 0.0 < cache.hit_ratio < 1.0

    def test_clear(self):
        cache = ComputeTable("test")
        cache.insert("x", 1)
        cache.clear()
        assert len(cache) == 0
