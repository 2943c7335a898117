"""Resource-governance tests: budgets, refcounted roots, mark-and-sweep GC.

The governor must reclaim memory without ever compromising canonicity:
every live root (simulator states, verification engines, session holds)
has to read back the exact same amplitudes after any number of
collections, and the paper's headline numbers (Ex. 12's peak of 9 nodes)
must be unaffected by running under a tight budget.
"""

import math

import pytest

from repro.dd import (
    DDPackage,
    GcStats,
    MemoryBudget,
    PressureLevel,
    ResourceGovernor,
)
from repro.dd.edge import Edge
from repro.dd.node import TERMINAL
from repro.errors import DDError
from repro.qc import library
from repro.qc.circuit import QuantumCircuit
from repro.simulation.simulator import DDSimulator
from repro.tool.session import SimulationSession, VerificationSession
from repro.verification import ApplicationStrategy, check_equivalence_alternating


# ----------------------------------------------------------------------
# budget validation and pressure arithmetic
# ----------------------------------------------------------------------
class TestMemoryBudget:
    def test_default_budget_is_unlimited(self):
        budget = MemoryBudget()
        assert not budget.limited

    def test_any_limit_makes_it_limited(self):
        assert MemoryBudget(max_nodes=100).limited
        assert MemoryBudget(max_complex_entries=100).limited
        assert MemoryBudget(max_bytes=1 << 20).limited

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            MemoryBudget(max_nodes=0)
        with pytest.raises(ValueError):
            MemoryBudget(max_bytes=-1)
        with pytest.raises(ValueError):
            MemoryBudget(soft_fraction=0.0)
        with pytest.raises(ValueError):
            MemoryBudget(soft_fraction=1.5)
        with pytest.raises(ValueError):
            MemoryBudget(check_interval=0)

    def test_unlimited_budget_never_collects(self):
        package = DDPackage()
        simulator = DDSimulator(library.qft(3), package=package)
        simulator.run_all()
        assert package.governor.pressure() is PressureLevel.OK
        for _ in range(1000):
            assert not package.governor.should_collect()

    def test_pressure_tiers(self):
        package = DDPackage(budget=MemoryBudget(max_nodes=10))
        governor = package.governor
        assert governor.pressure() in (
            PressureLevel.OK, PressureLevel.SOFT, PressureLevel.HARD
        )
        # Ten thousand basis-state nodes blow any 10-node budget.
        tight = DDPackage(budget=MemoryBudget(max_nodes=2))
        simulator = DDSimulator(library.qft(3), package=tight)
        simulator.run_all()
        assert tight.governor.pressure() is PressureLevel.HARD
        assert tight.governor.utilization() > 1.0


# ----------------------------------------------------------------------
# refcounted roots
# ----------------------------------------------------------------------
class TestRootRegistry:
    def test_incref_returns_edge(self):
        package = DDPackage()
        state = package.zero_state(2)
        assert package.incref(state) is state

    def test_decref_of_unregistered_edge_is_noop(self):
        package = DDPackage()
        package.decref(package.zero_state(2))  # must not raise

    def test_registered_root_weight_survives_forced_gc(self):
        package = DDPackage()
        simulator = DDSimulator(library.ghz_state(3), package=package)
        simulator.run_all()
        state = simulator.state
        amplitude = package.amplitude(state, "000")
        package.gc(force=True)
        # The complex-table sweep must keep the root's weight: the exact
        # same representative object answers amplitude queries afterwards.
        assert package.amplitude(state, "000") == amplitude
        assert abs(amplitude - 1.0 / math.sqrt(2.0)) < 1e-12

    def test_dead_roots_are_purged_not_leaked(self):
        package = DDPackage(budget=MemoryBudget(max_nodes=10_000))
        for _ in range(32):
            simulator = DDSimulator(library.qft(3), package=package)
            simulator.run_all()
            simulator.close()
            del simulator
        package.gc(force=True)
        # After the holders died the registry self-cleans on collection.
        assert len(package.governor._roots) == 0


# ----------------------------------------------------------------------
# mark-and-sweep correctness
# ----------------------------------------------------------------------
class TestGarbageCollection:
    def test_forced_gc_returns_stats(self):
        package = DDPackage()
        stats = package.gc(force=True)
        assert isinstance(stats, GcStats)
        assert stats.level is PressureLevel.HARD
        assert stats.nodes_reclaimed >= 0
        assert stats.duration_seconds >= 0.0
        assert "nodes_reclaimed" in stats.as_dict()

    def test_gc_reclaims_dead_diagrams(self):
        package = DDPackage()
        simulator = DDSimulator(library.qft(4), package=package)
        simulator.run_all()
        complex_before = len(package.complex_table)
        simulator.close()
        del simulator
        package.gc(force=True)
        # Nodes die with their last reference (WeakValueDictionary) and the
        # sweep drops the now-orphaned complex entries down to ~the seeds.
        assert package.governor.node_count() <= 2
        assert len(package.complex_table) <= complex_before

    def test_live_states_read_back_identically_after_gc(self):
        # Property: for every live root, post-gc amplitudes are *exactly*
        # the pre-gc amplitudes (canonicity: identical objects, not merely
        # close values).
        package = DDPackage()
        simulator = DDSimulator(library.qft(3), package=package, seed=7)
        simulator.run_all()
        before = [
            package.amplitude(simulator.state, format(i, "03b"))
            for i in range(8)
        ]
        package.gc(force=True)
        after = [
            package.amplitude(simulator.state, format(i, "03b"))
            for i in range(8)
        ]
        assert before == after

    def test_simulation_continues_correctly_across_gc(self):
        package = DDPackage()
        reference = DDSimulator(library.qft(3), seed=3)
        reference.run_all()
        simulator = DDSimulator(library.qft(3), package=package, seed=3)
        for _ in range(3):
            simulator.step_forward()
        package.gc(force=True)
        while not simulator.at_end:
            simulator.step_forward()
        assert simulator.statevector() == pytest.approx(
            reference.statevector()
        )

    def test_budgeted_package_stays_within_reach_of_budget(self):
        # Repeated throwaway simulations under a tight budget must not grow
        # tables without bound: periodic collection keeps reclaiming them.
        package = DDPackage(budget=MemoryBudget(max_nodes=64, check_interval=8))
        for _ in range(20):
            simulator = DDSimulator(library.qft(3), package=package)
            simulator.run_all()
            simulator.close()
            del simulator
        package.gc(force=True)
        assert package.governor.node_count() <= 64
        assert package.governor.stats()["gc_runs"] >= 1

    def test_gc_metrics_exported(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry(enabled=True)
        package = DDPackage(registry=registry)
        simulator = DDSimulator(library.qft(3), package=package)
        simulator.run_all()
        package.gc(force=True)
        registry.collect()
        assert registry.get("dd_gc_runs_total").value >= 1
        assert registry.get("dd_table_bytes").value > 0


# ----------------------------------------------------------------------
# the paper's numbers under governance
# ----------------------------------------------------------------------
class TestPaperInvariantsUnderGovernance:
    def test_ex12_peak_is_9_with_governor_enabled(self):
        """Paper Ex. 12's peak of 9 nodes must hold under a tight budget."""
        package = DDPackage(budget=MemoryBudget(max_nodes=256, check_interval=4))
        result = check_equivalence_alternating(
            library.qft(3),
            library.qft_compiled(3),
            strategy=ApplicationStrategy.COMPILATION_FLOW,
            package=package,
        )
        assert result.equivalent
        assert result.max_nodes == 9

    def test_verification_session_peak_with_budget(self):
        package = DDPackage(budget=MemoryBudget(max_nodes=256))
        session = VerificationSession(
            library.qft(3), library.qft_compiled(3), package=package
        )
        session.run_compilation_flow()
        assert session.is_identity()
        assert session.peak_node_count == 9
        session.close()

    def test_clear_caches_composes_with_inflight_sessions(self):
        package = DDPackage()
        session = SimulationSession(library.ghz_state(3), package=package, seed=0)
        session.forward()
        package.clear_caches()
        package.gc(force=True)
        session.to_end(stop_at_breakpoints=False)
        amplitude = package.amplitude(session.state, "111")
        assert abs(amplitude - 1.0 / math.sqrt(2.0)) < 1e-12
        # Navigation backward across the cache clear also still works:
        # the incref'd history states survived the sweep.
        session.to_start()
        assert package.amplitude(session.state, "000") == 1.0


# ----------------------------------------------------------------------
# unique-table hygiene (satellite: no non-finite weights)
# ----------------------------------------------------------------------
class TestUniqueTableGuards:
    def test_non_finite_weight_cannot_enter_unique_table(self):
        package = DDPackage()
        bad = Edge(TERMINAL, complex(float("inf"), 0.0))
        good = Edge(TERMINAL, complex(1.0, 0.0))
        with pytest.raises(DDError):
            package.make_vector_node(0, (bad, good))
        with pytest.raises(DDError):
            package.make_matrix_node(0, (good, bad, bad, good))
        assert len(package._vector_unique) == 0
        assert len(package._matrix_unique) == 0

    def test_non_finite_rejected_before_normalization_too(self):
        package = DDPackage()
        bad = Edge(TERMINAL, complex(0.0, float("nan")))
        good = Edge(TERMINAL, complex(1.0, 0.0))
        with pytest.raises(DDError):
            package.make_vector_node(0, (bad, good))


# ----------------------------------------------------------------------
# governor internals
# ----------------------------------------------------------------------
class TestGovernorLifecycle:
    def test_governor_does_not_keep_package_alive(self):
        import weakref

        package = DDPackage()
        governor = package.governor
        ref = weakref.ref(package)
        del package
        assert ref() is None
        with pytest.raises(ReferenceError):
            governor.package

    def test_stats_shape(self):
        package = DDPackage(budget=MemoryBudget(max_nodes=1000))
        stats = package.stats()["governance"]
        for key in ("pressure", "nodes", "table_bytes", "gc_runs",
                    "gc_nodes_reclaimed", "utilization"):
            assert key in stats

    def test_soft_collection_shrinks_compute_tables(self):
        package = DDPackage()
        simulator = DDSimulator(library.qft(3), package=package)
        simulator.run_all()
        entries_before = package.governor.compute_entry_count()
        stats = package.governor.collect(level=PressureLevel.SOFT, force=True)
        assert stats.compute_entries_dropped >= 0
        assert package.governor.compute_entry_count() <= entries_before

    def test_hard_collection_resets_compute_table_hit_ratios(self):
        """After a HARD collection empties the compute tables, their
        hit/miss counters must restart from zero — otherwise ``stats()``
        and ``/metrics`` report a stale pre-collection ratio against an
        empty table (ISSUE 7, satellite 4)."""
        package = DDPackage()
        simulator = DDSimulator(library.qft(4), package=package)
        simulator.run_all()
        tables = list(package._compute_tables())
        assert any(t.hits + t.misses > 0 for t in tables)
        package.governor.collect(level=PressureLevel.HARD, force=True)
        for table in tables:
            assert table.hits == 0, table.name
            assert table.misses == 0, table.name
        # ...and the table really is empty, so the zeroed ratio is honest.
        assert package.governor.compute_entry_count() == 0

    def test_shrink_that_drops_entries_resets_counters(self):
        from repro.dd.compute_table import ComputeTable

        table = ComputeTable("t", capacity=64)
        for index in range(10):
            table.insert(index, index)
            table.lookup(index)
        assert table.hits == 10
        dropped = table.shrink(0.5)
        assert dropped == 5
        assert table.hits == 0 and table.misses == 0
        # A shrink that drops nothing keeps the (fresh) counters intact.
        table.lookup(9)
        empty = ComputeTable("e", capacity=64)
        assert empty.shrink(0.5) == 0
        assert table.hits + table.misses == 1
