"""Memory governance for decision-diagram packages.

The paper's central claim is that decision diagrams stay *compact* — but the
tables around them do not.  The unique tables, the complex table and the
compute tables all grow monotonically with the work performed, so a
long-lived package (one worker process serving thousands of requests)
bloats even though every individual diagram is small.  Mature DD packages
treat this as a first-class engineering problem: bounded tables,
reference-counting garbage collection and periodic sweeps (the JKQ/MQT
package of [14]; arXiv:2108.07027 Sec. "garbage collection").

This module provides the Pythonic counterpart:

:class:`MemoryBudget`
    Declarative limits — node count, complex-table entries, estimated
    resident bytes — with a soft-pressure fraction below the hard limit.

:class:`ResourceGovernor`
    Watches one :class:`~repro.dd.package.DDPackage`'s tables, classifies
    the current :class:`PressureLevel` and runs tiered collections:

    * **SOFT** — shrink every compute table to half (dropping the oldest
      entries);
    * **HARD** — clear the compute tables entirely *and* mark-and-sweep
      the node and weight pools: nodes reachable from live Python views
      (and from reference-counted root edges) and their weights are
      marked, everything else is freed.

Reference counting is *assistive*, not authoritative: node liveness is
governed by ordinary Python references to node views, but the weight pool
cannot know which root weights are still in use.
Holders of long-lived root edges — simulators, verification engines,
service sessions — register them via :meth:`DDPackage.incref` /
:meth:`DDPackage.decref` so a sweep never purges the canonical
representative of a live root weight (which would silently break
canonicity: two equal diagrams could stop comparing equal).  Registry
entries hold the node weakly, so a forgotten ``decref`` degrades into a
stale entry that self-cleans on the next collection instead of a leak.

Every governor action is observable: ``dd_gc_runs_total``,
``dd_gc_nodes_reclaimed_total``, ``dd_gc_complex_reclaimed_total``
counters, and ``dd_table_bytes`` / ``dd_pressure_level`` gauges.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "GcStats",
    "MemoryBudget",
    "PressureLevel",
    "ResourceGovernor",
    "COMPLEX_ENTRY_BYTES_ESTIMATE",
    "COMPUTE_ENTRY_BYTES_ESTIMATE",
]

#: Rough per-entry resident-size estimates (CPython 3.11, 64-bit): a complex
#: value plus its bucket share; a compute-table key tuple plus the dict slot.
#: They only need to be the right order of magnitude — budgets are coarse
#: guardrails, not an allocator.
COMPLEX_ENTRY_BYTES_ESTIMATE = 160
COMPUTE_ENTRY_BYTES_ESTIMATE = 320


class PressureLevel(enum.IntEnum):
    """How close the package's tables are to their budget."""

    OK = 0
    SOFT = 1
    HARD = 2


@dataclass(frozen=True)
class MemoryBudget:
    """Resource limits for one :class:`~repro.dd.package.DDPackage`.

    ``None`` disables the corresponding limit.  ``soft_fraction`` is the
    utilization at which the governor starts shedding compute-table entries
    (SOFT tier); crossing 1.0 of any limit triggers the HARD tier.
    ``check_interval`` is the number of governed public operations between
    pressure checks, keeping the per-operation overhead to one counter
    increment.
    """

    max_nodes: Optional[int] = None
    max_complex_entries: Optional[int] = None
    max_bytes: Optional[int] = None
    soft_fraction: float = 0.8
    check_interval: int = 64

    def __post_init__(self) -> None:
        for name in ("max_nodes", "max_complex_entries", "max_bytes"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive or None")
        if not 0.0 < self.soft_fraction <= 1.0:
            raise ValueError("soft_fraction must be in (0, 1]")
        if self.check_interval < 1:
            raise ValueError("check_interval must be >= 1")

    @property
    def limited(self) -> bool:
        """Whether any limit is actually set."""
        return (
            self.max_nodes is not None
            or self.max_complex_entries is not None
            or self.max_bytes is not None
        )


@dataclass
class GcStats:
    """Result of one :meth:`ResourceGovernor.collect` run."""

    level: PressureLevel = PressureLevel.OK
    nodes_before: int = 0
    nodes_after: int = 0
    complex_before: int = 0
    complex_after: int = 0
    compute_entries_dropped: int = 0
    duration_seconds: float = 0.0

    @property
    def nodes_reclaimed(self) -> int:
        return max(0, self.nodes_before - self.nodes_after)

    @property
    def complex_reclaimed(self) -> int:
        return max(0, self.complex_before - self.complex_after)

    def as_dict(self) -> Dict[str, float]:
        return {
            "level": int(self.level),
            "nodes_before": self.nodes_before,
            "nodes_after": self.nodes_after,
            "nodes_reclaimed": self.nodes_reclaimed,
            "complex_before": self.complex_before,
            "complex_after": self.complex_after,
            "complex_reclaimed": self.complex_reclaimed,
            "compute_entries_dropped": self.compute_entries_dropped,
            "duration_seconds": self.duration_seconds,
        }


class ResourceGovernor:
    """Budget enforcement and garbage collection for one package."""

    def __init__(
        self,
        package,
        budget: MemoryBudget,
        registry: Optional[MetricsRegistry] = None,
        event_bus=None,
    ):
        # Weak: the package owns the governor, not vice versa — a strong
        # reference would form a cycle and defer package teardown to the
        # cyclic collector.
        self._package = weakref.ref(package)
        self.budget = budget
        # Root-edge reference counts: (node uid, weight) -> [weakref, count].
        # The node is held weakly so a forgotten decref cannot pin a diagram;
        # dead entries are dropped during the mark phase.
        self._roots: Dict[Tuple[int, complex], List] = {}
        self._ticks = 0
        # Plain-int statistics (mirrors the table pattern: hot path pays one
        # increment; a weakref collector copies into registry counters).
        self.runs = 0
        self.nodes_reclaimed_total = 0
        self.complex_reclaimed_total = 0
        self.compute_entries_dropped_total = 0
        self.last_stats: Optional[GcStats] = None
        registry = registry if registry is not None else MetricsRegistry(enabled=False)
        self._registry = registry
        #: Optional :class:`repro.obs.events.EventBus` receiving one
        #: ``dd.gc`` event per collection and a ``dd.pressure`` event per
        #: pressure-tier transition (the dashboard's GC/pressure feed).
        self.event_bus = event_bus
        self._last_published_pressure = int(PressureLevel.OK)
        if registry.enabled:
            self._register(registry)

    def _register(self, registry: MetricsRegistry) -> None:
        runs = registry.counter("dd_gc_runs_total")
        nodes = registry.counter("dd_gc_nodes_reclaimed_total")
        complexes = registry.counter("dd_gc_complex_reclaimed_total")
        dropped = registry.counter("dd_gc_compute_entries_dropped_total")
        table_bytes = registry.gauge("dd_table_bytes")
        pressure = registry.gauge("dd_pressure_level")
        ref = weakref.ref(self)

        def sync() -> None:
            governor = ref()
            if governor is None or governor._package() is None:
                return
            runs.set_value(governor.runs)
            nodes.set_value(governor.nodes_reclaimed_total)
            complexes.set_value(governor.complex_reclaimed_total)
            dropped.set_value(governor.compute_entries_dropped_total)
            table_bytes.set(governor.table_bytes())
            pressure.set(int(governor.pressure()))

        registry.add_collector(sync)

    @property
    def package(self):
        package = self._package()
        if package is None:
            raise ReferenceError("the governed DDPackage has been freed")
        return package

    # ------------------------------------------------------------------
    # reference counting (assistive, see module docstring)
    # ------------------------------------------------------------------
    def incref(self, edge) -> None:
        node = edge.node
        if node.is_terminal:
            return
        key = (node.uid, edge.weight)
        entry = self._roots.get(key)
        if entry is None:
            self._roots[key] = [weakref.ref(node), 1]
        else:
            entry[1] += 1

    def decref(self, edge) -> None:
        node = edge.node
        if node.is_terminal:
            return
        key = (node.uid, edge.weight)
        entry = self._roots.get(key)
        if entry is None:
            return  # tolerated: a stale/foreign edge must not raise
        entry[1] -= 1
        if entry[1] <= 0:
            del self._roots[key]

    @property
    def live_root_count(self) -> int:
        return sum(1 for ref, _count in self._roots.values() if ref() is not None)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def node_count(self) -> int:
        package = self.package
        return len(package._vector_unique) + len(package._matrix_unique)

    def compute_entry_count(self) -> int:
        return sum(len(table) for table in self.package._compute_tables())

    def table_bytes(self) -> int:
        """Resident bytes of all tables.

        The flat index arrays (node pools, unique-table slots, weight
        components) report their *actual* byte size; the value-level
        complex buckets and the compute tables remain coarse per-entry
        estimates.
        """
        package = self.package
        return (
            package._pooled.table_bytes()
            + len(package.complex_table) * COMPLEX_ENTRY_BYTES_ESTIMATE
            + self.compute_entry_count() * COMPUTE_ENTRY_BYTES_ESTIMATE
        )

    def utilization(self) -> float:
        """Highest current/limit ratio over the configured limits (0 if none)."""
        budget = self.budget
        ratios = []
        if budget.max_nodes is not None:
            ratios.append(self.node_count() / budget.max_nodes)
        if budget.max_complex_entries is not None:
            ratios.append(len(self.package.complex_table) / budget.max_complex_entries)
        if budget.max_bytes is not None:
            ratios.append(self.table_bytes() / budget.max_bytes)
        return max(ratios) if ratios else 0.0

    def pressure(self) -> PressureLevel:
        utilization = self.utilization()
        if utilization >= 1.0:
            return PressureLevel.HARD
        if utilization >= self.budget.soft_fraction:
            return PressureLevel.SOFT
        return PressureLevel.OK

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def should_collect(self) -> bool:
        """Cheap per-operation cadence check (one increment most calls)."""
        if not self.budget.limited:
            return False
        self._ticks += 1
        if self._ticks < self.budget.check_interval:
            return False
        self._ticks = 0
        return self.pressure() is not PressureLevel.OK

    def collect(
        self, level: Optional[PressureLevel] = None, force: bool = False
    ) -> GcStats:
        """Run one tiered collection; safe only between package operations.

        ``force`` runs the full HARD tier regardless of measured pressure
        (used by service workers between jobs).
        """
        start = perf_counter()
        if level is None:
            level = PressureLevel.HARD if force else self.pressure()
        if force and level is not PressureLevel.HARD:
            level = PressureLevel.HARD
        package = self.package
        stats = GcStats(
            level=level,
            nodes_before=self.node_count(),
            complex_before=len(package.complex_table),
        )
        dropped = 0
        if level is PressureLevel.SOFT:
            for table in package._compute_tables():
                dropped += table.shrink(0.5)
        elif level is PressureLevel.HARD:
            for table in package._compute_tables():
                dropped += len(table)
                table.clear()
            # Index-keyed caches are empty now, so the engine may free and
            # recycle pool slots: mark every Python-reachable view and
            # refcounted root, sweep the rest, rebuild the unique tables
            # tombstone-free, then sweep orphaned weight indices.
            package._pooled.sweep(self._live_roots())
        stats.compute_entries_dropped = dropped
        stats.nodes_after = self.node_count()
        stats.complex_after = len(package.complex_table)
        stats.duration_seconds = perf_counter() - start
        self.runs += 1
        self.nodes_reclaimed_total += stats.nodes_reclaimed
        self.complex_reclaimed_total += stats.complex_reclaimed
        self.compute_entries_dropped_total += dropped
        self.last_stats = stats
        self._publish_collection(stats)
        # Re-verify structural invariants straight after the collection (a
        # no-op unless the package has sanitizing enabled): a sweep that
        # purged a live weight representative must surface here, at the GC
        # that caused it, not at some distant later operation.
        package._post_gc_sanitize()
        return stats

    def _publish_collection(self, stats: GcStats) -> None:
        """Push this collection (and any pressure transition) onto the bus."""
        bus = self.event_bus
        if bus is None:
            return
        bus.publish("dd.gc", dict(stats.as_dict(), runs=self.runs))
        self.publish_pressure()

    def publish_pressure(self) -> None:
        """Publish a ``dd.pressure`` event if the tier changed since last time."""
        bus = self.event_bus
        if bus is None:
            return
        level = int(self.pressure())
        if level != self._last_published_pressure:
            bus.publish("dd.pressure", {
                "level": level,
                "previous": self._last_published_pressure,
                "table_bytes": self.table_bytes(),
                "nodes": self.node_count(),
            })
            self._last_published_pressure = level

    def _live_roots(self) -> List[Tuple[object, complex]]:
        """Live ``(node, weight)`` root pairs; purges dead registry entries."""
        roots = []
        dead = []
        for key, (ref, _count) in self._roots.items():
            node = ref()
            if node is None:
                dead.append(key)
            else:
                roots.append((node, key[1]))
        for key in dead:
            del self._roots[key]
        return roots

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Snapshot for ``DDPackage.stats()`` / ``/healthz``."""
        return {
            "pressure": int(self.pressure()),
            "utilization": round(self.utilization(), 4),
            "nodes": self.node_count(),
            "complex_entries": len(self.package.complex_table),
            "compute_entries": self.compute_entry_count(),
            "table_bytes": self.table_bytes(),
            "live_roots": self.live_root_count,
            "gc_runs": self.runs,
            "gc_nodes_reclaimed": self.nodes_reclaimed_total,
            "gc_complex_reclaimed": self.complex_reclaimed_total,
        }
