"""Seeded fault injection against the DD engine and the service layer.

The sanitizer (:mod:`repro.sanitizer.core`) is only trustworthy if it is
*demonstrated* to catch real corruption.  :class:`FaultInjector` plants
seeded, deterministic faults — each modelled on a realistic failure mode of
a hash-consed DD package — directly into a package's tables;
``tests/test_fault_injection.py`` asserts that every fault class is
detected by its expected check and that a clean package stays clean.

Fault classes and the check expected to fire:

=============================  ===========================================
fault                          detected by
=============================  ===========================================
``perturb-weight``             ``unique-key`` (node mutated after consing)
``alias-unique-entry``         ``unique-duplicate`` (two nodes, one
                               signature)
``skew-refcount``              ``root-count`` (refcount drops to zero
                               early)
``orphan-root-weight``         ``root-weight-missing`` (rep swept while
                               live)
``unclamp-near-zero``          ``weight-near-zero`` (sub-tolerance weight)
``poison-nonfinite``           ``weight-nonfinite`` (NaN amplitude)
``duplicate-complex-rep``      ``complex-duplicate`` (two reps in one
                               ball)
``pooled-dangling-successor``  ``pool-dangling-successor`` (edge index
                               into the free-list)
``pooled-stale-weight``        ``pool-stale-weight`` (weight slot freed
                               under a live edge)
``skip-across-level``          ``skip-level-unreduced`` (identity node
                               ``(c, 0, 0, c)`` stored instead of an
                               edge that skips across its level)
=============================  ===========================================

The module also provides worker-pool *fault jobs* (crash, hang, corrupt)
used to verify that the service degrades gracefully: crashes surface as
``503`` (worker respawned), hangs as ``504`` (watchdog kill) and detected
corruption as ``503`` plus a degraded ``/healthz``.  The jobs are only
installed into the worker dispatch table when the
``REPRO_ENABLE_FAULT_JOBS`` environment variable is set — a production
deployment cannot be asked to crash itself.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.dd.complex_table import ComplexTable
from repro.dd.edge import Edge
from repro.dd.node import Node
from repro.errors import DDError

__all__ = [
    "FAULT_CLASSES",
    "EXPECTED_CHECKS",
    "FaultInjector",
    "inject_fault",
    "install_service_faults",
]

#: Fault-class name -> :class:`FaultInjector` method name.
FAULT_CLASSES: Dict[str, str] = {
    "perturb-weight": "perturb_weight",
    "alias-unique-entry": "alias_unique_entry",
    "skew-refcount": "skew_refcount",
    "orphan-root-weight": "orphan_root_weight",
    "unclamp-near-zero": "unclamp_near_zero",
    "poison-nonfinite": "poison_nonfinite",
    "duplicate-complex-rep": "duplicate_complex_rep",
    "pooled-dangling-successor": "pooled_dangling_successor",
    "pooled-stale-weight": "pooled_stale_weight",
    "skip-across-level": "skip_across_level",
}

#: Fault-class name -> sanitizer check id that must fire.
EXPECTED_CHECKS: Dict[str, str] = {
    "perturb-weight": "unique-key",
    "alias-unique-entry": "unique-duplicate",
    "skew-refcount": "root-count",
    "orphan-root-weight": "root-weight-missing",
    "unclamp-near-zero": "weight-near-zero",
    "poison-nonfinite": "weight-nonfinite",
    "duplicate-complex-rep": "complex-duplicate",
    "pooled-dangling-successor": "pool-dangling-successor",
    "pooled-stale-weight": "pool-stale-weight",
    "skip-across-level": "skip-level-unreduced",
}


class FaultInjector:
    """Plants deterministic corruptions into one package's tables.

    All randomness flows through one :class:`random.Random` seeded at
    construction, and candidate nodes/roots/representatives are sorted
    before sampling, so a given ``(package history, seed)`` always plants
    the same fault — failures reproduce exactly from the reported seed.

    The injector keeps strong references to any node views it corrupts
    (``_pinned``), so a planted edge override cannot be silently
    garbage-collected before the sanitizer gets to see it.
    """

    def __init__(self, package, seed: int = 0):
        self.package = package
        self.seed = seed
        self.rng = random.Random(seed)
        # Pins live on the *package* (not the injector): planted objects
        # must survive the injector going out of scope, or the weakly cached
        # node view silently drops the corruption before the sanitizer runs.
        if not hasattr(package, "_fault_pins"):
            package._fault_pins = []
        self._pinned: List[Any] = package._fault_pins

    # ------------------------------------------------------------------
    # candidate selection (deterministic under the seed)
    # ------------------------------------------------------------------
    def _live_entries(self) -> List[Tuple[Any, tuple, Node]]:
        """All live ``(unique table, stored key, node)`` entries, by uid."""
        entries = []
        for table in (self.package._vector_unique, self.package._matrix_unique):
            for key, node in table.audit_entries():
                entries.append((table, key, node))
        entries.sort(key=lambda item: item[2].uid)
        return entries

    def _pick_entry(self) -> Tuple[Any, tuple, Node]:
        entries = self._live_entries()
        if not entries:
            raise DDError("fault injection needs at least one live node")
        return self.rng.choice(entries)

    def _pick_nonzero_edge(self, node: Node) -> int:
        candidates = [
            index
            for index, edge in enumerate(node.edges)
            if edge.weight != ComplexTable.ZERO
        ]
        if not candidates:
            raise DDError("node has no non-zero edge to corrupt")
        return self.rng.choice(candidates)

    def _replace_edge_weight(self, node: Node, index: int, weight: complex) -> None:
        edges = list(node.edges)
        edges[index] = Edge(edges[index].node, weight)
        node.edges = tuple(edges)
        # Pooled views are weakly cached per index: pin the mutated view so
        # the sanitizer sees *this* object (with its edge override) rather
        # than a freshly minted, uncorrupted view of the same pool slot.
        self._pinned.append(node)

    def _live_roots(self) -> List[Tuple[Tuple[int, complex], list]]:
        roots = [
            (key, entry)
            for key, entry in self.package.governor._roots.items()
            if entry[0]() is not None
        ]
        roots.sort(key=lambda item: item[0][0])
        return roots

    # ------------------------------------------------------------------
    # fault classes
    # ------------------------------------------------------------------
    def perturb_weight(self, delta: float = 1e-3) -> Dict[str, Any]:
        """Silently nudge one live edge weight (bit-rot / race corruption)."""
        _table, _key, node = self._pick_entry()
        index = self._pick_nonzero_edge(node)
        old = node.edges[index].weight
        self._replace_edge_weight(node, index, old + complex(delta, 0.0))
        return {
            "fault": "perturb-weight",
            "node": node.uid,
            "edge": index,
            "delta": delta,
        }

    def alias_unique_entry(self) -> Dict[str, Any]:
        """Insert a structural clone of a live node into the unique table.

        Hash consing now answers queries with *either* node depending on
        the probe path — exactly the aliasing a buggy table resize or
        rehash would produce.
        """
        _table, _key, node = self._pick_entry()
        clone_index = self.package._pooled.clone_node_for_fault(node)
        return {"fault": "alias-unique-entry", "node": node.uid, "clone": clone_index}

    def skew_refcount(self) -> Dict[str, Any]:
        """Zero a live root's refcount without removing the registration."""
        roots = self._live_roots()
        if not roots:
            raise DDError("fault injection needs at least one registered root")
        key, entry = self.rng.choice(roots)
        entry[1] = 0
        return {"fault": "skew-refcount", "root": key[0]}

    def orphan_root_weight(self) -> Dict[str, Any]:
        """Drop a live root weight's representative from the complex table.

        Models an over-eager sweep: the root edge still carries the weight,
        but the table no longer knows it, so the next lookup of a nearby
        value would mint a *second* representative and break ``==``.
        """
        table = self.package.complex_table
        roots = self._live_roots()
        candidates = []
        for key, _entry in roots:
            weight = key[1]
            if (
                table.find(weight) == weight
                and abs(weight - ComplexTable.ONE) > table.tolerance
            ):
                candidates.append(key)
        if not candidates:
            raise DDError(
                "fault injection needs a registered root with a non-trivial weight"
            )
        key = self.rng.choice(candidates)
        weight = key[1]
        table.release(table.lookup_index(weight))
        return {"fault": "orphan-root-weight", "root": key[0], "weight": repr(weight)}

    def unclamp_near_zero(self) -> Dict[str, Any]:
        """Set a live edge weight into the open interval (0, tolerance)."""
        _table, _key, node = self._pick_entry()
        index = self._pick_nonzero_edge(node)
        tiny = complex(self.package.complex_table.tolerance * 0.25, 0.0)
        self._replace_edge_weight(node, index, tiny)
        return {"fault": "unclamp-near-zero", "node": node.uid, "edge": index}

    def poison_nonfinite(self) -> Dict[str, Any]:
        """Set a live edge weight to NaN (overflow / uninitialised read)."""
        _table, _key, node = self._pick_entry()
        index = self._pick_nonzero_edge(node)
        self._replace_edge_weight(node, index, complex(float("nan"), 0.0))
        return {"fault": "poison-nonfinite", "node": node.uid, "edge": index}

    def duplicate_complex_rep(self) -> Dict[str, Any]:
        """Insert a second representative inside an existing tolerance ball."""
        table = self.package.complex_table
        values = sorted(
            (value for _key, value in table.entries() if value != ComplexTable.ZERO),
            key=lambda v: (v.real, v.imag),
        )
        if not values:
            raise DDError("complex table has no non-zero representative")
        value = self.rng.choice(values)
        shadow = complex(value.real + table.tolerance * 0.3, value.imag)
        table._insert(shadow)
        return {
            "fault": "duplicate-complex-rep",
            "value": repr(value),
            "shadow": repr(shadow),
        }

    # ------------------------------------------------------------------
    # pooled-storage fault classes
    # ------------------------------------------------------------------
    def pooled_dangling_successor(self) -> Dict[str, Any]:
        """Free a pool slot that a live node still points at.

        Models an over-eager mark-and-sweep: the successor's slot lands on
        the free-list (and may be recycled into an unrelated node) while
        parents still hold its index.
        """
        from repro.dd.pooled import MATRIX, VECTOR

        engine = self.package._pooled
        candidates = []
        for kind, pool in ((VECTOR, engine.vpool), (MATRIX, engine.mpool)):
            for index in pool.live_indices():
                for offset, (succ, _wsucc) in enumerate(pool.edges_of(index)):
                    if succ >= 0:
                        candidates.append((kind, index, offset, succ))
        if not candidates:
            raise DDError(
                "fault injection needs a live node with a non-terminal successor"
            )
        kind, parent, offset, succ = self.rng.choice(sorted(candidates))
        pool = engine.vpool if kind == VECTOR else engine.mpool
        pool.free(succ)
        return {
            "fault": "pooled-dangling-successor",
            "kind": "vector" if kind == VECTOR else "matrix",
            "parent": parent,
            "edge": offset,
            "freed": succ,
        }

    def pooled_stale_weight(self) -> Dict[str, Any]:
        """Free a weight-pool slot that a live edge still indexes.

        Frees the slot through :meth:`WeightPool.release`, exactly as
        :meth:`WeightPool.sweep_indices` frees a genuinely dead weight —
        but against a weight that is still referenced, modelling a mark
        phase that missed it.
        """
        from repro.dd.pooled import MATRIX, VECTOR

        engine = self.package._pooled
        weights = engine.weights
        referenced = set()
        for pool in (engine.vpool, engine.mpool):
            for index in pool.live_indices():
                for _succ, wsucc in pool.edges_of(index):
                    if wsucc >= weights._seed_count:
                        referenced.add(wsucc)
        if not referenced:
            raise DDError(
                "fault injection needs a live edge with a non-seed weight"
            )
        target = self.rng.choice(sorted(referenced))
        value = weights.value(target)
        weights.release(target)
        return {
            "fault": "pooled-stale-weight",
            "weight_index": target,
            "value": repr(value),
        }

    # ------------------------------------------------------------------
    # identity-skipping fault classes
    # ------------------------------------------------------------------
    def skip_across_level(self) -> Dict[str, Any]:
        """Store an identity node ``(c, 0, 0, c)`` one level above ``c``.

        Models a constructor that bypassed the reduction rule: the level
        an edge should skip across is kept as an explicit node, so one
        operator has two stored forms and hash consing no longer shares
        them.  ``c`` is a live matrix node or the terminal.
        """
        from repro.dd.node import MatrixNode
        from repro.dd.pool import TERMINAL_INDEX, WeightPool
        from repro.dd.pooled import MATRIX

        engine = self.package._pooled
        children = [TERMINAL_INDEX] + [
            node._index
            for _table, _key, node in self._live_entries()
            if isinstance(node, MatrixNode)
        ]
        child = self.rng.choice(children)
        level = engine.var_of(MATRIX, child) + 1
        one = WeightPool.ONE_INDEX
        index = engine._cons(
            MATRIX, level, (child, TERMINAL_INDEX, TERMINAL_INDEX, child),
            (one, 0, 0, one),
        )
        node = engine.view(MATRIX, index)
        self._pinned.append(node)
        return {"fault": "skip-across-level", "node": node.uid, "child": child}

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def inject(self, fault: str, **kwargs) -> Dict[str, Any]:
        """Plant one fault by class name (see :data:`FAULT_CLASSES`)."""
        try:
            method = FAULT_CLASSES[fault]
        except KeyError:
            valid = ", ".join(sorted(FAULT_CLASSES))
            raise DDError(f"unknown fault class {fault!r} (expected one of: {valid})")
        return getattr(self, method)(**kwargs)


def inject_fault(package, fault: str, seed: int = 0, **kwargs) -> Dict[str, Any]:
    """One-shot convenience: plant ``fault`` into ``package`` under ``seed``."""
    return FaultInjector(package, seed=seed).inject(fault, **kwargs)


# ----------------------------------------------------------------------
# service fault jobs (worker-pool chaos testing)
# ----------------------------------------------------------------------

def fault_crash_job(exit_code: int = 17) -> Dict[str, Any]:
    """Kill the worker process mid-job (simulates a hard crash / OOM kill).

    ``os._exit`` skips all cleanup, so the parent sees the pipe break —
    the pool must respawn the worker and answer 503, not hang or 500.
    Inline pools (no subprocess to sacrifice) refuse instead of killing
    the caller's process.
    """
    import os

    if not os.environ.get("REPRO_WORKER_CHILD"):
        raise DDError("fault-crash is only available in worker processes")
    os._exit(exit_code)


def fault_hang_job(seconds: float = 3600.0) -> Dict[str, Any]:
    """Sleep past any reasonable deadline (simulates a runaway computation).

    The pool's request watchdog must kill the worker and answer 504.
    """
    import time as _time

    _time.sleep(float(seconds))
    return {"slept": seconds}  # pragma: no cover - watchdog kills us first


def fault_corrupt_job(fault: str = "perturb-weight", seed: int = 0) -> Dict[str, Any]:
    """Corrupt the job's own package, then sanitize.

    Builds a small state (so there is something to corrupt), plants the
    requested fault and runs the sanitizer with ``raise_on_violation`` —
    the resulting :class:`~repro.errors.SanitizerError` reaches the caller
    (503 over HTTP) and the job's governance report carries the violation
    count, degrading ``/healthz``.
    """
    from repro.service import workers

    package = workers.job_package()
    state = package.from_state_vector([0.5, 0.5j, -0.5, 0.5])
    package.incref(state)
    try:
        detail = inject_fault(package, fault, seed=seed)
        report = package.sanitize(raise_on_violation=True)
    finally:
        package.decref(state)
    # Unreachable for every known fault class; kept for forward-compat
    # with fault classes the sanitizer intentionally tolerates.
    return {"planted": detail, "ok": report.ok}


#: Fault jobs installed into the worker dispatch table (opt-in).
SERVICE_FAULT_JOBS = {
    "fault-crash": fault_crash_job,
    "fault-hang": fault_hang_job,
    "fault-corrupt": fault_corrupt_job,
}


def install_service_faults() -> None:
    """Register the fault jobs with the worker-pool dispatch table.

    Called by the worker bootstrap when ``REPRO_ENABLE_FAULT_JOBS`` is set
    (and directly by tests for fork-started or inline pools).
    """
    from repro.service import workers

    workers._JOB_FUNCTIONS.update(SERVICE_FAULT_JOBS)
