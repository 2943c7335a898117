"""Structural-invariant checking for decision-diagram packages.

The paper's claims are *structural*: the unique table holds exactly one node
per ``(var, successors, weights)`` signature, edge weights are normalized
representatives from the complex table, and the node counts of the examples
(Ex. 12: peak 9 instead of 21) follow from that canonicity.  Nothing in a
hash-consed package re-checks those invariants after construction, so a
silent break — a mutated edge tuple, an aliased table entry, a swept-away
weight representative — corrupts every downstream figure while the test
suite stays green.

:class:`DDSanitizer` walks one :class:`~repro.dd.package.DDPackage` and
verifies the invariant families below; each check is cheap (one pass over
the live tables) so the sanitizer can run on demand
(:meth:`DDPackage.sanitize`, ``qdd-tool sanitize``), at operation
boundaries (``DDPackage(sanitize_every=N)`` or ``REPRO_SANITIZE_EVERY``)
and after garbage collection in the resource governor.

Invariant families
------------------

``unique-*``
    Hash-consing canonicity: no two live nodes share a structural
    signature, every stored table key matches its node's recomputed
    signature, successor levels strictly decrease, and node arity matches
    its kind (2 successors for vector nodes, 4 for matrix nodes).

``weight-*``
    Edge-weight hygiene on live nodes: weights are finite, zero weights
    use the canonical zero stub (terminal successor), no weight sits
    unclamped in ``(0, tolerance)``, and every weight is an exact
    canonical representative of the complex table.

``norm-*``
    Per-scheme normalization: L2 vector nodes have subtree norm 1 with a
    real non-negative first weight; max-magnitude nodes carry an exact
    ``1`` pivot with no magnitude above 1.

``complex-*``
    Complex-table integrity: representatives are finite, bucketed under
    the right grid key, have no component in ``(0, tolerance)``, and are
    pairwise at least ``tolerance`` apart (one representative per
    tolerance ball).

``root-*``
    Refcount/GC-root consistency with :mod:`repro.dd.governance`: every
    registered root has a positive count, and a live root's weight still
    has its exact representative in the complex table (a sweep that
    purged it would let a later lookup mint a *different* representative).

``skip-level-unreduced``
    Identity-skipping consistency: no stored identity matrix node
    ``(e, 0, 0, e)`` may survive construction — the reduction rule must
    have fired.  The check reads the pool arrays, so the identity views
    the package shows for skipped levels never trip it.

``pool-*``
    Pooled-storage index integrity: every live node's successor indices
    point at live pool slots (never into the free-list), every weight
    index points at a live weight-pool entry, the free-list holds exactly
    the freed slots with no duplicates, and every live node is reachable
    through its own unique-table probe chain (open addressing never
    strands a live entry).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Tuple

from repro.dd.complex_table import ComplexTable
from repro.dd.node import Node, VectorNode
from repro.dd.normalization import NormalizationScheme
from repro.errors import SanitizerError

__all__ = ["DDSanitizer", "SanitizeReport", "Violation", "NORM_SLACK_FACTOR"]


def _signature(var: int, edges) -> tuple:
    """A node's hash-consing key: its level plus each successor's
    ``(uid, weight)``.  Node uids suffice because successors are themselves
    hash-consed, and canonical weights compare exactly."""
    return (var,) + tuple((edge.node.uid, edge.weight) for edge in edges)


#: Normalization checks allow this many tolerances of slack: canonical
#: representatives are each within one tolerance of the exact value, so a
#: recomputed norm can drift a few tolerances without any invariant being
#: broken.  Planted faults perturb weights by ~1e-3 — orders of magnitude
#: above the slack — so detection is unaffected.
NORM_SLACK_FACTOR = 64.0


@dataclass(frozen=True)
class Violation:
    """One detected invariant violation."""

    check: str
    message: str
    location: str = ""

    def as_dict(self) -> Dict[str, str]:
        return {
            "check": self.check,
            "message": self.message,
            "location": self.location,
        }

    def __str__(self) -> str:
        prefix = f"[{self.check}]"
        if self.location:
            prefix += f" {self.location}:"
        return f"{prefix} {self.message}"


@dataclass
class SanitizeReport:
    """Result of one sanitizer run over a package."""

    violations: List[Violation] = field(default_factory=list)
    nodes_checked: int = 0
    complex_entries_checked: int = 0
    roots_checked: int = 0
    duration_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def checks_failed(self) -> Tuple[str, ...]:
        """Distinct check identifiers that fired, in first-seen order."""
        seen: List[str] = []
        for violation in self.violations:
            if violation.check not in seen:
                seen.append(violation.check)
        return tuple(seen)

    def as_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "nodes_checked": self.nodes_checked,
            "complex_entries_checked": self.complex_entries_checked,
            "roots_checked": self.roots_checked,
            "duration_seconds": self.duration_seconds,
            "violations": [v.as_dict() for v in self.violations],
        }

    def summary(self) -> str:
        if self.ok:
            return (
                f"sanitize: OK ({self.nodes_checked} nodes, "
                f"{self.complex_entries_checked} complex entries, "
                f"{self.roots_checked} roots checked)"
            )
        head = ", ".join(self.checks_failed)
        return (
            f"sanitize: {len(self.violations)} violation(s) [{head}] over "
            f"{self.nodes_checked} nodes / "
            f"{self.complex_entries_checked} complex entries"
        )

    def raise_if_violations(self) -> None:
        if not self.ok:
            raise SanitizerError(self.summary(), report=self)


class DDSanitizer:
    """Walks one package's tables and verifies structural invariants.

    The sanitizer only *reads* the tables; it never mutates package state
    and never allocates nodes or weights, so it is safe to run between any
    two operations (the same contract as garbage collection).
    """

    def __init__(self, package):
        self.package = package

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run(self) -> SanitizeReport:
        start = perf_counter()
        report = SanitizeReport()
        self._check_unique_table(
            self.package._vector_unique, "vector", report
        )
        self._check_unique_table(
            self.package._matrix_unique, "matrix", report
        )
        self._check_complex_table(report)
        self._check_roots(report)
        self._check_pools(report)
        report.duration_seconds = perf_counter() - start
        return report

    # ------------------------------------------------------------------
    # unique tables: canonicity, weight hygiene, normalization
    # ------------------------------------------------------------------
    def _check_unique_table(self, table, kind: str, report: SanitizeReport) -> None:
        entries = table.audit_entries()
        report.nodes_checked += len(entries)
        by_signature: Dict[tuple, Node] = {}
        expected_arity = 2 if kind == "vector" else 4
        if kind == "vector":
            scheme = self.package.vector_scheme
        else:
            scheme = NormalizationScheme.MAX_MAGNITUDE
        for stored_key, node in entries:
            location = f"{kind} node #{node.uid} (q{node.var})"
            if len(node.edges) != expected_arity:
                report.violations.append(Violation(
                    "unique-arity",
                    f"{len(node.edges)} successors (expected {expected_arity})",
                    location,
                ))
                continue
            signature = _signature(node.var, node.edges)
            if signature != stored_key:
                report.violations.append(Violation(
                    "unique-key",
                    "stored table key does not match the node's recomputed "
                    "signature (node mutated after hash consing)",
                    location,
                ))
            previous = by_signature.get(signature)
            if previous is not None and previous is not node:
                report.violations.append(Violation(
                    "unique-duplicate",
                    f"aliases node #{previous.uid}: two live nodes share "
                    "signature (var, successors, weights)",
                    location,
                ))
            else:
                by_signature[signature] = node
            self._check_node_edges(node, location, report)
            self._check_normalization(node, scheme, location, report)

    def _check_node_edges(
        self, node: Node, location: str, report: SanitizeReport
    ) -> None:
        tolerance = self.package.complex_table.tolerance
        find = self.package.complex_table.find
        for index, edge in enumerate(node.edges):
            weight = edge.weight
            where = f"{location} edge {index}"
            if not (math.isfinite(weight.real) and math.isfinite(weight.imag)):
                report.violations.append(Violation(
                    "weight-nonfinite", f"weight {weight!r}", where
                ))
                continue
            if not edge.node.is_terminal and edge.node.var >= node.var:
                report.violations.append(Violation(
                    "successor-order",
                    f"successor level q{edge.node.var} not below q{node.var}",
                    where,
                ))
            if weight == ComplexTable.ZERO:
                if not edge.node.is_terminal:
                    report.violations.append(Violation(
                        "zero-edge-form",
                        "zero-weight edge keeps a live successor instead of "
                        "the canonical zero stub",
                        where,
                    ))
                continue
            if abs(weight) < tolerance:
                report.violations.append(Violation(
                    "weight-near-zero",
                    f"unclamped near-zero weight {weight!r} "
                    f"(|w| < tolerance {tolerance:g})",
                    where,
                ))
                continue
            if find(weight) != weight:
                report.violations.append(Violation(
                    "weight-noncanonical",
                    f"weight {weight!r} is not an exact canonical "
                    "representative of the complex table",
                    where,
                ))

    def _check_normalization(
        self,
        node: Node,
        scheme: NormalizationScheme,
        location: str,
        report: SanitizeReport,
    ) -> None:
        weights = [edge.weight for edge in node.edges]
        if any(
            not (math.isfinite(w.real) and math.isfinite(w.imag))
            for w in weights
        ):
            return  # already reported as weight-nonfinite
        slack = NORM_SLACK_FACTOR * self.package.complex_table.tolerance
        nonzero = [w for w in weights if w != ComplexTable.ZERO]
        if not nonzero:
            report.violations.append(Violation(
                "norm-all-zero",
                "all successors are zero (the node itself should have "
                "collapsed to the zero stub)",
                location,
            ))
            return
        if scheme is NormalizationScheme.L2 and isinstance(node, VectorNode):
            norm_sq = sum(abs(w) ** 2 for w in weights)
            if abs(norm_sq - 1.0) > slack:
                report.violations.append(Violation(
                    "norm-l2",
                    f"successor weights have squared norm {norm_sq!r} "
                    "(expected 1)",
                    location,
                ))
            first = nonzero[0]
            if abs(first.imag) > slack or first.real < -slack:
                report.violations.append(Violation(
                    "norm-l2-phase",
                    f"first non-zero weight {first!r} is not real "
                    "non-negative",
                    location,
                ))
        else:
            # MAX_MAGNITUDE (all matrix nodes; vector nodes under the
            # ablation scheme): the pivot carries an exact canonical 1 and
            # nothing exceeds magnitude 1.
            if not any(w == ComplexTable.ONE for w in nonzero):
                report.violations.append(Violation(
                    "norm-max-pivot",
                    "no successor carries the exact canonical weight 1",
                    location,
                ))
            peak = max(abs(w) for w in nonzero)
            if peak > 1.0 + slack:
                report.violations.append(Violation(
                    "norm-max-magnitude",
                    f"successor magnitude {peak!r} exceeds 1",
                    location,
                ))

    # ------------------------------------------------------------------
    # complex table: representative uniqueness within tolerance
    # ------------------------------------------------------------------
    def _check_complex_table(self, report: SanitizeReport) -> None:
        table = self.package.complex_table
        tolerance = table.tolerance
        entries = table.entries()
        report.complex_entries_checked += len(entries)
        reported_pairs = set()
        for stored_cell, value in entries:
            where = f"complex entry {value!r}"
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                report.violations.append(Violation(
                    "complex-nonfinite", f"stored value {value!r}", where
                ))
                continue
            expected_cell = table.cell(value)
            if expected_cell != stored_cell:
                report.violations.append(Violation(
                    "complex-bucket-key",
                    f"stored under cell {stored_cell} but belongs in "
                    f"{expected_cell}",
                    where,
                ))
            for component, name in ((value.real, "real"), (value.imag, "imag")):
                if component != 0.0 and abs(component) < tolerance:
                    report.violations.append(Violation(
                        "complex-near-zero",
                        f"{name} component {component!r} sits unclamped in "
                        f"(0, tolerance)",
                        where,
                    ))
            # Representative uniqueness: no *other* stored value within the
            # tolerance ball, found by the table's own search window.
            for other in table.near(value):
                if other is value:
                    continue
                pair = frozenset((id(value), id(other)))
                if pair in reported_pairs:
                    continue
                reported_pairs.add(pair)
                report.violations.append(Violation(
                    "complex-duplicate",
                    f"representatives {value!r} and {other!r} are within "
                    f"tolerance {tolerance:g} of each other",
                    where,
                ))

    # ------------------------------------------------------------------
    # governance roots
    # ------------------------------------------------------------------
    def _check_roots(self, report: SanitizeReport) -> None:
        governor = self.package.governor
        find = self.package.complex_table.find
        for (uid, weight), entry in list(governor._roots.items()):
            ref, count = entry[0], entry[1]
            report.roots_checked += 1
            where = f"root (node #{uid}, weight {weight!r})"
            if count <= 0:
                report.violations.append(Violation(
                    "root-count",
                    f"registered root has non-positive refcount {count} "
                    "(decref should have removed the entry)",
                    where,
                ))
            if ref() is None:
                continue  # dead root: purged lazily by the next GC mark
            if not (math.isfinite(weight.real) and math.isfinite(weight.imag)):
                report.violations.append(Violation(
                    "root-weight-nonfinite", f"weight {weight!r}", where
                ))
                continue
            if weight != ComplexTable.ZERO and find(weight) != weight:
                report.violations.append(Violation(
                    "root-weight-missing",
                    "live root's weight has no exact representative in the "
                    "complex table (swept while still referenced)",
                    where,
                ))


    # ------------------------------------------------------------------
    # pooled storage: index integrity
    # ------------------------------------------------------------------
    def _check_pools(self, report: SanitizeReport) -> None:
        engine = self.package._pooled
        from repro.dd.pool import FREED_VAR, TERMINAL_INDEX

        weights = engine.weights
        for kind, pool, unique in (
            ("vector", engine.vpool, engine._vunique),
            ("matrix", engine.mpool, engine._munique),
        ):
            free = set(pool.free_list)
            if len(free) != len(pool.free_list):
                report.violations.append(Violation(
                    "pool-free-list",
                    "free-list contains duplicate slot indices",
                    f"{kind} pool",
                ))
            for index in pool.free_list:
                if not 0 <= index < pool.slot_count:
                    report.violations.append(Violation(
                        "pool-free-list",
                        f"free-list index {index} out of range "
                        f"(0..{pool.slot_count - 1})",
                        f"{kind} pool",
                    ))
                elif pool.var[index] != FREED_VAR:
                    report.violations.append(Violation(
                        "pool-free-list",
                        f"free-list slot @{index} aliases a live node "
                        f"(q{pool.var[index]})",
                        f"{kind} pool",
                    ))
            for index in range(pool.slot_count):
                freed_mark = pool.var[index] == FREED_VAR
                if freed_mark or index in free:
                    if freed_mark != (index in free):
                        report.violations.append(Violation(
                            "pool-free-list",
                            f"slot @{index} freed-marker/free-list mismatch",
                            f"{kind} pool",
                        ))
                    continue
                location = f"{kind} pool node @{index} (q{pool.var[index]})"
                pool_edges = list(pool.edges_of(index))
                if kind == "matrix":
                    self._check_unreduced(pool_edges, location, report)
                for offset, (succ, wsucc) in enumerate(pool_edges):
                    where = f"{location} edge {offset}"
                    if succ != TERMINAL_INDEX and not pool.is_live(succ):
                        report.violations.append(Violation(
                            "pool-dangling-successor",
                            f"successor index {succ} points at a freed or "
                            "out-of-range pool slot",
                            where,
                        ))
                    if not weights.index_is_live(wsucc):
                        report.violations.append(Violation(
                            "pool-stale-weight",
                            f"weight index {wsucc} points at a freed or "
                            "out-of-range weight-pool entry",
                            where,
                        ))
                if not unique.contains_index(index):
                    report.violations.append(Violation(
                        "pool-probe-chain",
                        "live node is not reachable through its own "
                        "unique-table probe chain",
                        location,
                    ))

    def _check_unreduced(self, edges, location, report) -> None:
        """A stored matrix node must not be an identity over its level
        (weight index 0 is the canonical zero)."""
        (n0, w0), (n1, w1), (n2, w2), (n3, w3) = edges
        if w1 == 0 and w2 == 0 and w0 != 0 and (n0, w0) == (n3, w3):
            report.violations.append(Violation(
                "skip-level-unreduced",
                "matrix node is an identity over its level (e1=e2=0, "
                "e0=e3) and should have been removed by the skipping "
                "reduction rule",
                location,
            ))


def sanitize_package(
    package, raise_on_violation: bool = False
) -> SanitizeReport:
    """Run one sanitizer pass over ``package`` (functional convenience)."""
    report = DDSanitizer(package).run()
    if raise_on_violation:
        report.raise_if_violations()
    return report
