"""Structural-invariant checking for decision-diagram packages.

The paper's claims are *structural*: the unique table holds exactly one node
per ``(var, successors, weights)`` signature, edge weights are normalized
representatives from the complex table, and the node counts of the examples
(Ex. 12: peak 9 instead of 21) follow from that canonicity.  Nothing in a
hash-consed package re-checks those invariants after construction, so a
silent break — a rewritten successor slot, an aliased table entry, a swept-away
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
    Hash-consing canonicity: no two live nodes share a stored signature
    ``(var, successor indices, weight indices)`` (``unique-duplicate``),
    and every live node is reachable through the unique-table probe chain
    of its own current key (``unique-key``: a node whose stored fields
    changed after consing, or a table that stranded it, fails this).
    Successor levels strictly decrease (``successor-order``).

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
    index points at a live weight-pool entry, and the free-list holds
    exactly the freed slots with no duplicates.

The node families read one pass over the live pool slots
(``NodePool.var``/``succ``/``wsucc`` and ``WeightPool`` values); the
sanitizer creates no node views, so running it leaves the set of live
views, and with it what a GC sweep keeps, unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.dd.complex_table import ComplexTable
from repro.dd.normalization import NormalizationScheme
from repro.dd.pool import FREED_VAR, TERMINAL_INDEX
from repro.errors import SanitizerError

__all__ = ["DDSanitizer", "SanitizeReport", "Violation", "NORM_SLACK_FACTOR"]


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
    and never allocates nodes, weights or node views, so it is safe to run
    between any two operations (the same contract as garbage collection).
    """

    def __init__(self, package):
        self.package = package

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run(self) -> SanitizeReport:
        start = perf_counter()
        report = SanitizeReport()
        self._check_pools(report)
        self._check_complex_table(report)
        self._check_roots(report)
        report.duration_seconds = perf_counter() - start
        return report

    # ------------------------------------------------------------------
    # node pools: one walk over the live slots
    # ------------------------------------------------------------------
    def _check_pools(self, report: SanitizeReport) -> None:
        engine = self.package._pooled
        for kind, pool, unique, scheme in (
            ("vector", engine.vpool, engine._vunique, self.package.vector_scheme),
            ("matrix", engine.mpool, engine._munique,
             NormalizationScheme.MAX_MAGNITUDE),
        ):
            free = self._check_free_list(kind, pool, report)
            arity = pool.arity
            by_signature: Dict[tuple, int] = {}
            for index in range(pool.slot_count):
                var = pool.var[index]
                freed_mark = var == FREED_VAR
                if freed_mark or index in free:
                    if freed_mark != (index in free):
                        report.violations.append(Violation(
                            "pool-free-list",
                            f"slot @{index} freed-marker/free-list mismatch",
                            f"{kind} pool",
                        ))
                    continue
                report.nodes_checked += 1
                location = f"{kind} node @{index} (q{var})"
                base = index * arity
                succ = tuple(pool.succ[base : base + arity])
                wsucc = tuple(pool.wsucc[base : base + arity])
                previous = by_signature.setdefault((var, succ, wsucc), index)
                if previous != index:
                    report.violations.append(Violation(
                        "unique-duplicate",
                        f"aliases node @{previous}: two live nodes share "
                        "signature (var, successors, weights)",
                        location,
                    ))
                if not unique.contains_index(index):
                    report.violations.append(Violation(
                        "unique-key",
                        "live node is not reachable through the probe chain "
                        "of its own key (node mutated after hash consing, or "
                        "stranded by the table)",
                        location,
                    ))
                if kind == "matrix":
                    self._check_unreduced(succ, wsucc, location, report)
                values = self._check_edges(pool, var, succ, wsucc, location, report)
                if values is not None:
                    self._check_normalization(values, scheme, location, report)

    def _check_free_list(self, kind: str, pool, report: SanitizeReport) -> set:
        """Check the free-list's own integrity; returns it as a set."""
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
        return free

    def _check_edges(
        self, pool, var: int, succ: tuple, wsucc: tuple, location: str,
        report: SanitizeReport,
    ) -> Optional[List[complex]]:
        """Index integrity and weight hygiene of one node's stored edges.

        Returns the successor weights, or ``None`` when one is stale or
        non-finite (normalization is then not checked)."""
        weights = self.package._pooled.weights
        tolerance = weights.tolerance
        values: Optional[List[complex]] = []
        for offset, (child, widx) in enumerate(zip(succ, wsucc)):
            where = f"{location} edge {offset}"
            if child != TERMINAL_INDEX:
                if not pool.is_live(child):
                    report.violations.append(Violation(
                        "pool-dangling-successor",
                        f"successor index {child} points at a freed or "
                        "out-of-range pool slot",
                        where,
                    ))
                elif pool.var[child] >= var:
                    report.violations.append(Violation(
                        "successor-order",
                        f"successor level q{pool.var[child]} not below q{var}",
                        where,
                    ))
            if not weights.index_is_live(widx):
                report.violations.append(Violation(
                    "pool-stale-weight",
                    f"weight index {widx} points at a freed or "
                    "out-of-range weight-pool entry",
                    where,
                ))
                values = None
                continue
            weight = weights.value(widx)
            if not (math.isfinite(weight.real) and math.isfinite(weight.imag)):
                report.violations.append(Violation(
                    "weight-nonfinite", f"weight {weight!r}", where
                ))
                values = None
                continue
            if values is not None:
                values.append(weight)
            if weight == ComplexTable.ZERO:
                if child != TERMINAL_INDEX:
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
            if weights.find(weight) != weight:
                report.violations.append(Violation(
                    "weight-noncanonical",
                    f"weight {weight!r} is not an exact canonical "
                    "representative of the complex table",
                    where,
                ))
        return values

    def _check_normalization(
        self,
        weights: List[complex],
        scheme: NormalizationScheme,
        location: str,
        report: SanitizeReport,
    ) -> None:
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
        if scheme is NormalizationScheme.L2:
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

    def _check_unreduced(self, succ, wsucc, location, report) -> None:
        """A stored matrix node must not be an identity over its level
        (weight index 0 is the canonical zero)."""
        n0, _n1, _n2, n3 = succ
        w0, w1, w2, w3 = wsucc
        if w1 == 0 and w2 == 0 and w0 != 0 and (n0, w0) == (n3, w3):
            report.violations.append(Violation(
                "skip-level-unreduced",
                "matrix node is an identity over its level (e1=e2=0, "
                "e0=e3) and should have been removed by the skipping "
                "reduction rule",
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


def sanitize_package(
    package, raise_on_violation: bool = False
) -> SanitizeReport:
    """Run one sanitizer pass over ``package`` (functional convenience)."""
    report = DDSanitizer(package).run()
    if raise_on_violation:
        report.raise_if_violations()
    return report
