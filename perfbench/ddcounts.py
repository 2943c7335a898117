"""Exact work counts of one DD package, read from ``DDPackage.stats()``."""

from __future__ import annotations

from typing import Dict, Iterable

from common import ratio

FIELDS = (
    "built", "unique_hits",
    "complex_hits", "complex_misses",
    "apply_hits", "apply_misses",
    "add_hits", "add_misses",
    "mult_hits", "mult_misses",
    "gc_runs",
)


def snapshot(package) -> Dict[str, int]:
    """Counts of a package since it was created (every job gets a cold
    package, so a job's counts are its package's counts at the end)."""
    stats = package.stats()
    vector, matrix = stats["unique_vector"], stats["unique_matrix"]
    mv, mm = stats["mult-mv"], stats["mult-mm"]
    return {
        "built": vector["misses"] + matrix["misses"],
        "unique_hits": vector["hits"] + matrix["hits"],
        "complex_hits": stats["complex_table"]["hits"],
        "complex_misses": stats["complex_table"]["misses"],
        "apply_hits": stats["apply"]["hits"],
        "apply_misses": stats["apply"]["misses"],
        "add_hits": stats["add"]["hits"],
        "add_misses": stats["add"]["misses"],
        "mult_hits": mv["hits"] + mm["hits"],
        "mult_misses": mv["misses"] + mm["misses"],
        "gc_runs": stats["governance"]["gc_runs"],
    }


def total(snapshots: Iterable[Dict[str, int]]) -> Dict[str, int]:
    summed = dict.fromkeys(FIELDS, 0)
    for counts in snapshots:
        for field in FIELDS:
            summed[field] += counts[field]
    return summed


def metrics(counts: Dict[str, int]) -> Dict[str, float]:
    """The ``dd.*`` per-layer metrics of summed counts."""
    complex_lookups = counts["complex_hits"] + counts["complex_misses"]
    return {
        "dd.nodes_built": counts["built"],
        "dd.unique_hit_ratio": ratio(counts["unique_hits"], counts["unique_hits"] + counts["built"]),
        "dd.complex_lookups": complex_lookups,
        "dd.complex_hit_ratio": ratio(counts["complex_hits"], complex_lookups),
        "dd.apply_hit_ratio": ratio(counts["apply_hits"], counts["apply_hits"] + counts["apply_misses"]),
        "dd.add_hit_ratio": ratio(counts["add_hits"], counts["add_hits"] + counts["add_misses"]),
        "dd.mult_hit_ratio": ratio(counts["mult_hits"], counts["mult_hits"] + counts["mult_misses"]),
        "dd.gc_runs": counts["gc_runs"],
    }
