"""Campaign execution — one inline loop over the cells and a resumable journal.

The executor owns two responsibilities:

* **Durability.**  Progress journals to ``manifest.jsonl`` in the output
  directory: a header line naming the campaign and its spec digest, then
  one fsync'd JSON line per finished cell.  A killed campaign loses at
  most the cell that was in flight; re-running the same spec against the
  same directory skips every journaled ``ok`` cell and re-attempts only
  failed/missing ones.  A *changed* spec (different digest) is refused —
  half of campaign A plus half of campaign B is not a campaign.

* **Failure isolation.**  Cells run one after another in this process,
  each on its own cold package (:func:`repro.campaign.jobs.run_cell`).
  Each cell lands in exactly one status: ``ok``, or ``failed`` (the cell
  raised).  A failing cell never aborts the sweep; the aggregate records
  what happened where.
"""

from __future__ import annotations

import json
import os
import threading
from time import perf_counter
from typing import Any, Callable, Dict, Optional, Tuple

from repro.campaign.jobs import run_cell
from repro.campaign.planner import expand_plan
from repro.campaign.spec import CampaignSpec
from repro.errors import CampaignError

__all__ = ["Manifest", "run_campaign", "MANIFEST_NAME", "SPEC_COPY_NAME"]

MANIFEST_NAME = "manifest.jsonl"
SPEC_COPY_NAME = "spec.json"

#: Statuses that count as completed (skipped on resume).
_DONE_STATUSES = ("ok",)


class Manifest:
    """The append-only cell journal backing resume.

    Records are one JSON object per line.  Appends are flushed and
    fsync'd under a lock so a SIGKILL can lose at most a partially
    written trailing line — which :meth:`load` tolerates and discards.
    """

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def write_header(self, spec: CampaignSpec, planned: int) -> None:
        header = {
            "kind": "header",
            "campaign": spec.name,
            "spec_digest": spec.digest,
            "planned_cells": planned,
        }
        with self._lock, open(self.path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def append(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True)
        with self._lock, open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def load(self) -> Tuple[Optional[Dict[str, Any]], Dict[str, Dict[str, Any]]]:
        """Read ``(header, {cell_id: record})``; corrupt lines are skipped.

        A line is corrupt when it is not a JSON object, or when it is not
        the header and its ``cell_id`` is not a non-empty string.  Later
        records win for a repeated cell ID, so a cell re-attempted after a
        failure is represented by its latest outcome.
        """
        header: Optional[Dict[str, Any]] = None
        records: Dict[str, Dict[str, Any]] = {}
        if not self.exists():
            return header, records
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    # A SIGKILL mid-append leaves one torn trailing line;
                    # that cell simply re-runs.
                    continue
                if not isinstance(entry, dict):
                    continue
                cell_id = entry.get("cell_id")
                if entry.get("kind") == "header":
                    header = entry
                elif isinstance(cell_id, str) and cell_id:
                    records[cell_id] = entry
        return header, records


def run_campaign(
    spec: CampaignSpec,
    out_dir: str,
    seed_offset: int = 0,
    progress: Optional[Callable[[str], None]] = None,
    fresh: bool = False,
) -> Dict[str, Any]:
    """Run (or resume) ``spec`` into ``out_dir`` and return the aggregate.

    ``fresh`` discards any existing manifest instead of resuming.  The
    returned artifact is also written to ``out_dir`` alongside the
    markdown report and timeline SVG (see :mod:`repro.campaign.report`).
    """
    from repro.campaign.report import aggregate, write_outputs

    say = progress or (lambda message: None)

    if seed_offset:
        # Fold the offset into the spec itself: the digest, the journaled
        # spec copy, and the cell IDs then all agree, and `campaign
        # resume` (which replans from the copy) continues the right sweep.
        from dataclasses import replace

        spec = replace(
            spec, seeds=tuple(seed + seed_offset for seed in spec.seeds)
        )
    cells = expand_plan(spec)
    os.makedirs(out_dir, exist_ok=True)
    manifest = Manifest(os.path.join(out_dir, MANIFEST_NAME))

    completed: Dict[str, Dict[str, Any]] = {}
    if manifest.exists() and not fresh:
        header, records = manifest.load()
        if header is not None and header.get("spec_digest") != spec.digest:
            raise CampaignError(
                f"{manifest.path} journals a different campaign "
                f"(spec digest {header.get('spec_digest', '?')[:12]}… vs "
                f"{spec.digest[:12]}…); pass --fresh to discard it"
            )
        completed = {
            cell_id: record
            for cell_id, record in records.items()
            if record.get("status") in _DONE_STATUSES
        }
        if completed:
            say(f"resuming: {len(completed)}/{len(cells)} cells already done")
    if not manifest.exists() or fresh:
        manifest.write_header(spec, planned=len(cells))

    # Persist the expanded spec next to the journal so `campaign resume`
    # and `campaign report` can operate on the directory alone.
    spec_copy = os.path.join(out_dir, SPEC_COPY_NAME)
    with open(spec_copy, "w", encoding="utf-8") as handle:
        json.dump(spec.as_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")

    results: Dict[str, Dict[str, Any]] = dict(completed)
    for cell in cells:
        if cell.cell_id in completed:
            continue
        started = perf_counter()
        try:
            outcome = run_cell(cell.payload())
            record = {
                "cell_id": cell.cell_id,
                "status": "ok",
                "metrics": outcome["metrics"],
                "timing": outcome["timing"],
                "counts": outcome["counts"],
                "error": None,
            }
        except Exception as error:  # noqa: BLE001 — a cell must never abort the sweep
            record = {
                "cell_id": cell.cell_id,
                "status": "failed",
                "metrics": {},
                "timing": {"wall_seconds": perf_counter() - started},
                "counts": None,
                "error": f"{type(error).__name__}: {error}",
            }
        manifest.append(record)
        results[cell.cell_id] = record
        say(f"[{len(results)}/{len(cells)}] {cell.cell_id}: {record['status']}")

    artifact = aggregate(spec, results, planned=cells)
    write_outputs(out_dir, artifact)
    return artifact
