"""Shared CLI plumbing for the benchmark harness.

Every benchmark entry point — the pytest harness (``conftest.py``) and the
standalone scripts (``bench_soak.py`` & friends) — takes the same two
knobs:

* ``--json-out PATH``: where to write the machine-readable result payload
  (default: ``benchmarks/results/<name>.json``), so CI jobs can collect
  artifacts from one configurable location.
* ``--seed N`` (scripts) / ``--bench-seed N`` (pytest): the base seed for
  any randomized workload, defaulting to the ``BENCH_SEED`` environment
  variable — CI can rotate seeds fleet-wide without touching commands.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Environment variable holding the fleet-wide base seed.
SEED_ENV = "BENCH_SEED"


def default_seed() -> int:
    """Base seed from ``$BENCH_SEED`` (0 when unset or unparsable)."""
    raw = os.environ.get(SEED_ENV, "")
    try:
        return int(raw) if raw.strip() else 0
    except ValueError:
        return 0


def add_common_arguments(parser) -> None:
    """Attach the shared ``--json-out`` / ``--seed`` flags to ``parser``."""
    parser.add_argument(
        "--json-out",
        metavar="PATH",
        default=None,
        help="write the JSON result payload to PATH "
             "(default: benchmarks/results/<name>.json)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=default_seed(),
        help="base seed for randomized workloads "
             f"(default: ${SEED_ENV} or 0)",
    )


def write_json_result(
    name: str, payload: Dict[str, Any], json_out: Optional[str] = None
) -> str:
    """Persist ``payload`` to ``json_out`` or ``results/<name>.json``."""
    path = json_out or os.path.join(RESULTS_DIR, f"{name}.json")
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


# ----------------------------------------------------------------------
# campaign-backed benchmarks
# ----------------------------------------------------------------------

#: Where the declarative sweep specs live (``benchmarks/campaigns/``).
CAMPAIGNS_DIR = os.path.join(os.path.dirname(__file__), "campaigns")


def run_campaign_spec(
    spec_file: str, seed_offset: int = 0, out_root: Optional[str] = None
) -> Dict[str, Any]:
    """Run one of the committed campaign specs and return its artifact.

    The benchmark sweeps (scaling / ablation / variable order) are
    declared in ``benchmarks/campaigns/*.json`` and executed through the
    campaign runner; the pytest benches only assert over the returned
    artifact.  ``seed_offset`` threads ``--bench-seed`` / ``$BENCH_SEED``
    into every cell of the sweep.
    """
    from repro.campaign import load_spec, run_campaign

    spec = load_spec(os.path.join(CAMPAIGNS_DIR, spec_file))
    out_dir = os.path.join(
        out_root or RESULTS_DIR, "campaigns", spec.name
    )
    return run_campaign(
        spec, out_dir, seed_offset=seed_offset, fresh=True
    )


def artifact_cells(
    artifact: Dict[str, Any],
    label: Optional[str] = None,
    package: Optional[str] = None,
) -> Dict[int, Dict[str, Any]]:
    """Index an artifact's ``ok`` cells by circuit size for one series.

    Raises if a matching cell is not ``ok`` — benchmark assertions should
    fail loudly on a failed cell, not silently skip it.
    """
    selected: Dict[int, Dict[str, Any]] = {}
    for cell_id, entry in artifact["cells"].items():
        coords = entry["coordinates"]
        if label is not None and coords["label"] != label:
            continue
        if package is not None and coords["package"] != package:
            continue
        if entry["status"] != "ok":
            raise AssertionError(
                f"campaign cell {cell_id} is {entry['status']}: {entry['error']}"
            )
        selected[coords["size"]] = entry
    return selected
