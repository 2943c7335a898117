"""Declarative experiment campaigns, run inline with a resumable journal.

``repro.campaign`` turns the repo's one-off benchmark sweeps into
versioned, resumable, gated experiment campaigns:

* :mod:`repro.campaign.spec` — JSON campaign specifications;
* :mod:`repro.campaign.planner` — deterministic cell expansion and IDs;
* :mod:`repro.campaign.jobs` — the circuit families and the per-cell run;
* :mod:`repro.campaign.executor` — the inline cell loop, failure
  isolation, and the resumable ``manifest.jsonl`` journal;
* :mod:`repro.campaign.report` — the aggregate artifact, markdown report,
  and timeline SVG;
* :mod:`repro.campaign.gating` — regression gating against a baseline.

See ``docs/campaigns.md`` and ``qdd-tool campaign --help``.
"""

from repro.campaign.executor import Manifest, run_campaign
from repro.campaign.gating import DiffReport, GateFinding, diff_artifacts
from repro.campaign.jobs import build_family, known_families, run_cell
from repro.campaign.planner import Cell, expand_plan
from repro.campaign.report import (
    aggregate,
    deterministic_view,
    load_artifact,
    markdown_report,
)
from repro.campaign.spec import (
    CampaignSpec,
    FamilySpec,
    GateSpec,
    PackageSpec,
    load_spec,
    parse_spec,
)

__all__ = [
    "CampaignSpec",
    "Cell",
    "DiffReport",
    "FamilySpec",
    "GateFinding",
    "GateSpec",
    "Manifest",
    "PackageSpec",
    "aggregate",
    "build_family",
    "deterministic_view",
    "diff_artifacts",
    "expand_plan",
    "known_families",
    "load_artifact",
    "load_spec",
    "markdown_report",
    "parse_spec",
    "run_campaign",
    "run_cell",
]
