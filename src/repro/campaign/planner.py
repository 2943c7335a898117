"""Campaign planning — expand a spec into deterministic, addressable cells.

Every cell gets a *stable* identifier derived purely from its coordinates
(family label, size, package label, seed, repetition), never from
wall-clock time or execution order.  Those IDs are what the resume
manifest journals and what regression gating joins new and baseline
artifacts on — two runs of the same spec always plan the same cells in
the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.campaign.spec import CampaignSpec, FamilySpec, PackageSpec

__all__ = ["Cell", "cell_id", "expand_plan"]


def cell_id(
    family: FamilySpec, size: int, package: PackageSpec, seed: int, rep: int
) -> str:
    """The deterministic run ID of one cell."""
    return f"{family.display}-n{size}-{package.label}-s{seed}-r{rep}"


@dataclass(frozen=True)
class Cell:
    """One planned experiment: a circuit instance under one package config."""

    cell_id: str
    family: str
    label: str
    size: int
    seed: int
    rep: int
    mode: str
    shots: int
    params: Dict[str, Any] = field(default_factory=dict)
    package: PackageSpec = field(default_factory=lambda: PackageSpec(label="default"))

    def payload(self) -> Dict[str, Any]:
        """The plain-data form :func:`repro.campaign.jobs.run_cell` takes."""
        return {
            "cell_id": self.cell_id,
            "family": self.family,
            "label": self.label,
            "size": self.size,
            "seed": self.seed,
            "rep": self.rep,
            "mode": self.mode,
            "shots": self.shots,
            "params": dict(self.params),
            "package": self.package.as_dict(),
        }


def expand_plan(spec: CampaignSpec) -> List[Cell]:
    """Expand the spec's cross-product into an ordered list of cells."""
    cells: List[Cell] = []
    for family in spec.families:
        shots = spec.shots if family.shots is None else family.shots
        for size in family.sizes:
            for package in spec.packages:
                for seed in spec.seeds:
                    for rep in range(spec.repetitions):
                        cells.append(
                            Cell(
                                cell_id=cell_id(family, size, package, seed, rep),
                                family=family.family,
                                label=family.display,
                                size=size,
                                seed=seed,
                                rep=rep,
                                mode=family.mode,
                                shots=shots,
                                params=dict(family.params),
                                package=package,
                            )
                        )
    seen: Dict[str, Cell] = {}
    for cell in cells:
        if cell.cell_id in seen:
            # Can only happen via duplicate seeds; refuse rather than
            # silently dropping work.
            from repro.errors import CampaignSpecError

            raise CampaignSpecError(
                f"duplicate cell id {cell.cell_id!r} after expansion — "
                "check for duplicate seeds"
            )
        seen[cell.cell_id] = cell
    return cells
