"""Layered layout for decision diagrams.

DDs are naturally layered — every non-terminal node sits at the level of
its qubit, the terminal below level 0 — so a Sugiyama-style layout reduces
to ordering the nodes within each layer.  Nodes start in DFS pre-order and
are refined by a few barycenter passes (ordering each layer by the mean
position of the parents) to reduce edge crossings.

Every element sits on a fixed grid of half-spacing columns and
full-spacing rows (:func:`column_x`, :func:`row_y`): the nodes of depth
``d`` on row ``d + 1``, the terminal one row below the last layer.  The
module is geometry-only; :mod:`repro.vis.svg` does the drawing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Tuple

from repro.dd.edge import Edge
from repro.dd.package import DDPackage
from repro.dd.pooled import WalkEntry
from repro.errors import VisualizationError

#: Horizontal distance between node centers.
H_SPACING = 90.0
#: Vertical distance between levels.
V_SPACING = 80.0
#: Margin around the drawing.
MARGIN = 40.0


def column_x(column: int) -> float:
    """x coordinate of a grid column (half a node spacing per column)."""
    return MARGIN + column * (H_SPACING / 2.0)


def row_y(row: int) -> float:
    """y coordinate of a grid row (one level per row)."""
    return MARGIN + row * V_SPACING


@dataclass
class Layout:
    """Grid cells of a DD drawing (:func:`column_x`, :func:`row_y` give pixels).

    Nodes are the keys of :meth:`DDPackage.walk` (node indices, or
    ``(level, index)`` pairs for matrix DDs), not node views, so a layout
    keeps no diagram alive and drawing one creates no views.
    """

    #: the walk the layout was computed from: key -> (var, ((child key,
    #: weight), ...)); a child key that is not a key here is the terminal
    nodes: Dict[Hashable, WalkEntry] = field(default_factory=dict)
    #: node keys per level, top level first, in final left-to-right order
    layers: List[List[Hashable]] = field(default_factory=list)
    #: grid column of every node key; a node of ``layers[d]`` sits on row d + 1
    columns: Dict[Hashable, int] = field(default_factory=dict)
    #: column of the root node (of the terminal for a scalar DD)
    root_column: int = 0
    #: (column, row) of the terminal box
    terminal_cell: Tuple[int, int] = (0, 1)
    width: float = 0.0
    height: float = 0.0

    @property
    def root_anchor(self) -> Tuple[float, float]:
        """Where the root edge starts, above the root node."""
        return column_x(self.root_column), MARGIN + V_SPACING * 0.35


def compute_layout(package: DDPackage, root: Edge, barycenter_passes: int = 3) -> Layout:
    """Compute a layered layout for the DD rooted at ``root`` (a diagram of
    ``package``; a root of another package raises ``DDError``)."""
    if root.is_zero:
        raise VisualizationError("cannot lay out the zero decision diagram")
    # Pre-order, so every layer starts in DFS order.
    nodes = package.walk(root)
    top_level = root.node.var
    # layers[d] holds level top_level - d; a scalar DD has none.
    layers: List[List[Hashable]] = [[] for _ in range(top_level + 1)]
    # A child reached by two edges lists its parent twice.
    parents: Dict[Hashable, List[Hashable]] = {key: [] for key in nodes}
    for key, (var, edges) in nodes.items():
        layers[top_level - var].append(key)
        for child, _weight in edges:
            # Zero stubs and terminal edges lead to no key of the walk.
            if child in parents:
                parents[child].append(key)

    index_of = {key: position for layer in layers for position, key in enumerate(layer)}
    for _ in range(barycenter_passes):
        moved = False
        for layer in layers[1:]:
            if len(layer) < 2:
                continue
            # Only the root has no parent, and its layer is never sorted.
            barycenter = {
                key: sum(map(index_of.__getitem__, parents[key])) / len(parents[key])
                for key in layer
            }
            order = sorted(layer, key=barycenter.__getitem__)
            if order != layer:
                moved = True
                layer[:] = order
                for position, key in enumerate(layer):
                    index_of[key] = position
        if not moved:
            break  # every later pass would sort the same keys again

    # A scalar DD (root edge pointing straight at the terminal) has no
    # layers at all; `default=0` and the terminal fallback below keep the
    # degenerate drawing well-formed instead of raising.
    widest = max(map(len, layers), default=0)
    columns: Dict[Hashable, int] = {}
    for layer in layers:
        first = widest - len(layer)
        for position, key in enumerate(layer):
            columns[key] = first + 2 * position
    terminal_column = max(widest - 1, 0)
    return Layout(
        nodes=nodes,
        layers=layers,
        columns=columns,
        # The walk lists the root first.
        root_column=columns[next(iter(nodes))] if nodes else terminal_column,
        terminal_cell=(terminal_column, len(layers) + 1),
        width=2 * MARGIN + terminal_column * H_SPACING,
        height=2 * MARGIN + (len(layers) + 1) * V_SPACING,
    )
