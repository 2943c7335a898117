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
from typing import Dict, List, Tuple

from repro.dd.complex_table import ComplexTable
from repro.dd.edge import Edge
from repro.dd.node import Node
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
    """Grid cells of a DD drawing (:func:`column_x`, :func:`row_y` give pixels)."""

    #: nodes per level, top level first, in final left-to-right order
    layers: List[List[Node]] = field(default_factory=list)
    #: grid column of every node; a node of ``layers[d]`` sits on row d + 1
    columns: Dict[Node, int] = field(default_factory=dict)
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


def compute_layout(root: Edge, barycenter_passes: int = 3) -> Layout:
    """Compute a layered layout for the DD rooted at ``root``."""
    if root.is_zero:
        raise VisualizationError("cannot lay out the zero decision diagram")
    top_level = root.node.var
    # layers[d] holds level top_level - d; a scalar DD has none.
    layers: List[List[Node]] = [[] for _ in range(top_level + 1)]
    # One pre-order walk records every node's non-zero, non-terminal
    # children, a child reached by two edges twice.
    children: Dict[Node, List[Node]] = {}
    stack = [] if root.node.is_terminal else [root.node]
    zero = ComplexTable.ZERO
    while stack:
        node = stack.pop()
        if node in children:
            continue
        # `var >= 0`: not the terminal (Node.is_terminal, inlined).
        kids = [edge.node for edge in node.edges if edge.weight != zero and edge.node.var >= 0]
        children[node] = kids
        layers[top_level - node.var].append(node)
        stack.extend(reversed(kids))

    parents: Dict[Node, List[Node]] = {node: [] for node in children}
    for node, kids in children.items():
        for kid in kids:
            parents[kid].append(node)
    index_of = {node: position for layer in layers for position, node in enumerate(layer)}
    for _ in range(barycenter_passes):
        moved = False
        for layer in layers[1:]:
            if len(layer) < 2:
                continue
            # Only the root has no parent, and its layer is never sorted.
            barycenter = {
                node: sum(map(index_of.__getitem__, parents[node])) / len(parents[node])
                for node in layer
            }
            order = sorted(layer, key=barycenter.__getitem__)
            if order != layer:
                moved = True
                layer[:] = order
                for position, node in enumerate(layer):
                    index_of[node] = position
        if not moved:
            break  # every later pass would sort the same keys again

    # A scalar DD (root edge pointing straight at the terminal) has no
    # layers at all; `default=0` and the terminal fallback below keep the
    # degenerate drawing well-formed instead of raising.
    widest = max(map(len, layers), default=0)
    columns: Dict[Node, int] = {}
    for layer in layers:
        first = widest - len(layer)
        for position, node in enumerate(layer):
            columns[node] = first + 2 * position
    terminal_column = max(widest - 1, 0)
    return Layout(
        layers=layers,
        columns=columns,
        root_column=terminal_column if root.node.is_terminal else columns[root.node],
        terminal_cell=(terminal_column, len(layers) + 1),
        width=2 * MARGIN + terminal_column * H_SPACING,
        height=2 * MARGIN + (len(layers) + 1) * V_SPACING,
    )
