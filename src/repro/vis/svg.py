"""Pure-Python SVG rendering of decision diagrams.

Implements the three looks of the paper's tool (classic / colored / modern,
Sec. IV-A) on top of the layered layout of :mod:`repro.vis.layout`, plus the
HLS color wheel legend of Fig. 7(b).  The output is a self-contained SVG
string; no graphviz or matplotlib required.

A session draws the diagram again after every step, and most elements
recur from frame to frame: the layout puts them on a fixed grid.  Each
element is therefore drawn by a formatter memoized on its own inputs —
grid cells, strings, flags and weights, never a node or a package — in
a bounded LRU cache, so no diagram stays alive through a cache.
"""

from __future__ import annotations

import functools
import html
import math
from typing import Optional, Sequence, Tuple

from repro.dd.complex_table import ComplexTable
from repro.dd.edge import Edge
from repro.dd.package import DDPackage
from repro.errors import VisualizationError
from repro.vis.color import hls_wheel_color, phase_to_color, pretty_complex, weight_to_width
from repro.vis.layout import column_x, compute_layout, row_y
from repro.vis.style import DDStyle, RenderMode

_NODE_RADIUS = 18.0
_MODERN_SLOT = 22.0
_TERMINAL_SIZE = 26.0
_STUB_LENGTH = 22.0

_ZERO = ComplexTable.ZERO
_ONE = ComplexTable.ONE


# ----------------------------------------------------------------------
# plain element formatters
# ----------------------------------------------------------------------
def _stroke(color: str, width: float, dashed: bool = False) -> str:
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return f'stroke="{color}" stroke-width="{width:.2f}"{dash}'


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str) -> str:
    return f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" {stroke} />'


def _circle(x: float, y: float, radius: float, fill: str = "#ffffff",
            stroke: str = "#333333") -> str:
    return (
        f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{radius:.1f}" '
        f'fill="{fill}" stroke="{stroke}" stroke-width="1.5" />'
    )


def _rect(x: float, y: float, width: float, height: float, fill: str = "#ffffff",
          stroke: str = "#333333", rx: float = 0.0) -> str:
    return (
        f'<rect x="{x:.1f}" y="{y:.1f}" width="{width:.1f}" '
        f'height="{height:.1f}" rx="{rx:.1f}" fill="{fill}" '
        f'stroke="{stroke}" stroke-width="1.5" />'
    )


def _text(x: float, y: float, content: str, size: int = 13,
          anchor: str = "middle") -> str:
    return (
        f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" '
        f'text-anchor="{anchor}" fill="#000000" '
        f'font-family="Helvetica, sans-serif">{html.escape(content, quote=True)}</text>'
    )


def _polygon(points: Sequence[Tuple[float, float]], fill: str) -> str:
    rendered = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
    return f'<polygon points="{rendered}" fill="{fill}" />'


# ----------------------------------------------------------------------
# geometry of grid cells
# ----------------------------------------------------------------------
def _slot_point(column: int, row: int, count: int, slot: int,
                modern: bool) -> Tuple[float, float]:
    """Where edge ``slot`` of a ``count``-edge node leaves the node."""
    x, y = column_x(column), row_y(row)
    if modern:
        box_width = count * _MODERN_SLOT
        slot_x = x - box_width / 2.0 + (slot + 0.5) * _MODERN_SLOT
        return slot_x, y + _MODERN_SLOT / 2.0 + 12.0
    spread = _NODE_RADIUS * 0.9
    if count == 2:
        offsets = (-spread * 0.6, spread * 0.6)
    else:
        offsets = (-spread, -spread / 3.0, spread / 3.0, spread)
    return x + offsets[slot], y + _NODE_RADIUS * 0.85


def _top_point(column: int, row: int, terminal: bool, modern: bool) -> Tuple[float, float]:
    """Where an edge enters the node (or terminal) of a cell."""
    x, y = column_x(column), row_y(row)
    if terminal:
        return x, y - _TERMINAL_SIZE / 2.0
    if modern:
        return x, y - _MODERN_SLOT / 2.0 - 12.0
    return x, y - _NODE_RADIUS


# ----------------------------------------------------------------------
# memoized elements
# ----------------------------------------------------------------------
# Keys hold grid cells, slot numbers, flags, strings and canonical
# weights.  Inputs that compare equal draw identically: ints and strings
# have one spelling each, and weights that differ only in the sign of a
# zero part (0.5+0j, 0.5-0j) get the same label, color, width and dash.
# An edge's geometry is (column, row, count, slot, end_column, end_row,
# terminal, modern): the cell, edge count and slot it leaves, the cell it
# enters, whether that is the terminal, and the node look.

#: Entries per element cache.  Measured on the 200 frames of the
#: `session` workload in perfbench/: with 1,024 entries the caches hit 60%
#: of edge lookups (72% unbounded), 87% of weights (93%), 94% of nodes and
#: 91% of zero stubs, and add 1.6 MB to the peak RSS; 4,096 entries added
#: 3.5 MB for no measurable gain in step time.
_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _phase_color(weight: complex) -> str:
    return phase_to_color(weight)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _visuals(weight: complex, colored: bool, weighted: bool,
             dashed_nonunit: bool) -> Tuple[str, str]:
    """(color, stroke attributes) of an edge carrying ``weight``."""
    color = _phase_color(weight) if colored else "#333333"
    width = weight_to_width(weight) if weighted else 1.5
    return color, _stroke(color, width, dashed_nonunit and weight != _ONE)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _edge(column: int, row: int, count: int, slot: int, end_column: int, end_row: int,
          terminal: bool, modern: bool, stroke: str, label: str) -> str:
    """An edge's line, and its weight label unless ``label`` is empty."""
    start_x, start_y = _slot_point(column, row, count, slot, modern)
    end_x, end_y = _top_point(end_column, end_row, terminal, modern)
    line = _line(start_x, start_y, end_x, end_y, stroke)
    if not label:
        return line
    mid_x = (start_x + end_x) / 2.0
    mid_y = (start_y + end_y) / 2.0
    return f"{line}\n  {_text(mid_x + 6, mid_y, label, size=11, anchor='start')}"


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _zero_stub(column: int, row: int, count: int, slot: int, modern: bool,
               retract: bool) -> str:
    x, y = _slot_point(column, row, count, slot, modern)
    if retract:
        # Classic: a short stub re-entering the node.
        return "\n  ".join((
            _line(x, y, x, y + 6, _stroke("#888888", 1.0)),
            _circle(x, y + 8, 2.0, fill="#888888", stroke="#888888"),
        ))
    return "\n  ".join((
        _line(x, y, x, y + _STUB_LENGTH, _stroke("#888888", 1.0)),
        _text(x, y + _STUB_LENGTH + 11, "0", size=10),
    ))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _node(column: int, row: int, label: str, fills: Optional[Tuple[str, ...]]) -> str:
    """A classic circle, or (with one fill per slot) a modern slot box."""
    x, y = column_x(column), row_y(row)
    if fills is None:
        return "\n  ".join((_circle(x, y, _NODE_RADIUS), _text(x, y + 4.5, label, size=13)))
    box_width = len(fills) * _MODERN_SLOT
    box_height = _MODERN_SLOT + 24.0
    parts = [
        _rect(x - box_width / 2.0, y - box_height / 2.0, box_width, box_height, rx=6.0),
        _text(x, y - box_height / 2.0 + 16.0, label, size=12),
    ]
    for slot, fill in enumerate(fills):
        slot_x = x - box_width / 2.0 + slot * _MODERN_SLOT
        slot_y = y + box_height / 2.0 - _MODERN_SLOT
        parts.append(_rect(slot_x + 2, slot_y + 2, _MODERN_SLOT - 4, _MODERN_SLOT - 4,
                           fill=fill, stroke="#666666"))
    return "\n  ".join(parts)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _terminal(column: int, row: int) -> str:
    x, y = column_x(column), row_y(row)
    return "\n  ".join((
        _rect(x - _TERMINAL_SIZE / 2.0, y - _TERMINAL_SIZE / 2.0,
              _TERMINAL_SIZE, _TERMINAL_SIZE),
        _text(x, y + 4.5, "1", size=13),
    ))


#: Every element cache, for inspection (``cache_info``) and tests.
ELEMENT_CACHES = (_phase_color, _visuals, _edge, _zero_stub, _node, _terminal)


def dd_to_svg(
    package: DDPackage,
    root: Edge,
    style: Optional[DDStyle] = None,
    qubit_labels: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render a vector or matrix DD of ``package`` as a standalone SVG
    document, read from the package's arrays (:meth:`DDPackage.walk`)."""
    if style is None:
        style = DDStyle.classic()
    if root.is_zero:
        raise VisualizationError("cannot render the zero decision diagram")
    layout = compute_layout(package, root)
    modern = style.mode is RenderMode.MODERN
    colored, weighted, dashed = (style.colored_edges, style.weighted_thickness,
                                 style.dashed_nonunit)
    edge_labels = style.edge_labels
    retract = style.retract_zero_stubs
    nodes = layout.nodes
    columns = layout.columns
    terminal_column, terminal_row = layout.terminal_cell
    # Level 0 sits on the last node row; level v, v rows above it.
    bottom_row = root.node.var + 1

    # Root edge (drawn first so nodes overlay the line ends).
    root_color, root_stroke = _visuals(root.weight, colored, weighted, dashed)
    anchor_x, anchor_y = layout.root_anchor
    uses_terminal = root.node.is_terminal
    if uses_terminal:
        top_x, top_y = _top_point(terminal_column, terminal_row, True, modern)
    else:
        top_x, top_y = _top_point(layout.root_column, 1, False, modern)
    elements = [
        _line(anchor_x, anchor_y, top_x, top_y, root_stroke),
        _polygon([(top_x - 4, top_y - 7), (top_x + 4, top_y - 7), (top_x, top_y)],
                 fill=root_color),
    ]
    if edge_labels and root.weight != _ONE:
        elements.append(_text(anchor_x + 8, (anchor_y + top_y) / 2,
                              pretty_complex(root.weight), size=11, anchor="start"))

    # Edges.  A scalar DD's root edge points straight at the terminal, so
    # the terminal box must be drawn even though no node edge reaches it.
    for row, layer in enumerate(layout.layers, 1):
        for key in layer:
            column = columns[key]
            edges = nodes[key][1]
            count = len(edges)
            for slot, (child, weight) in enumerate(edges):
                if weight == _ZERO:
                    elements.append(_zero_stub(column, row, count, slot, modern, retract))
                    continue
                label = pretty_complex(weight) if edge_labels and weight != _ONE else ""
                stroke = _visuals(weight, colored, weighted, dashed)[1]
                target = nodes.get(child)
                if target is None:  # the terminal
                    uses_terminal = True
                    elements.append(_edge(column, row, count, slot, terminal_column,
                                          terminal_row, True, modern, stroke, label))
                else:
                    elements.append(_edge(column, row, count, slot, columns[child],
                                          bottom_row - target[0], False, modern, stroke,
                                          label))

    # Nodes.
    for row, layer in enumerate(layout.layers, 1):
        for key in layer:
            var, edges = nodes[key]
            if qubit_labels is not None and var < len(qubit_labels):
                label = qubit_labels[var]
            else:
                label = f"q{var}"
            fills = None
            if modern:
                fills = tuple(
                    "#f0f0f0" if weight == _ZERO else _phase_color(weight)
                    for _child, weight in edges
                )
            elements.append(_node(columns[key], row, label, fills))

    if uses_terminal:
        elements.append(_terminal(terminal_column, terminal_row))
    if title:
        elements.append(_text(layout.width / 2.0, 20.0, title, size=14))
    body = "\n  ".join(elements)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{layout.width:.0f}" '
        f'height="{layout.height:.0f}" viewBox="0 0 {layout.width:.0f} '
        f'{layout.height:.0f}">\n  {body}\n</svg>'
    )


def color_wheel_svg(size: float = 200.0, segments: int = 72) -> str:
    """The HLS color wheel legend of paper Fig. 7(b)."""
    center = size / 2.0
    outer = size * 0.42
    inner = size * 0.18
    elements = []
    for segment in range(segments):
        start = 2.0 * math.pi * segment / segments
        end = 2.0 * math.pi * (segment + 1) / segments
        color = hls_wheel_color((start + end) / 2.0)
        # SVG y grows downward; negate the angle so the wheel runs
        # counter-clockwise like the mathematical phase convention.
        points = [
            (center + inner * math.cos(-start), center + inner * math.sin(-start)),
            (center + outer * math.cos(-start), center + outer * math.sin(-start)),
            (center + outer * math.cos(-end), center + outer * math.sin(-end)),
            (center + inner * math.cos(-end), center + inner * math.sin(-end)),
        ]
        elements.append(_polygon(points, fill=color))
    for label, angle in (("1", 0.0), ("i", 0.5 * math.pi), ("-1", math.pi),
                         ("-i", 1.5 * math.pi)):
        x = center + (outer + 14.0) * math.cos(-angle)
        y = center + (outer + 14.0) * math.sin(-angle) + 4.0
        elements.append(_text(x, y, label, size=13))
    body = "\n  ".join(elements)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">\n  {body}\n</svg>'
    )
