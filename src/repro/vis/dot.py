"""Graphviz DOT export of decision diagrams.

Produces DOT text in the styles of the paper's tool; users with graphviz
installed can render it directly (``dot -Tsvg``), while the pure-Python SVG
renderer in :mod:`repro.vis.svg` needs no external tools.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence

from repro.dd.complex_table import ComplexTable
from repro.dd.edge import Edge
from repro.dd.package import DDPackage
from repro.errors import VisualizationError
from repro.vis.color import phase_to_color, pretty_complex, weight_to_width
from repro.vis.style import DDStyle, RenderMode


def _edge_attributes(weight: complex, style: DDStyle) -> List[str]:
    attributes = []
    is_unit = weight == ComplexTable.ONE
    if style.edge_labels and not is_unit:
        attributes.append(f'label="{pretty_complex(weight)}"')
    if style.dashed_nonunit and not is_unit:
        attributes.append("style=dashed")
    if style.colored_edges:
        attributes.append(f'color="{phase_to_color(weight)}"')
    if style.weighted_thickness:
        attributes.append(f"penwidth={weight_to_width(weight):.2f}")
    return attributes


def dd_to_dot(
    package: DDPackage,
    root: Edge,
    style: Optional[DDStyle] = None,
    name: str = "dd",
    qubit_labels: Optional[Sequence[str]] = None,
) -> str:
    """Render a vector or matrix DD of ``package`` as Graphviz DOT text,
    read from the package's arrays (:meth:`DDPackage.walk`).

    ``qubit_labels`` overrides the default ``q0, q1, ...`` node labels
    (index = level).
    """
    if style is None:
        style = DDStyle.classic()
    if root.is_zero:
        raise VisualizationError("cannot render the zero decision diagram")
    # Pre-order (DFS, the root first): node ids follow it.
    nodes = package.walk(root)
    ids: Dict[Hashable, str] = {key: f"n{index}" for index, key in enumerate(nodes)}
    lines = [f"digraph {name} {{", "  rankdir=TB;", "  ordering=out;"]
    modern = style.mode is RenderMode.MODERN
    shape = "circle" if style.mode is RenderMode.CLASSIC else "Mrecord"
    lines.append(f"  node [shape={shape}];")
    lines.append('  root [shape=point, style=invis];')
    stub_counter = 0

    for key, (var, edges) in nodes.items():
        if qubit_labels is not None and var < len(qubit_labels):
            label = qubit_labels[var]
        else:
            label = f"q{var}"
        if modern:
            ports = "|".join(f"<p{i}>" for i in range(len(edges)))
            lines.append(f'  {ids[key]} [label="{{{label}|{{{ports}}}}}"];')
        else:
            lines.append(f'  {ids[key]} [label="{label}"];')
    lines.append('  terminal [shape=box, label="1"];')
    root_attributes = _edge_attributes(root.weight, style)
    rendered = f" [{', '.join(root_attributes)}]" if root_attributes else ""
    root_target = ids[next(iter(nodes))] if nodes else "terminal"
    lines.append(f"  root -> {root_target}{rendered};")
    for key, (_var, edges) in nodes.items():
        for index, (child, weight) in enumerate(edges):
            source = ids[key]
            if modern:
                source = f"{source}:p{index}"
            if weight == ComplexTable.ZERO:
                if style.retract_zero_stubs:
                    continue
                stub = f"stub{stub_counter}"
                stub_counter += 1
                lines.append(
                    f'  {stub} [shape=point, width=0.05, label=""];'
                )
                lines.append(f"  {source} -> {stub};")
                continue
            target = ids.get(child, "terminal")
            attributes = _edge_attributes(weight, style)
            rendered = f" [{', '.join(attributes)}]" if attributes else ""
            lines.append(f"  {source} -> {target}{rendered};")
    lines.append("}")
    return "\n".join(lines)
