"""SVG circuit diagrams — the tool's algorithm box as a drawing.

Renders a circuit in the paper's wire style (Fig. 1(c)/Fig. 5): one
horizontal wire per qubit with the most-significant qubit on top, boxes
for gates, filled dots for controls, open dots for negative controls, the
crossed circle for X-targets, x-marks for SWAP ends, dashed verticals for
barriers and a meter symbol for measurements.  An optional *progress*
index highlights the operations already executed — used by the simulation
session so every HTML frame shows where in the circuit the diagram
belongs (paper Fig. 8's screenshots).
"""

from __future__ import annotations

import html
import weakref
from typing import List, Optional, Sequence, Tuple

from repro.errors import VisualizationError
from repro.qc.circuit import QuantumCircuit
from repro.qc.operations import BarrierOp, GateOp, MeasureOp, Operation, ResetOp

_COLUMN = 46.0
_ROW = 42.0
_LEFT = 54.0
_TOP = 26.0
_BOX_H = 26.0


def _escape(text: str) -> str:
    return html.escape(text, quote=True)


def _columns(operations: Sequence[Operation], num_qubits: int) -> List[List[int]]:
    """Greedy layering: operations packed left as far as wires allow.

    Returns, per column, the indices of the operations placed in it.
    """
    levels = [0] * num_qubits
    columns: List[List[int]] = []
    for index, operation in enumerate(operations):
        lines = operation.qubits or tuple(range(num_qubits))
        span = range(min(lines), max(lines) + 1)
        column = max(levels[q] for q in span)
        while len(columns) <= column:
            columns.append([])
        columns[column].append(index)
        for qubit in span:
            levels[qubit] = column + 1
    return columns


class _Drawing:
    """One circuit's drawing, prepared once and reused for every progress.

    Holds the layering's result: the SVG head (open tag, title, wires) and,
    per operation in drawing order, its elements in each of the three
    states ``circuit_to_svg`` can ask for — plain, executed and pending.
    Only the state picked per operation depends on ``progress``.  The
    drawing is built from the circuit's operations and qubit count and
    keeps no reference to the circuit, so a cache keyed weakly on the
    circuit lets the circuit die.
    """

    __slots__ = ("length", "title", "_head", "_order", "_states")

    def __init__(
        self,
        operations: Sequence[Operation],
        num_qubits: int,
        title: Optional[str],
    ):
        self.length = len(operations)
        self.title = title
        columns = _columns(operations, num_qubits)
        num_columns = max(len(columns), 1)
        width = _LEFT + num_columns * _COLUMN + 20.0
        top = _TOP + (22.0 if title else 0.0)
        height = top + num_qubits * _ROW + 8.0

        def wire_y(qubit: int) -> float:
            # Top wire = most significant qubit.
            return top + (num_qubits - 1 - qubit) * _ROW + _ROW / 2.0

        parts: List[str] = []
        if title:
            parts.append(
                f'<text x="{width / 2:.1f}" y="16" font-size="13" '
                f'text-anchor="middle" font-family="Helvetica, sans-serif">'
                f"{_escape(title)}</text>"
            )
        for qubit in range(num_qubits):
            y = wire_y(qubit)
            parts.append(
                f'<text x="{_LEFT - 10:.1f}" y="{y + 4:.1f}" font-size="12" '
                f'text-anchor="end" font-family="monospace">q{qubit}</text>'
            )
            parts.append(
                f'<line x1="{_LEFT:.1f}" y1="{y:.1f}" '
                f'x2="{width - 12:.1f}" y2="{y:.1f}" stroke="#333" '
                f'stroke-width="1" />'
            )
        self._head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
            f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">'
            f"\n  " + "\n  ".join(parts)
        )
        self._order: List[int] = []
        self._states: List[Tuple[str, ...]] = []
        for column_index, indices in enumerate(columns):
            x = _LEFT + (column_index + 0.5) * _COLUMN
            for op_index in indices:
                operation = operations[op_index]
                self._order.append(op_index)
                self._states.append(tuple(
                    "\n  ".join(_draw_operation(operation, x, wire_y, color, extra))
                    for color, extra in _STATES
                ))

    def render(self, progress: Optional[int]) -> str:
        if progress is None:
            progress = -1  # nothing executed, nothing pending
        chunks = [self._head]
        chunks.extend(
            states[
                _EXECUTED if op_index < progress
                else _PENDING if op_index == progress
                else _PLAIN
            ]
            for op_index, states in zip(self._order, self._states)
        )
        return "\n  ".join(chunks) + "\n</svg>"


#: ``(color, extra attributes)`` of an operation's three drawing states.
_STATES = (
    ("#333333", ""),
    ("#1f77b4", ""),
    ("#333333", ' stroke-dasharray="4,3"'),
)
_PLAIN, _EXECUTED, _PENDING = range(3)

_DRAWINGS: "weakref.WeakKeyDictionary[QuantumCircuit, _Drawing]" = (
    weakref.WeakKeyDictionary()
)


def circuit_to_svg(
    circuit: QuantumCircuit,
    progress: Optional[int] = None,
    title: Optional[str] = None,
) -> str:
    """Render ``circuit`` as SVG; operations before ``progress`` are
    highlighted as executed (blue), the next pending one is outlined.

    The layering and every operation's elements are prepared once per
    circuit and title and reused by later calls; a circuit that grew since
    (circuits are append-only, operations frozen) is drawn afresh.
    """
    if circuit.num_qubits > 24:
        raise VisualizationError("circuit drawings are limited to 24 qubits")
    drawing = _DRAWINGS.get(circuit)
    if drawing is None or drawing.length != len(circuit) or drawing.title != title:
        drawing = _Drawing(circuit.operations, circuit.num_qubits, title)
        _DRAWINGS[circuit] = drawing
    return drawing.render(progress)


def _draw_operation(operation, x, wire_y, color, extra) -> List[str]:
    parts: List[str] = []
    if isinstance(operation, BarrierOp):
        lines = operation.lines
        y_top = wire_y(max(lines)) - _ROW / 2.0
        y_bottom = wire_y(min(lines)) + _ROW / 2.0
        parts.append(
            f'<line x1="{x:.1f}" y1="{y_top:.1f}" x2="{x:.1f}" '
            f'y2="{y_bottom:.1f}" stroke="{color}" stroke-width="1.2" '
            f'stroke-dasharray="5,4" />'
        )
        return parts
    if isinstance(operation, MeasureOp):
        y = wire_y(operation.qubit)
        parts.append(_box(x, y, color, extra))
        parts.append(
            f'<path d="M {x - 7:.1f} {y + 5:.1f} A 8 8 0 0 1 '
            f'{x + 7:.1f} {y + 5:.1f}" fill="none" stroke="{color}" '
            f'stroke-width="1.4" />'
        )
        parts.append(
            f'<line x1="{x:.1f}" y1="{y + 5:.1f}" x2="{x + 6:.1f}" '
            f'y2="{y - 6:.1f}" stroke="{color}" stroke-width="1.4" />'
        )
        return parts
    if isinstance(operation, ResetOp):
        y = wire_y(operation.qubit)
        parts.append(_box(x, y, color, extra))
        parts.append(_label(x, y, "|0\N{RIGHT ANGLE BRACKET}", color, size=10))
        return parts
    if not isinstance(operation, GateOp):  # pragma: no cover
        return parts
    lines = operation.qubits
    if len(lines) > 1:
        parts.append(
            f'<line x1="{x:.1f}" y1="{wire_y(max(lines)):.1f}" '
            f'x2="{x:.1f}" y2="{wire_y(min(lines)):.1f}" '
            f'stroke="{color}" stroke-width="1.4" />'
        )
    for control in operation.controls:
        y = wire_y(control)
        parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="{color}" />'
        )
    for control in operation.negative_controls:
        y = wire_y(control)
        parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="#ffffff" '
            f'stroke="{color}" stroke-width="1.4" />'
        )
    if operation.gate == "x" and operation.num_controls:
        y = wire_y(operation.targets[0])
        parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="9" fill="none" '
            f'stroke="{color}" stroke-width="1.4" />'
        )
        parts.append(
            f'<line x1="{x - 9:.1f}" y1="{y:.1f}" x2="{x + 9:.1f}" '
            f'y2="{y:.1f}" stroke="{color}" stroke-width="1.4" />'
        )
        parts.append(
            f'<line x1="{x:.1f}" y1="{y - 9:.1f}" x2="{x:.1f}" '
            f'y2="{y + 9:.1f}" stroke="{color}" stroke-width="1.4" />'
        )
        return parts
    if operation.gate in ("swap", "iswap", "iswapdg"):
        for target in operation.targets:
            y = wire_y(target)
            for dx, dy in ((-6, -6), (-6, 6)):
                parts.append(
                    f'<line x1="{x + dx:.1f}" y1="{y + dy:.1f}" '
                    f'x2="{x - dx:.1f}" y2="{y - dy:.1f}" '
                    f'stroke="{color}" stroke-width="1.6" />'
                )
        if operation.gate.startswith("iswap"):
            mid = (wire_y(operation.targets[0]) + wire_y(operation.targets[1])) / 2
            parts.append(_label(x + 12, mid, "i", color, size=10))
        return parts
    # Generic labelled box on each target line.
    label = operation.label()
    for target in operation.targets:
        y = wire_y(target)
        parts.append(_box(x, y, color, extra, wide=len(label) > 3))
        parts.append(_label(x, y, label, color, size=9 if len(label) > 4 else 11))
    return parts


def _box(x, y, color, extra, wide: bool = False) -> str:
    half_width = 19.0 if wide else 13.0
    return (
        f'<rect x="{x - half_width:.1f}" y="{y - _BOX_H / 2:.1f}" '
        f'width="{2 * half_width:.1f}" height="{_BOX_H:.1f}" '
        f'fill="#ffffff" stroke="{color}" stroke-width="1.4"{extra} />'
    )


def _label(x, y, text, color, size=11) -> str:
    return (
        f'<text x="{x:.1f}" y="{y + 4:.1f}" font-size="{size}" '
        f'text-anchor="middle" fill="{color}" '
        f'font-family="Helvetica, sans-serif">{_escape(text)}</text>'
    )
