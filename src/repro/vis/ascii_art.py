"""Terminal rendering: decision diagrams as text trees, circuits as wire art.

``dd_to_text`` prints a DD as an indented tree with explicit sharing
markers (shared nodes are expanded once and referenced afterwards), which is
handy in tests and REPL sessions.  ``circuit_to_text`` draws the wire
diagrams the paper uses (Fig. 1(c), Fig. 5): one horizontal line per qubit,
most-significant on top, boxes for gates, ``*`` for controls, ``o`` for
negative controls, ``X`` for SWAP ends and ``:`` columns for barriers.
"""

from __future__ import annotations

from typing import Dict, Hashable, List

from repro.dd.edge import Edge
from repro.dd.package import DDPackage
from repro.qc.circuit import QuantumCircuit
from repro.qc.operations import BarrierOp, GateOp, MeasureOp, ResetOp
from repro.vis.color import pretty_complex

#: Slot names of a node's edges by arity: a vector node's 0/1 branch, a
#: matrix node's row and column bits.
_SLOT_NAMES = {2: ("0", "1"), 4: ("00", "01", "10", "11")}


def dd_to_text(package: DDPackage, root: Edge, indent: str = "  ") -> str:
    """Render a DD of ``package`` as an indented text tree with sharing
    markers, read from the package's arrays (:meth:`DDPackage.walk`)."""
    if root.is_zero:
        return "0"
    nodes = package.walk(root)
    if not nodes:  # a scalar
        return pretty_complex(root.weight)
    names: Dict[Hashable, str] = {}
    lines: List[str] = []
    append = lines.append
    # The walk lists the root first.
    root_key = next(iter(nodes))
    slot_names = _SLOT_NAMES[len(nodes[root_key][1])]
    last_slot = len(slot_names) - 1
    # heads[depth][slot]: indentation and slot name of a line.
    heads = [("",)]
    # Depth first, children in slot order: (key, weight, depth, line head).
    stack = [(root_key, root.weight, 0, "")]
    pop, push = stack.pop, stack.append
    while stack:
        key, weight, depth, head = pop()
        if not weight:
            append(f"{head}0")
            continue
        weight_text = pretty_complex(weight)
        entry = nodes.get(key)
        if entry is None:  # the terminal
            append(f"{head}{weight_text}")
            continue
        name = names.get(key)
        if name is not None:
            append(f"{head}({weight_text}) -> q{entry[0]}{name} (shared)")
            continue
        name = names[key] = f"#{len(names) + 1}"
        append(f"{head}({weight_text}) -> q{entry[0]}{name}")
        depth += 1
        if depth == len(heads):
            prefix = indent * depth
            heads.append(tuple(f"{prefix}[{slot}] " for slot in slot_names))
        child_heads = heads[depth]
        edges = entry[1]
        for slot in range(last_slot, -1, -1):
            child, child_weight = edges[slot]
            push((child, child_weight, depth, child_heads[slot]))
    return "\n".join(lines)


def circuit_to_text(circuit: QuantumCircuit) -> str:
    """ASCII wire diagram of a circuit (top wire = most-significant qubit)."""
    num_qubits = circuit.num_qubits
    rows: List[List[str]] = [[] for _ in range(num_qubits)]

    def pad_columns() -> None:
        width = max((len(row) for row in rows), default=0)
        for row in rows:
            while len(row) < width:
                row.append("---")

    def add_column(cells: Dict[int, str]) -> None:
        pad_columns()
        width = max(len(text) for text in cells.values())
        for qubit in range(num_qubits):
            text = cells.get(qubit, "-" * width)
            rows[qubit].append(text.center(width, "-"))

    for operation in circuit:
        if isinstance(operation, BarrierOp):
            add_column({qubit: ":" for qubit in operation.qubits})
            continue
        if isinstance(operation, MeasureOp):
            add_column({operation.qubit: f"M>c{operation.clbit}"})
            continue
        if isinstance(operation, ResetOp):
            add_column({operation.qubit: "|0>"})
            continue
        if isinstance(operation, GateOp):
            cells: Dict[int, str] = {}
            if operation.gate == "swap" and not operation.condition:
                for target in operation.targets:
                    cells[target] = "X"
            else:
                label = operation.label()
                if operation.gate == "x" and operation.num_controls:
                    label = "(+)"
                for target in operation.targets:
                    cells[target] = f"[{label}]" if not label.startswith("(") else label
            for control in operation.controls:
                cells[control] = "*"
            for control in operation.negative_controls:
                cells[control] = "o"
            # Vertical connector for multi-line gates.
            lines_used = sorted(cells)
            if len(lines_used) > 1:
                for qubit in range(lines_used[0] + 1, lines_used[-1]):
                    if qubit not in cells:
                        cells[qubit] = "|"
            add_column(cells)
    pad_columns()
    out_lines = []
    for qubit in range(num_qubits - 1, -1, -1):
        wire = "---".join(rows[qubit]) if rows[qubit] else ""
        out_lines.append(f"q{qubit}: ---{wire}---")
    return "\n".join(out_lines)
