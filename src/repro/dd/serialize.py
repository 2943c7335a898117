"""JSON (de)serialization of decision diagrams.

Lets users persist a computed diagram (a state reached after a long
simulation, a verified functionality) and reload it later — including
into a *different* package instance, where hash consing rebuilds canonical
sharing.  The format is a flat node table:

.. code-block:: json

    {
      "kind": "vector",
      "num_qubits": 2,
      "root": {"node": 2, "weight": [1.0, 0.0]},
      "nodes": [
        {"id": 0, "var": 0, "edges": [{"node": null, "weight": [1.0, 0.0]},
                                       "zero"]},
        ...
      ]
    }

``null`` denotes the terminal, ``"zero"`` a zero stub.  Node ids are only
meaningful within one document.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List

from repro.dd.edge import Edge, ZERO_EDGE
from repro.dd.node import MatrixNode, Node, TERMINAL
from repro.dd.package import DDPackage
from repro.errors import DDError

_FORMAT_VERSION = 1


def dd_to_dict(package: DDPackage, root: Edge) -> dict:
    """Serialize a (non-zero) DD rooted at ``root`` to plain data.

    Matrix DDs are written as the paper's dense DD, identity nodes
    included.  The document records the level-to-qubit ``order``, always
    the identity: level ``k`` hosts qubit ``q_k``.
    """
    if root.is_zero:
        raise DDError("cannot serialize the zero decision diagram")
    if root.node.is_terminal:
        raise DDError("cannot serialize a bare terminal diagram")
    ids: Dict[Node, int] = {}
    nodes: List[dict] = []

    def visit(node: Node) -> int:
        if node in ids:
            return ids[node]
        # Children first so the node list is in topological (bottom-up) order.
        edges = []
        for edge in node.edges:
            if edge.is_zero:
                edges.append("zero")
            elif edge.node.is_terminal:
                edges.append(
                    {"node": None, "weight": [edge.weight.real, edge.weight.imag]}
                )
            else:
                child = visit(edge.node)
                edges.append(
                    {"node": child, "weight": [edge.weight.real, edge.weight.imag]}
                )
        identifier = len(nodes)
        ids[node] = identifier
        nodes.append({"id": identifier, "var": node.var, "edges": edges})
        return identifier

    root_id = visit(root.node)
    num_qubits = root.node.var + 1
    return {
        "format": _FORMAT_VERSION,
        "kind": "matrix" if isinstance(root.node, MatrixNode) else "vector",
        "num_qubits": num_qubits,
        "order": list(range(num_qubits)),
        "root": {"node": root_id, "weight": [root.weight.real, root.weight.imag]},
        "nodes": nodes,
    }


def dd_from_dict(package: DDPackage, data: dict) -> Edge:
    """Rebuild a DD in ``package`` from :func:`dd_to_dict` data.

    Normalization and hash consing re-establish the canonical form, so the
    result compares (by root pointer) with freshly built diagrams.  A
    malformed document raises :class:`~repro.errors.DDError` before the
    package is touched: every level lies in ``[0, num_qubits)`` and strictly
    below its parent (one level below in a vector DD), the root sits at
    level ``num_qubits - 1``, weights are finite, and ``order``, when
    present, is the identity ``range(num_qubits)``: a document written
    under another variable order is refused, not misread.
    """
    if not isinstance(data, dict):
        raise DDError(f"a DD document is a JSON object, not {type(data).__name__}")
    if data.get("format") != _FORMAT_VERSION:
        raise DDError(f"unsupported DD format version {data.get('format')!r}")
    kind = data.get("kind")
    if kind not in ("vector", "matrix"):
        raise DDError(f"unknown DD kind {kind!r}")
    num_qubits = _integer(data.get("num_qubits"), "num_qubits")
    if num_qubits < 1:
        raise DDError(f"num_qubits must be at least 1, got {num_qubits}")
    doc_order = data.get("order")
    if doc_order is not None:
        _check_order(doc_order, num_qubits)
    nodes = _parse_nodes(data.get("nodes"), kind, num_qubits)
    root_data = data.get("root")
    if not isinstance(root_data, dict):
        raise DDError("the document has no root object")
    root_weight = _weight(root_data.get("weight"), "root")
    root_id = _integer(root_data.get("node"), "root node")
    if root_id not in nodes:
        raise DDError(f"root references unknown node {root_id!r}")
    if nodes[root_id][0] != num_qubits - 1:
        raise DDError(
            f"root sits at level {nodes[root_id][0]}, not at the top level "
            f"{num_qubits - 1}"
        )
    make_node = (
        package.make_matrix_node if kind == "matrix" else package.make_vector_node
    )
    table = package.complex_table
    rebuilt: Dict[int, Edge] = {}
    try:
        for identifier, (var, edges) in nodes.items():
            children = []
            for target, weight in edges:
                if target == "zero":
                    children.append(ZERO_EDGE)
                elif target is None:
                    children.append(Edge(TERMINAL, table.lookup(weight)))
                else:
                    children.append(
                        rebuilt[target].scaled(table.lookup(weight), table)
                    )
            rebuilt[identifier] = make_node(var, children)
        return rebuilt[root_id].scaled(table.lookup(root_weight), table)
    except (ValueError, OverflowError, ZeroDivisionError) as error:
        # Finite weights whose products leave the complex table's range.
        raise DDError(f"document weights out of range: {error}") from None


def _integer(value, what: str) -> int:
    if type(value) is not int:
        raise DDError(f"{what} must be an integer, got {value!r}")
    return value


def _weight(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(type(part) in (int, float) for part in value)
    ):
        raise DDError(f"{where}: a weight is a [real, imag] pair, got {value!r}")
    weight = complex(value[0], value[1])
    if not (math.isfinite(weight.real) and math.isfinite(weight.imag)):
        raise DDError(f"{where}: non-finite weight {value!r}")
    return weight


def _check_order(order, num_qubits: int) -> None:
    """Every package uses the fixed order level ``k`` = qubit ``k``; a
    document written under another order is refused, not misread."""
    if (
        not isinstance(order, list)
        or len(order) != num_qubits
        or order != list(range(num_qubits))
    ):
        raise DDError(
            f"order must be the identity range({num_qubits}), got {order!r}; "
            "to change the variable order, permute the circuit's wires"
        )


def _parse_nodes(entries, kind: str, num_qubits: int) -> Dict[int, tuple]:
    """Validated ``id -> (var, [(target, weight), ...])`` in document order;
    a target is a node id, ``None`` (terminal) or ``"zero"``."""
    if not isinstance(entries, list):
        raise DDError("the document's nodes must be a list")
    arity = 4 if kind == "matrix" else 2
    nodes: Dict[int, tuple] = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise DDError(f"a node entry is an object, got {entry!r}")
        identifier = _integer(entry.get("id"), "node id")
        if identifier in nodes:
            raise DDError(f"node id {identifier} is defined twice")
        var = _integer(entry.get("var"), f"node {identifier} var")
        if not 0 <= var < num_qubits:
            raise DDError(
                f"node {identifier}: level {var} outside [0, {num_qubits})"
            )
        edges_data = entry.get("edges")
        if not isinstance(edges_data, list) or len(edges_data) != arity:
            raise DDError(f"node {identifier}: a {kind} node has {arity} edges")
        edges = []
        for offset, edge_data in enumerate(edges_data):
            where = f"node {identifier} edge {offset}"
            if edge_data == "zero":
                edges.append(("zero", 0j))
                continue
            if not isinstance(edge_data, dict):
                raise DDError(f"{where}: an edge is an object or \"zero\"")
            weight = _weight(edge_data.get("weight"), where)
            target = edge_data.get("node")
            child_var = -1
            if target is not None:
                target = _integer(target, f"{where} node")
                if target not in nodes:
                    raise DDError(
                        f"{where} references node {target!r} before its "
                        "definition (the node list must be bottom-up)"
                    )
                child_var = nodes[target][0]
            if child_var >= var or kind == "vector" and child_var != var - 1:
                raise DDError(
                    f"{where}: a level-{var} node cannot point at level {child_var}"
                )
            edges.append((target, weight))
        nodes[identifier] = (var, edges)
    return nodes


def save_dd(package: DDPackage, root: Edge, path: str) -> None:
    """Write a DD to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dd_to_dict(package, root), handle)


def load_dd(package: DDPackage, path: str) -> Edge:
    """Load a DD from a JSON file into ``package``."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (ValueError, RecursionError) as error:
            raise DDError(f"{path}: not a JSON DD document ({error})") from None
    return dd_from_dict(package, data)
