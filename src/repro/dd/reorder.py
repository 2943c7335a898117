"""Dynamic variable reordering for decision diagrams.

Decision diagrams are canonical — and compact — only *relative to a
variable order* (paper Sec. III-C); a bad order costs up to ``2^(n/2)``
nodes for states a good order represents linearly.  This module closes
the engine's last static assumption (ROADMAP item #4): the level-to-qubit
mapping becomes dynamic, optimized by *sifting* (Rudell 1993) built from
adjacent-level swap primitives.

Because package edges are immutable named tuples hash-consed in the
unique tables, swaps are implemented as *rebuilds* rather than in-place
successor surgery: swapping levels ``(l, l+1)`` rebuilds every live root
through a memoized recursion that re-brackets the two-level window

    top(l+1) -> children c_k -> grandchildren g[k][m]

into

    top'(l+1) -> inner_m(l) -> g[k][m]

(the entry at path ``(k, m)`` becomes the entry at path ``(m, k)``).
Nodes strictly below the window are shared unchanged; nodes above are
rebuilt with translated children.  Everything goes back through the
normalizing constructors, so the result is canonical under the new order
by construction, and the identity-skipping reduction re-fires on every
rebuilt matrix node.

The package keeps a remap (old root node -> new edge) so edges handed
out before a reorder keep working; every public ``DDPackage`` entry
point funnels operands through it (``DDPackage._resolve``).

The recursion only uses ``node.edges`` / ``node.var`` and the package's
normalizing constructors, which the pooled engine exposes through its
flyweight node views.  Matrix views show the dense DD (skipped levels as
identity nodes), so the swap never meets a level-skipping edge.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.dd.complex_table import ComplexTable
from repro.dd.edge import Edge, ZERO_EDGE
from repro.dd.node import MatrixNode
from repro.errors import DDError

__all__ = ["swap_adjacent", "sift"]


def _make_node(package, is_matrix: bool, var: int, children) -> Edge:
    if is_matrix:
        return package.make_matrix_node(var, children)
    return package.make_vector_node(var, children)


def _swap_window(package, level: int, node) -> Edge:
    """Re-bracket one node whose variable sits at ``level + 1``."""
    table = package.complex_table
    is_matrix = isinstance(node, MatrixNode)
    arity = 4 if is_matrix else 2
    rows: List[Tuple[Edge, ...]] = []
    for child in node.edges:
        if child.is_zero:
            rows.append((ZERO_EDGE,) * arity)
            continue
        cnode = child.node
        if cnode.is_terminal or cnode.var < level:
            raise DDError(
                f"level {level} is missing below a level-{level + 1} "
                "node (non-canonical diagram)"
            )
        rows.append(
            tuple(
                ZERO_EDGE if gc.is_zero else gc.scaled(child.weight, table)
                for gc in cnode.edges
            )
        )
    inner = tuple(
        _make_node(
            package, is_matrix, level, tuple(rows[k][m] for k in range(arity))
        )
        for m in range(arity)
    )
    return _make_node(package, is_matrix, level + 1, inner)


def _swap_edge(package, level: int, edge: Edge, memo: Dict) -> Edge:
    if edge.is_zero:
        return edge
    node = edge.node
    if node.is_terminal or node.var < level:
        # Entirely below the window: shared unchanged.
        return edge
    res = memo.get(node)
    if res is None:
        if node.var > level + 1:
            children = tuple(
                _swap_edge(package, level, child, memo) for child in node.edges
            )
            res = _make_node(
                package, isinstance(node, MatrixNode), node.var, children
            )
        elif node.var == level + 1:
            res = _swap_window(package, level, node)
        else:
            raise DDError(
                f"cannot swap levels ({level}, {level + 1}): a root spans "
                f"only {node.var + 1} levels (mixed-span roots are not "
                "supported)"
            )
        memo[node] = res
    if res.is_zero:
        return ZERO_EDGE
    return res.scaled(edge.weight, package.complex_table)


def _swap_roots(package, level: int, edges: List[Edge]) -> List[Edge]:
    """Swap levels ``(level, level + 1)`` under every root in ``edges``.

    Rebuilds the roots, swaps the package's order-map entries and bumps
    the swap counter.  Returns the translated root edges.
    """
    if level < 0:
        raise DDError("swap levels must be non-negative")
    memo: Dict = {}
    out = [_swap_edge(package, level, edge, memo) for edge in edges]
    package._ensure_order(level + 2)
    order = package._order
    order[level], order[level + 1] = order[level + 1], order[level]
    package._refresh_order_identity()
    package._reorder_swaps += 1
    return out


def _live_root_nodes(package) -> List:
    """Deduplicated non-terminal nodes registered as governor roots."""
    nodes = []
    seen = set()
    for node, _weight in package.governor._live_roots():
        if node.is_terminal or id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
    return nodes


def _reachable_count(edges: List[Edge]) -> int:
    """Non-terminal nodes reachable from all roots together (shared)."""
    seen = set()
    stack = [edge.node for edge in edges if not edge.is_zero]
    while stack:
        node = stack.pop()
        if node.is_terminal or node in seen:
            continue
        seen.add(node)
        for child in node.edges:
            if not child.is_zero:
                stack.append(child.node)
    return len(seen)


def _level_sizes(edges: List[Edge]) -> Dict[int, int]:
    sizes: Dict[int, int] = {}
    seen = set()
    stack = [edge.node for edge in edges if not edge.is_zero]
    while stack:
        node = stack.pop()
        if node.is_terminal or node in seen:
            continue
        seen.add(node)
        sizes[node.var] = sizes.get(node.var, 0) + 1
        for child in node.edges:
            if not child.is_zero:
                stack.append(child.node)
    return sizes


def _finish(package, root_nodes, finals: List[Edge]) -> None:
    """Install the root translation map and rebuild the governor roots."""
    mapping = {}
    for orig, final in zip(root_nodes, finals):
        if final.node is orig and final.weight == ComplexTable.ONE:
            continue
        mapping[orig] = final
    package._apply_reorder_remap(mapping)


def swap_adjacent(package, level: int) -> None:
    """Swap the variables at ``level`` and ``level + 1`` for all live roots.

    The primitive underneath :func:`sift`, exposed for tests and manual
    experiments.  Statevector-preserving: only the level-to-qubit map and
    the diagram structure change, never the represented amplitudes.
    """
    root_nodes = _live_root_nodes(package)
    # Retire the old roots from the unique tables before rebuilding: the
    # rebuild (and every later operation) must cons *fresh* nodes, never
    # resurrect a stale one, or the remap would alias two meanings onto a
    # single node object and mis-translate current edges.
    package._retire_stale_roots(
        [node for node in root_nodes if node.var >= level]
    )
    edges = [Edge(node, ComplexTable.ONE) for node in root_nodes]
    finals = _swap_roots(package, level, edges)
    _finish(package, root_nodes, finals)
    cache = getattr(package, "_gate_dd_cache", None)
    if cache:
        cache.clear()


def sift(package, max_growth: float = 2.0) -> Dict:
    """Sifting: move every variable through all levels via adjacent swaps
    and settle it where the total live diagram is smallest.

    Variables are processed in decreasing level-population order.  Ties
    keep a variable at its original position, which makes sifting
    idempotent at a local minimum.  ``max_growth`` aborts a sweep
    direction once the diagram exceeds that multiple of the best size
    seen for the current variable.
    """
    root_nodes = _live_root_nodes(package)
    current = [Edge(node, ComplexTable.ONE) for node in root_nodes]
    before = _reachable_count(current)
    summary = {
        "strategy": "sifting",
        "swaps": 0,
        "nodes_before": before,
        "nodes_after": before,
        "order": package.qubit_order,
    }
    if not current:
        return summary
    n = max(edge.node.var for edge in current) + 1
    if n < 2:
        return summary
    package._ensure_order(n)
    swaps_before = package._reorder_swaps
    # See swap_adjacent: the old roots become the remap's domain, so they
    # must leave the unique tables before the first swap conses anything.
    package._retire_stale_roots(root_nodes)

    def move(swap_level: int) -> None:
        current[:] = _swap_roots(package, swap_level, current)

    sizes = _level_sizes(current)
    by_population = sorted(range(n), key=lambda lvl: (-sizes.get(lvl, 0), lvl))
    qubits = [package.qubit_at(lvl) for lvl in by_population]
    for qubit in qubits:
        pos = package.level_of(qubit)
        best_pos = pos
        best_count = _reachable_count(current)
        # Sweep down to level 0 ...
        while pos > 0:
            move(pos - 1)
            pos -= 1
            count = _reachable_count(current)
            if count < best_count:
                best_count, best_pos = count, pos
            if count > max_growth * best_count:
                break
        # ... then up to the top ...
        while pos < n - 1:
            move(pos)
            pos += 1
            count = _reachable_count(current)
            if count < best_count:
                best_count, best_pos = count, pos
            if count > max_growth * best_count:
                break
        # ... and settle at the best position seen.
        while pos > best_pos:
            move(pos - 1)
            pos -= 1
        while pos < best_pos:
            move(pos)
            pos += 1
    _finish(package, root_nodes, current)
    summary["swaps"] = package._reorder_swaps - swaps_before
    summary["nodes_after"] = _reachable_count(current)
    summary["order"] = package.qubit_order
    return summary
