"""Decision-diagram nodes.

A *vector node* at level ``var`` has two successor edges (the |0> and |1>
branch of qubit ``q_var``); a *matrix node* has four successor edges,
corresponding to the four equally-sized sub-matrices ``U_ij`` (paper Sec.
III-A): edge ``2*i + j`` describes how the rest of the system is transformed
given that ``q_var`` is mapped from ``|j>`` to ``|i>``.

Nodes are hash-consed through the pooled engine's unique tables
(:mod:`repro.dd.pooled`), which hand out views of these classes; therefore
node *identity* implies structural equality and nodes use the default
identity hash.  Both node classes are immutable after construction.

The unique terminal node :data:`TERMINAL` sits below level 0 (``var == -1``)
and carries no successors.  Following the paper, the terminal is *not*
counted towards a decision diagram's size.
"""

from __future__ import annotations

import itertools
from typing import Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dd.edge import Edge

_node_ids = itertools.count()


class Node:
    """Common base for vector and matrix nodes (and the terminal)."""

    __slots__ = ("var", "edges", "uid", "__weakref__")

    def __init__(self, var: int, edges: Tuple["Edge", ...]):
        self.var = var
        self.edges = edges
        self.uid = next(_node_ids)

    @property
    def is_terminal(self) -> bool:
        return self.var < 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_terminal:
            return "<terminal>"
        kind = type(self).__name__
        return f"<{kind} q{self.var} #{self.uid}>"


class VectorNode(Node):
    """A node of a decision diagram representing a state vector."""

    __slots__ = ()

    def __init__(self, var: int, edges: Tuple["Edge", "Edge"]):
        if len(edges) != 2:
            raise ValueError("vector nodes have exactly two successors")
        super().__init__(var, edges)


class MatrixNode(Node):
    """A node of a decision diagram representing an operation matrix."""

    __slots__ = ()

    def __init__(self, var: int, edges: Tuple["Edge", "Edge", "Edge", "Edge"]):
        if len(edges) != 4:
            raise ValueError("matrix nodes have exactly four successors")
        super().__init__(var, edges)


class _TerminalNode(Node):
    """The unique terminal node (level -1, no successors)."""

    __slots__ = ()

    def __init__(self):
        super().__init__(-1, ())


#: The unique terminal node shared by all decision diagrams.
TERMINAL = _TerminalNode()
