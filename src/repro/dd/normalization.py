"""Normalization schemes for decision-diagram nodes.

To unify sub-vectors that only differ by a common factor, the weights of a
node's outgoing edges are normalized and the extracted factor is multiplied
onto the incoming edge (paper Sec. III-A).  Canonicity requires the rule to
be deterministic; two schemes are provided:

``L2``
    Divide the outgoing weights by the L2 norm of the weight vector and make
    the first non-zero weight real and non-negative.  This is the scheme of
    the paper's footnote 3 ([16]): every sub-tree then represents a vector of
    norm 1, so the squared magnitude of an edge weight *is* the probability
    of the corresponding measurement outcome, enabling single-path sampling.

``MAX_MAGNITUDE``
    Divide all outgoing weights by the weight of largest magnitude (ties
    broken towards the smallest index), which then becomes exactly 1.  This
    is the classic QMDD scheme and is used for matrix nodes, where an L2
    interpretation does not apply.

Both rules are applied by :meth:`repro.dd.pooled.PooledEngine.make_node`;
``make_node_public`` first clamps numerically zero weights to the zero stub
and rejects non-finite ones.
"""

from __future__ import annotations

import enum


class NormalizationScheme(enum.Enum):
    """Deterministic weight-extraction rules for node creation."""

    L2 = "l2"
    MAX_MAGNITUDE = "max-magnitude"
