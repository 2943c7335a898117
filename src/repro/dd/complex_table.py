"""Canonical storage for complex edge weights.

Decision diagrams are only canonical if identical weights are recognised as
identical.  Under floating-point arithmetic, two computations of the same
amplitude (e.g. ``1/sqrt(2)`` obtained via normalization versus via a Hadamard
matrix entry) may differ in the last bits.  Following the complex-table design
of the JKQ/MQT DD package (ICCAD 2019), all edge weights are looked up in a
complex table which returns one canonical representative per tolerance-ball,
so that exact ``==`` comparison (and hashing) of weights is sound everywhere
else in the package.

The table is :class:`~repro.dd.pool.WeightPool`; :class:`ComplexTable` is its
public name.  It files values in cells of width ``2 * tolerance`` and
searches the query's own cell plus the neighbour on its half-cell side per
axis (2x2 cells), which guarantees that any stored value within
``tolerance`` (in Chebyshev distance) of the query is found.
"""

from __future__ import annotations

import cmath
import math

from repro.dd.pool import DEFAULT_TOLERANCE, WeightPool

__all__ = ["ComplexTable", "DEFAULT_TOLERANCE", "phase_of"]

#: The complex table (one class: the pooled engine's weight pool).
ComplexTable = WeightPool


def phase_of(value: complex) -> float:
    """Phase of ``value`` in the half-open interval ``[0, 2*pi)``.

    Used by the visualization layer's HLS color wheel; exposed here because
    normalization also needs a consistent phase convention.
    """
    angle = cmath.phase(value)
    if angle < 0:
        angle += 2.0 * math.pi
    if angle >= 2.0 * math.pi:
        angle = 0.0
    return angle
