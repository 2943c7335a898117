"""Unit tests for the normalization schemes (paper footnote 3).

The schemes are applied by the package's node constructors
(``make_vector_node``/``make_matrix_node``): the returned edge carries the
extracted common factor and the node stores the normalized weights.
"""

import cmath
import math

import pytest

from repro.dd import DDPackage
from repro.dd.complex_table import ComplexTable
from repro.dd.edge import Edge, ZERO_EDGE
from repro.dd.node import TERMINAL
from repro.dd.normalization import NormalizationScheme
from repro.errors import DDError


def _edges(package, *weights):
    table = package.complex_table
    return tuple(
        Edge(TERMINAL, table.lookup(w)) if w != 0 else ZERO_EDGE for w in weights
    )


def _build(package, edges):
    """``(common factor, normalized edges)`` of a level-0 node."""
    make = package.make_vector_node if len(edges) == 2 else package.make_matrix_node
    result = make(0, edges)
    if result == ZERO_EDGE:
        return result.weight, (ZERO_EDGE,) * len(edges)
    return result.weight, result.node.edges


def _max_magnitude_package():
    return DDPackage(vector_scheme=NormalizationScheme.MAX_MAGNITUDE)


class TestL2:
    def test_unit_pair_already_normalized(self):
        package = DDPackage()
        inv = 1.0 / math.sqrt(2.0)
        factor, edges = _build(package, _edges(package, inv, inv))
        assert factor == ComplexTable.ONE
        assert edges[0].weight == package.complex_table.lookup(inv)

    def test_norm_extracted(self):
        package = DDPackage()
        factor, edges = _build(package, _edges(package, 3.0, 4.0))
        assert abs(factor - 5.0) < 1e-12
        norm = math.sqrt(sum(abs(e.weight) ** 2 for e in edges))
        assert abs(norm - 1.0) < 1e-12

    def test_first_nonzero_weight_positive_real(self):
        package = DDPackage()
        factor, edges = _build(package, _edges(package, 1j * 0.6, 0.8j))
        first = edges[0].weight
        assert abs(first.imag) < 1e-12
        assert first.real > 0
        # Reconstruction: factor * normalized weight == original.
        assert cmath.isclose(factor * first, 0.6j, abs_tol=1e-12)

    def test_zero_first_branch(self):
        package = DDPackage()
        factor, edges = _build(package, _edges(package, 0.0, -2.0))
        assert edges[0] == ZERO_EDGE
        assert abs(edges[1].weight - 1.0) < 1e-12  # real, positive
        assert abs(factor + 2.0) < 1e-12

    def test_all_zero(self):
        package = DDPackage()
        assert package.make_vector_node(0, (ZERO_EDGE, ZERO_EDGE)) is ZERO_EDGE

    def test_tiny_weights_treated_as_zero(self):
        package = DDPackage()
        factor, edges = _build(package, _edges(package, 1e-14, 1.0))
        assert edges[0] == ZERO_EDGE


class TestMaxMagnitude:
    def test_pivot_becomes_exactly_one(self):
        package = _max_magnitude_package()
        factor, edges = _build(package, _edges(package, 0.5, -0.75))
        assert edges[1].weight == ComplexTable.ONE
        assert abs(factor + 0.75) < 1e-12

    def test_tie_broken_towards_smaller_index(self):
        package = _max_magnitude_package()
        factor, edges = _build(package, _edges(package, 0.5, 0.5))
        assert edges[0].weight == ComplexTable.ONE
        assert abs(factor - 0.5) < 1e-12

    def test_four_edges(self):
        package = DDPackage()
        factor, edges = _build(package, _edges(package, 0.0, 1j, 0.0, -1j))
        assert edges[1].weight == ComplexTable.ONE
        assert abs(factor - 1j) < 1e-12
        assert edges[3].weight == package.complex_table.lookup(-1.0)

    def test_reconstruction(self):
        package = DDPackage()
        weights = (0.1 + 0.2j, -0.3, 0.05j, 0.0)
        factor, edges = _build(package, _edges(package, *weights))
        for original, edge in zip(weights, edges):
            assert cmath.isclose(factor * edge.weight, original, abs_tol=1e-12)


class TestNearZeroClamp:
    """Near-zero and non-finite weights must never reach normalization."""

    def test_sub_tolerance_magnitude_clamped_both_schemes(self):
        for scheme in NormalizationScheme:
            package = DDPackage(vector_scheme=scheme)
            table = package.complex_table
            tiny = complex(table.tolerance * 0.5, -table.tolerance * 0.5)
            factor, edges = _build(
                package,
                (Edge(TERMINAL, tiny), Edge(TERMINAL, table.lookup(0.8))),
            )
            assert edges[0] == ZERO_EDGE
            assert not edges[1].is_zero

    def test_tiny_weight_never_becomes_pivot(self):
        # If the only non-zero weight is sub-tolerance, the whole node must
        # collapse to the zero stub — dividing by a ~1e-11 pivot would blow
        # its rounding noise up into garbage sibling phases.
        for scheme in NormalizationScheme:
            package = DDPackage(vector_scheme=scheme)
            tiny = complex(package.complex_table.tolerance * 0.9, 0.0)
            for arity in (2, 4):
                edges = (Edge(TERMINAL, tiny),) + (ZERO_EDGE,) * (arity - 1)
                factor, normalized = _build(package, edges)
                assert factor == ComplexTable.ZERO
                assert all(edge == ZERO_EDGE for edge in normalized)

    def test_non_finite_weight_rejected(self):
        package = _max_magnitude_package()
        for bad in (
            complex(float("inf"), 0.0),
            complex(0.0, float("-inf")),
            complex(float("nan"), 0.0),
        ):
            for arity in (2, 4):
                one = Edge(TERMINAL, ComplexTable.ONE)
                edges = (Edge(TERMINAL, bad),) + (one,) * (arity - 1)
                with pytest.raises(DDError):
                    _build(package, edges)
