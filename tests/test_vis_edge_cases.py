"""Edge cases of the visualization stack: scalar DDs, boundary phases,
vanishing magnitudes.

These pin the degenerate inputs that crashed (or silently mis-rendered)
earlier versions: a scalar DD has no layers at all, HLS hues must wrap
cleanly at the bucket boundaries of the color wheel, and magnitude-0
weights must still draw a visible (minimum-width) stroke.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import pytest

from repro.dd.complex_table import ComplexTable
from repro.dd.edge import Edge, ONE_EDGE, ZERO_EDGE
from repro.dd.node import TERMINAL
from repro.errors import VisualizationError
from repro.vis import DDStyle, dd_to_svg
from repro.vis.color import hls_wheel_color, phase_to_color, weight_to_width
from repro.vis.layout import column_x, compute_layout, row_y
from repro.vis.svg import color_wheel_svg

TWO_PI = 2.0 * math.pi


def _parse_svg(text: str) -> ET.Element:
    return ET.fromstring(text)


# ----------------------------------------------------------------------
# scalar / empty decision diagrams
# ----------------------------------------------------------------------

class TestScalarDD:
    def test_layout_of_terminal_root(self, package):
        layout = compute_layout(package, ONE_EDGE)
        assert layout.layers == []
        assert layout.width > 0 and layout.height > 0
        # Root anchor and terminal line up on the (degenerate) spine.
        column, row = layout.terminal_cell
        assert layout.root_anchor[0] == column_x(column)
        assert layout.root_anchor[1] < row_y(row)

    @pytest.mark.parametrize(
        "style",
        [DDStyle.classic(), DDStyle.colored(), DDStyle.modern()],
        ids=["classic", "colored", "modern"],
    )
    def test_scalar_svg_renders_with_terminal_box(self, style, package):
        svg = dd_to_svg(package, ONE_EDGE, style=style)
        root = _parse_svg(svg)
        namespace = "{http://www.w3.org/2000/svg}"
        rects = root.findall(f"{namespace}rect")
        texts = [t.text for t in root.findall(f"{namespace}text")]
        assert rects, "terminal box missing from scalar DD"
        assert "1" in texts

    def test_scalar_svg_with_nonunit_weight(self, package):
        half = Edge(TERMINAL, package.complex_table.lookup(0.5 + 0.0j))
        svg = dd_to_svg(package, half, style=DDStyle.classic())
        assert "1/2" in svg  # the root edge label survives

    def test_zero_edge_still_rejected(self, package):
        with pytest.raises(VisualizationError):
            dd_to_svg(package, ZERO_EDGE)
        with pytest.raises(VisualizationError):
            compute_layout(package, ZERO_EDGE)

    def test_zero_qubit_state_renders(self, package):
        """A 0-qubit state is a scalar: the package API refuses to build
        one from a dense vector, but a hand-built scalar edge renders."""
        from repro.errors import InvalidStateError

        with pytest.raises(InvalidStateError):
            package.from_state_vector([1.0])
        scalar = Edge(TERMINAL, ComplexTable.ONE)
        svg = dd_to_svg(package, scalar, title="scalar")
        assert svg.startswith("<svg")
        assert "scalar" in svg


# ----------------------------------------------------------------------
# HLS bucket boundaries
# ----------------------------------------------------------------------

class TestHlsBoundaries:
    def test_zero_and_full_turn_identical(self):
        assert hls_wheel_color(0.0) == hls_wheel_color(TWO_PI)
        assert hls_wheel_color(0.0) == hls_wheel_color(-TWO_PI)

    def test_epsilon_below_full_turn_is_near_red(self):
        """2π-ε sits in the last hue bucket but must round back to red —
        a wrap bug here paints an almost-real weight violet."""
        almost = hls_wheel_color(TWO_PI - 1e-9)
        assert almost == hls_wheel_color(0.0)

    @pytest.mark.parametrize("sixth", range(6))
    def test_bucket_boundaries_are_exact(self, sixth):
        """The six HLS ramp corners (every π/3) hit pure channel values."""
        color = hls_wheel_color(sixth * math.pi / 3.0)
        channels = {color[1:3], color[3:5], color[5:7]}
        # At a corner every channel is fully on or fully off.
        assert channels <= {"00", "ff"}, color

    def test_phase_to_color_negative_phase_matches_positive(self):
        # exp(-iπ/2) and exp(i3π/2) are the same point on the wheel.
        down = phase_to_color(complex(0.0, -1.0))
        also_down = hls_wheel_color(1.5 * math.pi)
        assert down == also_down

    def test_wheel_svg_closes_the_circle(self):
        svg = color_wheel_svg(segments=12)
        root = _parse_svg(svg)
        namespace = "{http://www.w3.org/2000/svg}"
        polygons = root.findall(f"{namespace}polygon")
        assert len(polygons) == 12
        fills = [polygon.get("fill") for polygon in polygons]
        assert len(set(fills)) == 12  # twelve distinct hues, no repeats


# ----------------------------------------------------------------------
# vanishing magnitudes
# ----------------------------------------------------------------------

class TestVanishingMagnitude:
    def test_magnitude_zero_draws_minimum_width(self):
        assert weight_to_width(0.0 + 0.0j) == pytest.approx(0.5)

    def test_subnormal_magnitude_stays_at_least_minimum(self):
        width = weight_to_width(complex(1e-300, 0.0))
        assert width >= 0.5

    def test_width_is_monotone_in_magnitude(self):
        widths = [weight_to_width(complex(m, 0.0)) for m in
                  (0.0, 1e-9, 0.25, 0.5, 0.75, 1.0, 2.0)]
        assert widths == sorted(widths)
        assert widths[-1] == widths[-2] == pytest.approx(4.0)  # clipped

    def test_near_zero_weight_edge_renders(self, package):
        """An (unnormalized) DD carrying a tiny-but-clamped weight still
        produces strokes at the minimum width, not invisible hairlines."""
        state = package.from_state_vector([1.0, 0.0])
        svg = dd_to_svg(package, state,
                        style=DDStyle.colored())
        root = _parse_svg(svg)
        namespace = "{http://www.w3.org/2000/svg}"
        widths = [float(line.get("stroke-width"))
                  for line in root.findall(f"{namespace}line")]
        assert widths and min(widths) >= 0.5
