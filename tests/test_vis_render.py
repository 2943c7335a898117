"""Unit tests for DOT, SVG, layout and ASCII rendering (paper Sec. IV-A)."""

import math
import xml.etree.ElementTree as ET

import pytest

from repro.dd.edge import ONE_EDGE, ZERO_EDGE
from repro.errors import VisualizationError
from repro.qc import QuantumCircuit, library
from repro.qc.dd_builder import circuit_to_dd
from repro.simulation import DDSimulator
from repro.vis import DDStyle, RenderMode, dd_to_dot, dd_to_svg, dd_to_text
from repro.vis.layout import column_x, compute_layout, row_y
from repro.vis.svg import color_wheel_svg

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _bell(package):
    return package.from_state_vector([INV_SQRT2, 0, 0, INV_SQRT2])


class TestDot:
    def test_classic_structure(self, package):
        dot = dd_to_dot(package, _bell(package))
        assert dot.startswith("digraph")
        assert dot.count('label="q0"') == 2  # two q0 nodes (Fig. 2(a))
        assert dot.count('label="q1"') == 1
        assert 'label="1"' in dot  # terminal box

    def test_classic_dashes_nonunit_edges(self, package):
        dot = dd_to_dot(package, _bell(package))
        assert "style=dashed" in dot
        assert "1/√2" in dot

    def test_labels_can_be_disabled(self, package):
        dot = dd_to_dot(package, _bell(package), DDStyle.colored())
        assert "1/√2" not in dot
        assert "color=" in dot
        assert "penwidth=" in dot

    def test_retracted_zero_stubs(self, package):
        dot = dd_to_dot(package, package.zero_state(2))
        assert "stub" not in dot

    def test_explicit_zero_stubs_in_modern_mode(self, package):
        dot = dd_to_dot(package, package.zero_state(2), DDStyle.modern())
        assert "stub0" in dot

    def test_modern_mode_uses_records(self, package):
        dot = dd_to_dot(package, _bell(package), DDStyle.modern())
        assert "Mrecord" in dot
        assert "<p0>" in dot

    def test_matrix_dd(self, package):
        operation = circuit_to_dd(package, library.bell_pair())
        dot = dd_to_dot(package, operation)
        assert dot.count("->") >= 6

    def test_custom_qubit_labels(self, package):
        dot = dd_to_dot(package, _bell(package), qubit_labels=["bottom", "top"])
        assert 'label="top"' in dot
        assert 'label="bottom"' in dot

    def test_zero_dd_rejected(self, package):
        with pytest.raises(VisualizationError):
            dd_to_dot(package, ZERO_EDGE)

    def test_deterministic_output(self, package):
        a = dd_to_dot(package, _bell(package))
        b = dd_to_dot(package, _bell(package))
        assert a == b

    def test_scalar_root_points_at_the_terminal(self, package):
        dot = dd_to_dot(package, ONE_EDGE)
        assert "  root -> terminal;" in dot.splitlines()
        assert 'label="q' not in dot


class TestLayout:
    def test_levels_map_to_rows(self, package):
        state = _bell(package)
        layout = compute_layout(package, state)
        assert len(layout.layers) == 2
        # layers[d] sits on row d + 1, the terminal one row below the last.
        assert layout.terminal_cell[1] == len(layout.layers) + 1
        y_top, y_bottom, y_terminal = (row_y(row) for row in (1, 2, layout.terminal_cell[1]))
        assert y_top < y_bottom < y_terminal

    def test_all_nodes_positioned(self, package):
        operation = circuit_to_dd(package, library.qft(3))
        layout = compute_layout(package, operation)
        assert len(layout.columns) == package.node_count(operation)
        assert set(layout.columns) == {node for layer in layout.layers for node in layer}

    def test_nodes_within_bounds(self, package):
        operation = circuit_to_dd(package, library.qft(3))
        layout = compute_layout(package, operation)
        for depth, layer in enumerate(layout.layers):
            for node in layer:
                assert 0 <= column_x(layout.columns[node]) <= layout.width
                assert 0 <= row_y(depth + 1) <= layout.height

    def test_no_overlap_within_level(self, package):
        operation = circuit_to_dd(package, library.qft(3))
        layout = compute_layout(package, operation)
        for layer in layout.layers:
            xs = [column_x(layout.columns[node]) for node in layer]
            assert len(set(xs)) == len(xs)

    def test_zero_rejected(self, package):
        with pytest.raises(VisualizationError):
            compute_layout(package, ZERO_EDGE)


class TestSvg:
    @pytest.mark.parametrize(
        "style", [DDStyle.classic(), DDStyle.colored(), DDStyle.modern()]
    )
    def test_valid_xml(self, package, style):
        svg = dd_to_svg(package, _bell(package), style)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_classic_contains_weight_labels(self, package):
        svg = dd_to_svg(package, _bell(package))
        assert "1/√2" in svg

    def test_colored_has_no_labels_but_colors(self, package):
        svg = dd_to_svg(package, _bell(package), DDStyle.colored())
        assert "1/√2" not in svg
        assert 'stroke="#ff0000"' in svg  # positive-real weights -> red

    def test_node_count_matches_circles(self, package):
        state = _bell(package)
        svg = dd_to_svg(package, state)
        # 3 DD nodes drawn as circles plus small stub dots; count text labels.
        assert svg.count(">q0<") == 2
        assert svg.count(">q1<") == 1

    def test_title_rendered(self, package):
        svg = dd_to_svg(package, _bell(package), title="Bell state")
        assert "Bell state" in svg

    def test_matrix_dd_renders(self, package):
        operation = circuit_to_dd(package, library.qft(3))
        svg = dd_to_svg(package, operation, DDStyle.colored())
        ET.fromstring(svg)
        assert svg.count("<line") > 20

    def test_zero_rejected(self, package):
        with pytest.raises(VisualizationError):
            dd_to_svg(package, ZERO_EDGE)

    def test_color_wheel_is_valid_svg(self):
        svg = color_wheel_svg()
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert svg.count("<polygon") >= 72
        for label in (">1<", ">i<", ">-1<", ">-i<"):
            assert label in svg


class TestAsciiArt:
    def test_dd_text_shows_sharing(self, package):
        # |+>|+> shares the bottom node between both branches.
        state = package.from_state_vector([0.5, 0.5, 0.5, 0.5])
        text = dd_to_text(package, state)
        assert "(shared)" in text

    def test_dd_text_zero(self, package):
        assert dd_to_text(package, ZERO_EDGE) == "0"

    def test_dd_text_matrix_slots(self, package):
        operation = circuit_to_dd(package, library.bell_pair())
        text = dd_to_text(package, operation)
        assert "[00]" in text and "[11]" in text

    def test_circuit_text_bell(self):
        from repro.vis import circuit_to_text

        text = circuit_to_text(library.bell_pair())
        lines = text.splitlines()
        assert lines[0].startswith("q1:")
        assert "[H]" in lines[0]
        assert "(+)" in lines[1]
        assert "*" in lines[0]

    def test_circuit_text_specials(self):
        from repro.vis import circuit_to_text

        circuit = QuantumCircuit(2, 1)
        circuit.barrier().measure(0, 0).reset(1).swap(0, 1)
        text = circuit_to_text(circuit)
        assert ":" in text
        assert "M>c0" in text
        assert "|0>" in text
        assert text.count("X") == 2

    def test_circuit_text_wire_count(self):
        from repro.vis import circuit_to_text

        text = circuit_to_text(library.qft(3))
        assert len(text.splitlines()) == 3
