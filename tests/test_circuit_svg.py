"""Unit tests for the SVG circuit renderer."""

import gc
import weakref
import xml.etree.ElementTree as ET

import pytest

from repro.errors import VisualizationError
from repro.qc import QuantumCircuit, library
from repro.vis.circuit_svg import circuit_to_svg


class TestCircuitSvg:
    def test_valid_xml(self):
        svg = circuit_to_svg(library.bell_pair())
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_one_wire_per_qubit(self):
        svg = circuit_to_svg(library.qft(3))
        for qubit in range(3):
            assert f">q{qubit}</text>" in svg

    def test_hadamard_box(self):
        svg = circuit_to_svg(library.bell_pair())
        assert ">H</text>" in svg

    def test_cnot_drawing(self):
        svg = circuit_to_svg(library.bell_pair())
        # A filled control dot and the crossed-circle target.
        assert svg.count('r="4"') >= 1
        assert svg.count('r="9"') == 1

    def test_negative_control_is_open_dot(self):
        circuit = QuantumCircuit(2)
        circuit.gate("z", [0], negative_controls=[1])
        svg = circuit_to_svg(circuit)
        assert 'fill="#ffffff"' in svg

    def test_swap_crosses(self):
        circuit = QuantumCircuit(2)
        circuit.swap(0, 1)
        svg = circuit_to_svg(circuit)
        # Two x-marks of two strokes each.
        assert svg.count("stroke-width=\"1.6\"") == 4

    def test_barrier_dashed(self):
        circuit = QuantumCircuit(2)
        circuit.barrier()
        svg = circuit_to_svg(circuit)
        assert 'stroke-dasharray="5,4"' in svg

    def test_measure_and_reset_symbols(self):
        circuit = QuantumCircuit(1, 1)
        circuit.measure(0, 0).reset(0)
        svg = circuit_to_svg(circuit)
        assert "<path" in svg  # the meter arc
        assert "|0" in svg

    def test_parametrized_gate_label(self):
        import math

        circuit = QuantumCircuit(1)
        circuit.p(math.pi / 2, 0)
        svg = circuit_to_svg(circuit)
        assert "P(pi/2)" in svg

    def test_progress_highlighting(self):
        svg_none = circuit_to_svg(library.bell_pair())
        svg_one = circuit_to_svg(library.bell_pair(), progress=1)
        svg_zero = circuit_to_svg(library.bell_pair(), progress=0)
        assert '#1f77b4' not in svg_none
        assert '#1f77b4' in svg_one  # the executed H is blue
        assert 'stroke-dasharray="4,3"' in svg_zero  # pending H outlined

    def test_parallel_gates_share_column(self):
        parallel = QuantumCircuit(2)
        parallel.h(0).h(1)
        serial = QuantumCircuit(2)
        serial.h(0).cx(0, 1).h(1)
        width_of = lambda svg: float(svg.split('width="')[1].split('"')[0])
        assert width_of(circuit_to_svg(parallel)) < width_of(
            circuit_to_svg(serial)
        )

    def test_title(self):
        svg = circuit_to_svg(library.bell_pair(), title="Fig. 1(c)")
        assert "Fig. 1(c)" in svg

    def test_size_limit(self):
        with pytest.raises(VisualizationError):
            circuit_to_svg(library.ghz_state(25))

    def test_every_library_circuit_renders(self):
        for factory in (
            lambda: library.qft_compiled(3),
            lambda: library.grover(3, 5),
            lambda: library.w_state(4),
            lambda: library.bernstein_vazirani("101"),
            lambda: library.phase_estimation(3, 0.25),
        ):
            ET.fromstring(circuit_to_svg(factory()))


class TestDrawingReuse:
    """``circuit_to_svg`` reuses a per-circuit drawing across calls."""

    def test_append_after_drawing_redraws(self):
        circuit = library.qft(3)
        circuit_to_svg(circuit, progress=2)
        circuit.h(0).barrier().x(2)
        for progress in (None, 0, 2, len(circuit)):
            assert circuit_to_svg(circuit, progress=progress) == circuit_to_svg(
                circuit.copy(), progress=progress
            )

    def test_title_change_redraws(self):
        circuit = library.bell_pair()
        plain = circuit_to_svg(circuit)
        titled = circuit_to_svg(circuit, title="Bell")
        assert ">Bell</text>" in titled
        assert circuit_to_svg(circuit) == plain

    def test_drawing_does_not_keep_the_circuit_alive(self):
        circuit = library.qft(4)
        circuit_to_svg(circuit, progress=1)
        circuit_to_svg(circuit, progress=2, title="QFT")
        ref = weakref.ref(circuit)
        del circuit
        gc.collect()
        assert ref() is None
