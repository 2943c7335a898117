"""The SVG element caches: keyed on values only, and bounded.

``dd_to_svg`` memoizes every element it draws at module level, across
sessions and packages.  A cache that held a node, an edge or a package
would keep a closed session's diagram alive; a cache without a bound
would grow with every frame ever drawn.
"""

import cmath
import gc
import math
import weakref

import pytest

from repro.dd import DDPackage
from repro.qc import QuantumCircuit
from repro.tool.session import SimulationSession
from repro.vis import svg
from repro.vis.color import phase_to_color, pretty_complex, weight_to_width
from repro.vis.style import DDStyle


def _stepped_session():
    circuit = QuantumCircuit(3, name="steps")
    circuit.h(0).cx(0, 1).t(1).h(2).cx(2, 0).p(0.3, 1)
    session = SimulationSession(circuit, style=DDStyle.classic())
    session.to_end(stop_at_breakpoints=False)
    return session


def test_caches_keep_no_diagram_alive():
    session = _stepped_session()
    package = weakref.ref(session.simulator.package)
    session.close()
    del session
    gc.collect()
    assert package() is None
    assert svg._edge.cache_info().currsize > 0
    assert svg._node.cache_info().currsize > 0


def test_caches_stay_within_their_caps():
    package = DDPackage()
    frames = svg._CACHE_SIZE + 100
    for step in range(frames):
        # A distinct weight per frame: new labels, colors and widths.
        angle = 2.0 * math.pi * step / frames
        amplitude = 0.3 + 0.4 * step / frames
        state = package.from_state_vector(
            [amplitude, 0.0, 0.0, math.sqrt(1.0 - amplitude**2) * cmath.exp(1j * angle)]
        )
        for style in (DDStyle.classic(), DDStyle.colored(), DDStyle.modern()):
            svg.dd_to_svg(package, state, style, qubit_labels=[f"a{step}", "b"])
    full = 0
    for cache in svg.ELEMENT_CACHES:
        info = cache.cache_info()
        assert info.maxsize == svg._CACHE_SIZE
        assert info.currsize <= info.maxsize, cache.__name__
        full += info.currsize == info.maxsize
    assert full >= 3  # the frames overflowed the weight, edge and node caches


@pytest.mark.parametrize(
    "plus,minus",
    [
        (complex(0.5, 0.0), complex(0.5, -0.0)),
        (complex(0.0, 1.0), complex(-0.0, 1.0)),
        (complex(-1.0, 0.0), complex(-1.0, -0.0)),
        (complex(0.0, -0.7), complex(-0.0, -0.7)),
    ],
)
def test_weights_equal_as_keys_draw_identically(plus, minus):
    """Weights that differ only in a zero's sign share a cache key, so
    they must draw the same: same label, color, width and dash."""
    assert plus == minus and hash(plus) == hash(minus)
    # The unmemoized functions, so neither side answers from the other's entry.
    assert pretty_complex.__wrapped__(plus) == pretty_complex.__wrapped__(minus)
    assert phase_to_color(plus) == phase_to_color(minus)
    assert weight_to_width(plus) == weight_to_width(minus)
    assert (plus != svg._ONE) == (minus != svg._ONE)
