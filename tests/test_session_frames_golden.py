"""Golden digests of rendered session frames.

Every frame a session renders (its SVG and its terminal text) and every
circuit drawing is hashed and compared against a digest recorded from a
known-good renderer. Render-side caches must reuse work without changing
a single byte, so any drift in the drawings shows up here.
"""

import hashlib
import math
import os

import pytest

from repro.dd import DDPackage
from repro.dd.edge import ONE_EDGE, Edge
from repro.dd.node import TERMINAL
from repro.qc import QuantumCircuit, library
from repro.qc.dd_builder import circuit_to_dd
from repro.simulation import DDSimulator
from repro.tool.session import SimulationSession, VerificationSession
from repro.vis.ascii_art import dd_to_text
from repro.vis.circuit_svg import circuit_to_svg
from repro.vis.dot import dd_to_dot
from repro.vis.style import DDStyle
from repro.vis.svg import dd_to_svg

_DATA = os.path.join(os.path.dirname(__file__), "data")


def _digest(chunks):
    hasher = hashlib.sha256()
    for chunk in chunks:
        hasher.update(chunk.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


def _frame_digest(frames):
    return _digest(part for frame in frames for part in (frame.svg, frame.text))


def _every_operation_kind():
    circuit = QuantumCircuit(3, 2, name="kinds")
    circuit.h(0).cx(0, 1).ccx(0, 1, 2)
    circuit.gate("z", [0], negative_controls=[2])
    circuit.swap(0, 2).iswap(1, 2)
    circuit.p(math.pi / 2, 1).u3(0.37, 1.2, -0.4, 2)
    circuit.barrier()
    circuit.measure(0, 0).reset(0).measure(1, 1)
    return circuit


def test_simulation_session_frames():
    session = SimulationSession(
        os.path.join(_DATA, "reset_reuse.qasm"), style=DDStyle.classic(), seed=5
    )
    session.to_end(stop_at_breakpoints=False)
    session.backward()
    session.backward()
    session.to_end(stop_at_breakpoints=False)
    assert len(session.frames) == len(session.circuit) + 1
    assert _frame_digest(session.frames) == (
        "6d0a0a730747683b1798d2d5478123f8b75bd485c7653d6b28c26e28063d5fd8"
    )


def test_verification_session_frames():
    session = VerificationSession(
        library.qft(4), library.qft_compiled(4), style=DDStyle.colored()
    )
    session.run_compilation_flow()
    assert session.finished
    assert _frame_digest(session.frames) == (
        "6eda436f1e3169032bc3bd26b3b86ac7a28bb54fe2068ff138884c298a8a3ae3"
    )


def test_circuit_drawings():
    circuit = _every_operation_kind()
    drawings = [circuit_to_svg(circuit)]
    drawings += [
        circuit_to_svg(circuit, progress=progress)
        for progress in range(len(circuit) + 1)
    ]
    drawings.append(circuit_to_svg(circuit, progress=3, title="every <kind>"))
    drawings.append(circuit_to_svg(library.qft(4), title="QFT"))
    assert _digest(drawings) == (
        "8f5adc387ab0f19b17be917a213d94b1b39f0541fb5d99d9a0868b46e7189090"
    )


# ----------------------------------------------------------------------
# every dd_to_svg path: the three styles on vector and matrix DDs, a
# title that needs escaping, custom qubit labels and scalar roots
# ----------------------------------------------------------------------

_STYLES = {
    "classic": DDStyle.classic(),
    "colored": DDStyle.colored(),
    "modern": DDStyle.modern(),
}


def _vector_roots(package):
    """Every state of a stepped circuit: zero stubs, terminal edges, real,
    negative and complex weights."""
    circuit = library.random_circuit(4, 24, seed=11)
    circuit.h(3).cx(3, 0).gate("z", [1]).p(math.pi / 3, 2).y(0)
    simulator = DDSimulator(circuit, package=package)
    roots = [simulator.state]
    while not simulator.at_end:
        simulator.step_forward()
        roots.append(simulator.state)
    roots.append(package.from_state_vector([0.6, 0, 0, -0.8j]))
    return roots


def _matrix_roots(package):
    """Functionalities with non-unit, complex and skipped-identity levels."""
    sparse = QuantumCircuit(4)
    sparse.cx(3, 0).t(1).h(2)
    return [
        package.identity(3),
        circuit_to_dd(package, library.bell_pair()),
        circuit_to_dd(package, library.qft(3)),
        circuit_to_dd(package, sparse),
    ]


_DD_ROOTS = {"vector": _vector_roots, "matrix": _matrix_roots}

_DD_DIGESTS = {
    ("classic", "vector"): (
        "7b1dfff1378df83398e205c1dbb9b2e494df14c7efffa765358ab9ff7af20bb6"
    ),
    ("classic", "matrix"): (
        "843fb3789656c6874ff393d3507b314ba0a0c9f94aa11d2886376ea96f4db94b"
    ),
    ("colored", "vector"): (
        "6cd1098bf3e11059e67fd58e1ee6cc62ec3f35fb58f4c5a751e15fde93b5a959"
    ),
    ("colored", "matrix"): (
        "5a280a29def44be2cef7eb4d8b840ec55924ca326d4e2ec8c8e218e8b0c8da93"
    ),
    ("modern", "vector"): (
        "d28246cbea47a279983b3c3dc0290dc51a047677c2a281ada292b784167fecdf"
    ),
    ("modern", "matrix"): (
        "d1dbe7b83958eec7503b5493b84ed17ab79c4d4e42c264144daeb67b5f826fd7"
    ),
}


@pytest.mark.parametrize("style,kind", sorted(_DD_DIGESTS), ids="-".join)
def test_dd_svg_styles(style, kind):
    package = DDPackage()
    drawings = [dd_to_svg(package, root, _STYLES[style]) for root in _DD_ROOTS[kind](package)]
    assert _digest(drawings) == _DD_DIGESTS[(style, kind)]


def test_dd_svg_title_and_qubit_labels():
    package = DDPackage()
    state = _vector_roots(package)[-2]
    operation = circuit_to_dd(package, library.qft(3))
    labels = ["a<0>", "b&1", 'c"2']
    drawings = [
        dd_to_svg(package, root, style, qubit_labels=labels[:width], title=title)
        for style in _STYLES.values()
        for root in (state, operation)
        for width in (3, 1)
        for title in (None, "state <|psi> & \"U\"")
    ]
    assert _digest(drawings) == (
        "92bd8c034659af2b03228b12f010def3a3fdaa933b7dac1044f3ac2ef3f956a1"
    )


def test_dd_svg_scalar_roots():
    package = DDPackage()
    scalars = [
        ONE_EDGE,
        Edge(TERMINAL, package.complex_table.lookup(0.5)),
        Edge(TERMINAL, package.complex_table.lookup(-1j / math.sqrt(2.0))),
    ]
    drawings = [
        dd_to_svg(package, root, style, title="scalar <1>")
        for style in _STYLES.values()
        for root in scalars
    ]
    assert _digest(drawings) == (
        "e942c804d3d86d634bf5fb52b0371c1f6f0054e14c44e61151a8ea802f4286f5"
    )


# ----------------------------------------------------------------------
# dd_to_dot on vector DDs and on matrix DDs that skip levels, with and
# without qubit labels, and dd_to_text of those matrix DDs
# ----------------------------------------------------------------------


def _skipping_matrix_roots(package):
    """Matrix DDs stored with skipped levels: QFT(4)·QFT(4)† is stored as
    the terminal yet shows a chain of four identity nodes, and a CNOT from
    line 3 to line 0 skips the two levels in between."""
    functionality = circuit_to_dd(package, library.qft(4))
    jump = QuantumCircuit(4)
    jump.cx(3, 0).h(3)
    return [
        package.multiply(functionality, package.adjoint(functionality)),
        circuit_to_dd(package, jump),
    ] + _matrix_roots(package)


_DOT_ROOTS = {"vector": _vector_roots, "skipping": _skipping_matrix_roots}

_DOT_DIGESTS = {
    ("classic", "vector"): (
        "ab05c10770d1d360d060d0d1819ee0d9983083a058add62cb6c7e3859a1694b2"
    ),
    ("classic", "skipping"): (
        "a75c9e4cf629c2b193870e17c4eccbb056af7ff9ca6bb00543daf7165a9352b8"
    ),
    ("colored", "vector"): (
        "149bfe8e880713e86c37d9e7ad6b5204bd41062593c606a3e415b89e9c7a3a88"
    ),
    ("colored", "skipping"): (
        "c0ed9b2dd2f57f832cb78e70724e68ba939b670ac51b3e97c151f89b89b7e94f"
    ),
    ("modern", "vector"): (
        "270c41644472aeb193d078dd17d907d2dc2c2b2ea98d5442d61a6a59d939faec"
    ),
    ("modern", "skipping"): (
        "e6f25021f76e753996862f25b271ee48e1768261e3cb1272a8e17bfe9295ef79"
    ),
}


@pytest.mark.parametrize("style,kind", sorted(_DOT_DIGESTS), ids="-".join)
def test_dd_dot_styles(style, kind):
    package = DDPackage()
    drawings = [
        dd_to_dot(package, root, _STYLES[style], qubit_labels=labels)
        for root in _DOT_ROOTS[kind](package)
        for labels in (None, ["a", "b", "c"])
    ]
    assert _digest(drawings) == _DOT_DIGESTS[(style, kind)]


def test_dd_text_of_skipping_matrices():
    package = DDPackage()
    drawings = [dd_to_text(package, root) for root in _skipping_matrix_roots(package)]
    assert _digest(drawings) == (
        "9e2d5eba5013526c8597f83e8483a3813e57161c6528a36cd22cec15e0d2a28a"
    )
