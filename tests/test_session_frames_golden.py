"""Golden digests of rendered session frames.

Every frame a session renders (its SVG and its terminal text) and every
circuit drawing is hashed and compared against a digest recorded from a
known-good renderer. Render-side caches must reuse work without changing
a single byte, so any drift in the drawings shows up here.
"""

import hashlib
import math
import os

from repro.qc import QuantumCircuit, library
from repro.tool.session import SimulationSession, VerificationSession
from repro.vis.circuit_svg import circuit_to_svg
from repro.vis.style import DDStyle

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
