"""Golden regression of the paper-checked numbers.

Freezes the quantities the paper states (and earlier tests verified) into
``tests/data/golden_paper.json``:

* Ex. 12: peak of 9 intermediate nodes for the alternating scheme versus
  21 nodes when constructing the entire system matrix;
* Fig. 5/6: the three-qubit QFT functionality DD has 21 nodes, the QFT
  state reached from |000> has 3;
* Bell / GHZ / QFT amplitudes, stored as exact ``repr`` strings.

The computed payload must reproduce the golden file **byte-for-byte**: the
test serializes it with the same ``json.dumps`` settings as the stored
file and compares the strings.

Regenerate (only when intentionally changing the frozen numbers) with::

    PYTHONPATH=src python tests/test_paper_examples_golden.py --regenerate
"""

from __future__ import annotations

import json
import os

import pytest

from repro.dd.package import DDPackage
from repro.qc import library
from repro.qc.dd_builder import circuit_to_dd
from repro.simulation.simulator import DDSimulator
from repro.verification.alternating import (
    ApplicationStrategy,
    check_equivalence_alternating,
)
from repro.verification.checker import check_equivalence_construct

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_paper.json")

_SIMULATED = ("bell", "ghz3", "qft3", "qft3_compiled")


def _circuit(name: str):
    return {
        "bell": library.bell_pair,
        "ghz3": lambda: library.ghz_state(3),
        "qft3": lambda: library.qft(3),
        "qft3_compiled": lambda: library.qft_compiled(3),
    }[name]()


def compute_payload(make_package=DDPackage) -> dict:
    """Everything the golden file freezes, computed on fresh packages."""
    payload: dict = {"simulation": {}}
    for name in _SIMULATED:
        circuit = _circuit(name)
        simulator = DDSimulator(circuit, package=make_package())
        simulator.run_all()
        amplitudes = [
            repr(simulator.package.amplitude(simulator.state, index,
                                             circuit.num_qubits))
            for index in range(1 << circuit.num_qubits)
        ]
        payload["simulation"][name] = {
            "node_count": simulator.node_count(),
            "peak_node_count": simulator.peak_node_count,
            "amplitudes": amplitudes,
        }
    package = make_package()
    functionality = circuit_to_dd(package, library.qft(3))
    payload["qft3_functionality_nodes"] = package.node_count(functionality)
    alternating = check_equivalence_alternating(
        library.qft(3),
        library.qft_compiled(3),
        strategy=ApplicationStrategy.COMPILATION_FLOW,
        package=make_package(),
    )
    construct = check_equivalence_construct(
        library.qft(3), library.qft_compiled(3), package=make_package()
    )
    payload["example12"] = {
        "equivalent": alternating.equivalent,
        "alternating_peak_nodes": alternating.max_nodes,
        "construct_peak_nodes": construct.max_nodes,
    }
    return payload


def _serialize(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden() -> str:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return handle.read()


def test_payload_reproduces_golden_byte_for_byte(golden):
    assert _serialize(compute_payload()) == golden


def test_identity_skipping_reproduces_golden_amplitudes(golden):
    """Identity skipping changes the stored *representation*, never a
    reported number.

    The matrix packages behind the payload skip identity levels
    (arXiv:2406.11959), yet the payload — amplitudes, the QFT(3)
    functionality size and the Ex. 12 peaks 9 vs 21 — equals the golden
    file, because node counts report the dense DD.
    """
    packages = []

    def make_package() -> DDPackage:
        packages.append(DDPackage())
        return packages[-1]

    assert _serialize(compute_payload(make_package)) == golden
    assert sum(package.identity_skip_count for package in packages) > 0


def test_golden_freezes_the_paper_numbers(golden):
    """The stored file itself states the paper's numbers (guards against
    regenerating the golden from a broken build)."""
    payload = json.loads(golden)
    assert payload["example12"]["equivalent"] is True
    assert payload["example12"]["alternating_peak_nodes"] == 9
    assert payload["example12"]["construct_peak_nodes"] == 21
    assert payload["qft3_functionality_nodes"] == 21
    bell = payload["simulation"]["bell"]
    assert bell["node_count"] == 3
    assert bell["amplitudes"][0] == "(0.7071067811865475+0j)"
    assert bell["amplitudes"][1] == "0j"
    assert payload["simulation"]["qft3"]["node_count"] == 3


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        rendered = _serialize(compute_payload())
        with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"wrote {GOLDEN_PATH}")
