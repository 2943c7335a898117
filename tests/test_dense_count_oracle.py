"""Matrix-DD node counts against a package-independent dense oracle.

The package stores matrix DDs with identity skipping but reports the
paper's dense DD.  The oracle here reads only the dense matrix
(``to_matrix``): the dense DD has one node per level for every distinct
non-zero aligned quadrant block of that level's size, up to a complex
factor.  Every step of the alternating and construct checkers must report
exactly that count.
"""

import numpy as np
import pytest

from repro.dd import DDPackage
from repro.dd.serialize import dd_from_dict, dd_to_dict
from repro.qc import library
from repro.qc.dd_builder import circuit_to_dd
from repro.verification import (
    ApplicationStrategy,
    check_equivalence_alternating,
    check_equivalence_construct,
)
from repro.vis.layout import compute_layout
from repro.vis.svg import dd_to_svg

ZERO_TOLERANCE = 1e-9
SAME_BLOCK_TOLERANCE = 1e-7


def dense_node_count(matrix: np.ndarray) -> int:
    """Nodes of the dense matrix DD of ``matrix`` (terminal excluded)."""
    size = matrix.shape[0]
    count = 0
    block = size
    while block > 1:
        representatives = []
        for row in range(0, size, block):
            for column in range(0, size, block):
                entries = matrix[row:row + block, column:column + block].reshape(-1)
                nonzero = np.flatnonzero(np.abs(entries) > ZERO_TOLERANCE)
                if not len(nonzero):
                    continue
                normalized = entries / entries[nonzero[0]]
                if not any(
                    np.allclose(normalized, other, atol=SAME_BLOCK_TOLERANCE)
                    for other in representatives
                ):
                    representatives.append(normalized)
        count += len(representatives)
        block //= 2
    return count


def _checked_package(steps):
    """A package whose ``node_count`` asserts the oracle on every call."""
    package = DDPackage()
    count = package.node_count

    def node_count(edge):
        reported = count(edge)
        expected = dense_node_count(package.to_matrix(edge))
        assert reported == expected, f"step {len(steps)}: {reported} != {expected}"
        steps.append(reported)
        return reported

    package.node_count = node_count
    return package


_PAIRS = {
    "qft3": lambda: (library.qft(3), library.qft_compiled(3)),
    "qft4": lambda: (library.qft(4), library.qft_compiled(4)),
    "qft5": lambda: (library.qft(5), library.qft_compiled(5)),
    "random-a": lambda: (
        library.random_circuit(4, 24, seed=5),
        library.random_circuit(4, 24, seed=6),
    ),
    "random-b": lambda: (
        library.random_circuit(5, 20, seed=7),
        library.random_circuit(5, 20, seed=7),
    ),
}


@pytest.mark.parametrize("pair", sorted(_PAIRS))
def test_alternating_steps_match_the_oracle(pair):
    left, right = _PAIRS[pair]()
    strategy = (
        ApplicationStrategy.COMPILATION_FLOW
        if pair.startswith("qft")
        else ApplicationStrategy.PROPORTIONAL
    )
    steps = []
    result = check_equivalence_alternating(
        left, right, strategy=strategy, package=_checked_package(steps)
    )
    assert len(steps) == len(result.trace) + 1
    assert result.max_nodes == max(steps)
    if pair == "qft3":
        assert result.max_nodes == 9  # paper Ex. 12


@pytest.mark.parametrize("pair", ["qft3", "qft4", "qft5"])
def test_construct_steps_match_the_oracle(pair):
    left, right = _PAIRS[pair]()
    steps = []
    result = check_equivalence_construct(left, right, package=_checked_package(steps))
    assert result.max_nodes == max(steps)
    assert result.max_nodes == {"qft3": 21, "qft4": 85, "qft5": 341}[pair]


def test_all_identity_product_shows_its_chain():
    """``U U^t`` is stored as a weighted terminal, yet it draws and
    serializes as the dense identity: a chain of ``n`` nodes."""
    package = DDPackage()
    num_qubits = 4
    functionality = circuit_to_dd(package, library.qft(num_qubits))
    product = package.multiply(functionality, package.adjoint(functionality))
    assert package._pooled.node_index(product.node) < 0  # stored: the terminal
    assert package.node_count(product) == num_qubits
    assert np.allclose(package.to_matrix(product), np.eye(1 << num_qubits))

    layout = compute_layout(package, product)
    assert [len(layer) for layer in layout.layers] == [1] * num_qubits
    assert dd_to_svg(package, product).count("<circle") >= num_qubits

    data = dd_to_dict(package, product)
    assert data["num_qubits"] == num_qubits
    assert sorted(node["var"] for node in data["nodes"]) == list(range(num_qubits))
    fresh = DDPackage()
    assert fresh.node_count(dd_from_dict(fresh, data)) == num_qubits
