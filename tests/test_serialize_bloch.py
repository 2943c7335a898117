"""Unit tests for DD serialization and the Bloch-sphere views."""

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from repro.dd import DDPackage
from repro.dd.edge import ZERO_EDGE
from repro.dd.serialize import dd_from_dict, dd_to_dict, load_dd, save_dd
from repro.errors import DDError, VisualizationError
from repro.qc import library
from repro.qc.dd_builder import circuit_to_dd
from repro.simulation import DDSimulator
from repro.vis.bloch import (
    all_bloch_vectors,
    bloch_svg,
    bloch_vector_of_matrix,
    qubit_bloch_vector,
)
from tests.conftest import random_state

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestSerialization:
    def test_vector_roundtrip(self, package, rng):
        vector = random_state(3, rng)
        state = package.from_state_vector(vector)
        data = dd_to_dict(package, state)
        fresh = DDPackage()
        rebuilt = dd_from_dict(fresh, data)
        assert np.allclose(fresh.to_vector(rebuilt, 3), vector, atol=1e-9)

    def test_matrix_roundtrip(self, package):
        functionality = circuit_to_dd(package, library.qft(3))
        data = dd_to_dict(package, functionality)
        fresh = DDPackage()
        rebuilt = dd_from_dict(fresh, data)
        assert np.allclose(
            fresh.to_matrix(rebuilt, 3), package.to_matrix(functionality, 3)
        )

    def test_roundtrip_restores_canonicity(self, package):
        """Reloading into the same package yields the identical root node."""
        functionality = circuit_to_dd(package, library.qft(3))
        rebuilt = dd_from_dict(package, dd_to_dict(package, functionality))
        assert rebuilt.node is functionality.node
        assert package.complex_table.approx_equal(
            rebuilt.weight, functionality.weight
        )

    def test_sharing_preserved_in_document(self, package):
        state = package.from_state_vector([0.5, 0.5, 0.5, 0.5])
        data = dd_to_dict(package, state)
        # |+>|+> has one shared bottom node: 2 nodes total in the document.
        assert len(data["nodes"]) == 2

    def test_document_is_json_serializable(self, package):
        state = package.from_state_vector([INV_SQRT2, 0, 0, INV_SQRT2])
        text = json.dumps(dd_to_dict(package, state))
        rebuilt = dd_from_dict(package, json.loads(text))
        assert rebuilt.node is state.node

    def test_file_roundtrip(self, package, tmp_path):
        state = package.from_state_vector([INV_SQRT2, 0, 0, INV_SQRT2])
        path = tmp_path / "bell.dd.json"
        save_dd(package, state, str(path))
        rebuilt = load_dd(package, str(path))
        assert rebuilt.node is state.node

    def test_zero_dd_rejected(self, package):
        with pytest.raises(DDError):
            dd_to_dict(package, ZERO_EDGE)

    def test_bad_format_version(self, package):
        with pytest.raises(DDError):
            dd_from_dict(package, {"format": 99})

    def test_bad_kind(self, package):
        with pytest.raises(DDError):
            dd_from_dict(package, {"format": 1, "kind": "tensor", "nodes": []})

    def test_forward_reference_rejected(self, package):
        data = {
            "format": 1,
            "kind": "vector",
            "num_qubits": 1,
            "root": {"node": 0, "weight": [1.0, 0.0]},
            "nodes": [
                {"id": 0, "var": 1,
                 "edges": [{"node": 7, "weight": [1.0, 0.0]}, "zero"]},
            ],
        }
        with pytest.raises(DDError):
            dd_from_dict(package, data)


def _qft3_document():
    package = DDPackage()
    return dd_to_dict(package, circuit_to_dd(package, library.qft(3)))


def _set(path, value):
    """A mutation writing ``value`` at ``path`` (keys and list indices)."""

    def mutate(data):
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return mutate


def _delete(key):
    def mutate(data):
        del data[key]

    return mutate


#: Malformed documents, each a mutation of a valid 3-qubit QFT document.
#: Each once failed with a KeyError/TypeError/ValueError or was accepted.
_MALFORMED = {
    "missing-nodes": _delete("nodes"),
    "three-element-weight": _set(("nodes", 0, "edges", 0, "weight"), [1.0, 0.0, 0.0]),
    "string-weight": _set(("nodes", 0, "edges", 0, "weight"), "1+0j"),
    "int-edge": _set(("nodes", 0, "edges", 0), 5),
    "string-var": _set(("nodes", 0, "var"), "x"),
    "three-edges": _set(("nodes", 0, "edges"), ["zero", "zero", "zero"]),
    "nan-weight": _set(("root", "weight"), [float("nan"), 0.0]),
    "huge-var": _set(("nodes", 0, "var"), 1000000),
    "child-not-below-parent": _set(("nodes", 0, "var"), 2),
    "order-not-a-permutation": _set(("order",), [0, 0, 1]),
    "order-not-identity": _set(("order",), [1, 0, 2]),
    "null-root": _set(("root", "node"), None),
    "root-below-top": lambda data: data.update(num_qubits=4, order=[0, 1, 2, 3]),
    "duplicate-id": _set(("nodes", 1, "id"), 0),
    "bool-num-qubits": _set(("num_qubits",), True),
}


class TestDocumentValidation:
    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_malformed_document_is_a_dd_error(self, case):
        data = _qft3_document()
        _MALFORMED[case](data)
        package = DDPackage()
        with pytest.raises(DDError):
            dd_from_dict(package, data)
        # A refused document is refused before the package is touched.
        assert len(package._vector_unique) == len(package._matrix_unique) == 0

    def test_the_unmutated_document_loads(self):
        package = DDPackage()
        rebuilt = dd_from_dict(package, _qft3_document())
        assert package.node_count(rebuilt) == 21

    def test_non_object_document(self, package):
        with pytest.raises(DDError):
            dd_from_dict(package, [1, 2, 3])

    def test_load_dd_rejects_non_json(self, package, tmp_path):
        path = tmp_path / "broken.dd.json"
        path.write_text('{"format": 1, "kind": ')
        with pytest.raises(DDError):
            load_dd(package, str(path))


class TestBlochVectors:
    def test_cardinal_states(self, package):
        cases = [
            ([1.0, 0.0], (0.0, 0.0, 1.0)),
            ([0.0, 1.0], (0.0, 0.0, -1.0)),
            ([INV_SQRT2, INV_SQRT2], (1.0, 0.0, 0.0)),
            ([INV_SQRT2, -INV_SQRT2], (-1.0, 0.0, 0.0)),
            ([INV_SQRT2, 1j * INV_SQRT2], (0.0, 1.0, 0.0)),
            ([INV_SQRT2, -1j * INV_SQRT2], (0.0, -1.0, 0.0)),
        ]
        for amplitudes, expected in cases:
            state = package.from_state_vector(amplitudes)
            vector = qubit_bloch_vector(package, state, 0)
            assert np.allclose(vector, expected, atol=1e-9), amplitudes

    def test_entangled_qubit_has_zero_vector(self, package):
        """Paper Ex. 1: an entangled qubit has no pure local description —
        its Bloch vector vanishes."""
        state = package.from_state_vector([INV_SQRT2, 0, 0, INV_SQRT2])
        for qubit in (0, 1):
            vector = qubit_bloch_vector(package, state, qubit)
            assert np.allclose(vector, (0, 0, 0), atol=1e-9)

    def test_vector_length_bounded(self, package, rng):
        state = package.from_state_vector(random_state(3, rng))
        for x, y, z in all_bloch_vectors(package, state):
            assert x * x + y * y + z * z <= 1.0 + 1e-9

    def test_density_input(self, package):
        from repro.dd import density

        rho = density.maximally_mixed(package, 1)
        vector = qubit_bloch_vector(package, rho, 0, is_density=True)
        assert np.allclose(vector, (0, 0, 0))

    def test_matrix_shape_validated(self):
        with pytest.raises(VisualizationError):
            bloch_vector_of_matrix(np.eye(4))


class TestBlochSvg:
    def test_valid_xml(self):
        svg = bloch_svg([(0.0, 0.0, 1.0)])
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_one_sphere_per_vector(self, package):
        simulator = DDSimulator(library.ghz_state(3), package=package)
        simulator.run_all()
        svg = bloch_svg(all_bloch_vectors(package, simulator.state))
        assert svg.count('r="60.0"') == 3

    def test_labels_and_length(self):
        svg = bloch_svg([(1.0, 0.0, 0.0)], labels=["psi"])
        assert "psi" in svg
        assert "|r| = 1.00" in svg

    def test_requires_vectors(self):
        with pytest.raises(VisualizationError):
            bloch_svg([])
