"""Seeded mutation fuzzer for DD documents (standard library only).

Every mutated :func:`~repro.dd.serialize.dd_to_dict` document must either
load into a fresh package or raise a :class:`~repro.errors.ReproError`,
within ``PER_INPUT_SECONDS``.  Any other exception type fails the test, as
does a slower input.  Two mutation families run: structural edits of the
decoded document (``dd_from_dict``) and text edits of its JSON file
(``load_dd``).

The base seed rotates in CI (``DD_FUZZ_SEED``); reproduce a failure with
``DD_FUZZ_SEED=<seed> python -m pytest tests/test_dd_document_fuzz.py``.
"""

import copy
import json
import os
import random
import time

import pytest

from repro.dd import DDPackage
from repro.dd.serialize import dd_from_dict, dd_to_dict, load_dd
from repro.errors import ReproError
from repro.qc import library
from repro.qc.dd_builder import circuit_to_dd
from repro.simulation import DDSimulator

BASE_SEED = int(os.environ.get("DD_FUZZ_SEED", "0"))
PER_INPUT_SECONDS = 2.0
INPUTS_PER_DOCUMENT = 60

#: Replacement values: wrong types, boundary integers, non-finite floats
#: and fragments of valid documents in the wrong place.
VALUES = (
    None, True, False, -1, 0, 1, 2, 3, 7, 10**6, 2**63, -(2**63), 1e308,
    -1e308, 1e-320, float("nan"), float("inf"), "", "x", "zero", "matrix",
    "vector", [], {}, [1.0, 0.0], [0.0, 1e308], [1.0], [1.0, 0.0, 0.0],
    ["1", "0"], [0, 0, 1], [2, 1, 0], {"node": None, "weight": [1.0, 0.0]},
    {"node": 0, "weight": [0.5, 0.5]}, {"id": 0, "var": 0, "edges": []},
)

#: Single-character insertions for the JSON-text mutations.
TEXT_FRAGMENTS = '{}[],:"-.0123456789eE ' + "nulltruefalse"


#: A document written under a non-identity variable order (level k hosts
#: qubit ``order[k]``), which the loader refuses: |+>|0>|1> over three
#: qubits with levels 0 and 1 swapped.
REORDERED_DOCUMENT = {
    "format": 1,
    "kind": "vector",
    "num_qubits": 3,
    "order": [1, 0, 2],
    "root": {"node": 2, "weight": [1.0, 0.0]},
    "nodes": [
        {"id": 0, "var": 0, "edges": ["zero", {"node": None, "weight": [1.0, 0.0]}]},
        {"id": 1, "var": 1, "edges": [{"node": 0, "weight": [1.0, 0.0]}, "zero"]},
        {"id": 2, "var": 2, "edges": [
            {"node": 1, "weight": [0.7071067811865475, 0.0]},
            {"node": 1, "weight": [0.7071067811865475, 0.0]},
        ]},
    ],
}


def documents():
    """Valid vector and matrix documents, plus one with a foreign order."""
    docs = []
    package = DDPackage()
    docs.append(dd_to_dict(package, package.from_state_vector([0.6, 0.0, 0.0, 0.8j])))
    docs.append(dd_to_dict(package, circuit_to_dd(package, library.qft(3))))
    docs.append(dd_to_dict(package, package.identity(3)))
    gate = package.single_qubit_gate(4, [[0, 1], [1, 0]], 1)
    docs.append(dd_to_dict(package, gate))
    simulator = DDSimulator(library.random_circuit(4, 30, seed=2), package=package)
    simulator.run_all()
    docs.append(dd_to_dict(package, simulator.state))
    docs.append(copy.deepcopy(REORDERED_DOCUMENT))
    return docs


def _containers(data, path=()):
    """Every ``(path, container)`` inside a decoded document."""
    found = [(path, data)]
    items = data.items() if isinstance(data, dict) else enumerate(data)
    for key, value in items:
        if isinstance(value, (dict, list)):
            found.extend(_containers(value, path + (key,)))
    return found


def mutate_document(data, rng, edits=3):
    """``data`` (a deep copy) with 1..``edits`` structural edits: replaced,
    deleted, duplicated, swapped or inserted values at random places."""
    data = copy.deepcopy(data)
    for _ in range(rng.randint(1, edits)):
        _path, container = rng.choice(_containers(data))
        keys = list(container) if isinstance(container, dict) else list(
            range(len(container))
        )
        choice = rng.random()
        if not keys or choice < 0.1:
            value = copy.deepcopy(rng.choice(VALUES))
            if isinstance(container, dict):
                container[rng.choice(("id", "var", "node", "edges", "x"))] = value
            else:
                container.insert(rng.randint(0, len(container)), value)
            continue
        key = rng.choice(keys)
        if choice < 0.55:
            container[key] = copy.deepcopy(rng.choice(VALUES))
        elif choice < 0.7:
            del container[key]
        elif choice < 0.85 and isinstance(container, list):
            container.insert(key, copy.deepcopy(container[key]))
        else:
            other = rng.choice(keys)
            container[key], container[other] = container[other], container[key]
    return data


def mutate_text(text, rng, edits=3):
    """``text`` with 1..``edits`` character insertions, span deletions,
    span duplications or a truncation."""
    for _ in range(rng.randint(1, edits)):
        position = rng.randint(0, len(text))
        span = rng.randint(1, 12)
        choice = rng.random()
        if choice < 0.35:
            text = text[:position] + rng.choice(TEXT_FRAGMENTS) + text[position:]
        elif choice < 0.7:
            text = text[:position] + text[position + span:]
        elif choice < 0.9:
            text = text[:position] + text[position:position + span] * 2 + text[position:]
        else:
            text = text[:position]
    return text


def _check(load, label, shown):
    start = time.perf_counter()
    try:
        load()
    except ReproError:
        pass
    except Exception as error:  # anything else is a loader bug
        pytest.fail(f"{label}: {type(error).__name__}: {error}; input {shown!r}")
    elapsed = time.perf_counter() - start
    assert elapsed < PER_INPUT_SECONDS, f"{label}: {elapsed:.2f} s; input {shown!r}"


def test_mutated_documents_load_or_raise_repro_error():
    for number, document in enumerate(documents()):
        rng = random.Random(BASE_SEED * 1_000_003 + number)
        for index in range(INPUTS_PER_DOCUMENT):
            mutated = mutate_document(document, rng)
            _check(
                lambda: dd_from_dict(DDPackage(), mutated),
                f"DD_FUZZ_SEED={BASE_SEED}, document {number}, input {index}",
                mutated,
            )


def test_mutated_files_load_or_raise_repro_error(tmp_path):
    path = tmp_path / "mutated.dd.json"
    for number, document in enumerate(documents()):
        rng = random.Random(BASE_SEED * 1_000_003 + number + 500_000)
        text = json.dumps(document)
        for index in range(INPUTS_PER_DOCUMENT):
            mutated = mutate_text(text, rng)
            path.write_text(mutated, encoding="utf-8")
            _check(
                lambda: load_dd(DDPackage(), str(path)),
                f"DD_FUZZ_SEED={BASE_SEED}, document {number}, text input {index}",
                mutated,
            )
