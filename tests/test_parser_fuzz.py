"""Seeded mutation fuzzer for the circuit parsers (standard library only).

Every mutated OpenQASM or RevLib ``.real`` text must either parse or raise
a :class:`~repro.errors.ReproError`, within ``PER_INPUT_SECONDS``.  Any
other exception type fails the test, as does a slower input.

The base seed rotates in CI (``QASM_FUZZ_SEED``); reproduce a failure with
``QASM_FUZZ_SEED=<seed> python -m pytest tests/test_parser_fuzz.py``.
"""

import random
import re
import time

import pytest

from repro.errors import ReproError
from repro.qc import QuantumCircuit
from repro.qc.qasm import parse_qasm
from repro.qc.real_exporter import circuit_to_real
from repro.qc.real_format import parse_real
from tests.test_qasm_lexer import BASE_SEED, mutate, qasm_corpus

PER_INPUT_SECONDS = 2.0
INPUTS_PER_TEXT = 40

#: Fragments for ``.real`` mutations: directives, gate names, markers.
REAL_FRAGMENTS = (".numvars ", ".variables ", ".constants ", ".begin\n", ".end\n",
                  ".garbage ", "t1 ", "t3 ", "f2 ", "f3 ", "v ", "v+ ", "p3 ", "t0 ",
                  "-", "#", "\n", " ", "0", "1", "9", "a ", "b ", "c ")


def grow(text, rng):
    """Structural edits on top of ``mutate``: long digit runs (huge sizes
    and indices), repeated lines (long expansions) and swapped lines
    (declarations after their use)."""
    choice = rng.random()
    lines = text.split("\n")
    if choice < 0.35:
        digits = [match.end() for match in re.finditer(r"[0-9]", text)]
        if digits:
            position = rng.choice(digits)
            text = text[:position] + "9" * rng.randint(1, 12) + text[position:]
    elif choice < 0.7 and lines:
        index = rng.randrange(len(lines))
        lines[index:index + 1] = [lines[index]] * rng.randint(2, 400)
        text = "\n".join(lines)
    elif len(lines) > 1:
        a, b = rng.randrange(len(lines)), rng.randrange(len(lines))
        lines[a], lines[b] = lines[b], lines[a]
        text = "\n".join(lines)
    return text


def real_corpus():
    """Hand-written ``.real`` texts and the exports of seeded reversible
    circuits."""
    header = ".version 2.0\n.numvars 3\n.variables a b c\n"
    texts = [
        header + ".begin\nt3 a b c\nt2 a b\nt1 a\n.end\n",
        header + ".constants 0-1\n.garbage --1\n.begin\nf3 a b c\nv b c\nv+ a c\n.end\n",
        header + ".begin\np3 a b c\nt2 -a b\nf2 a c # swap\n.end\n",
        ".numvars 2\n.begin\nt2 x0 x1\n.end\n",
    ]
    for seed in range(4):
        rng = random.Random(seed)
        circuit = QuantumCircuit(4)
        for _ in range(12):
            lines = rng.sample(range(4), 3)
            rng.choice([
                lambda: circuit.x(lines[0]),
                lambda: circuit.cx(lines[0], lines[1]),
                lambda: circuit.ccx(lines[0], lines[1], lines[2]),
                lambda: circuit.swap(lines[0], lines[1]),
            ])()
        texts.append(circuit_to_real(circuit))
    return texts


def _check(parse, text, label):
    start = time.perf_counter()
    try:
        parse(text)
    except ReproError:
        pass
    except Exception as error:  # anything else is a parser bug
        pytest.fail(f"{label}: {type(error).__name__}: {error}; input {text!r}")
    elapsed = time.perf_counter() - start
    assert elapsed < PER_INPUT_SECONDS, f"{label}: {elapsed:.2f} s; input {text!r}"


@pytest.mark.parametrize("parse, corpus, fragments", [
    (parse_qasm, qasm_corpus, None),
    (parse_real, real_corpus, REAL_FRAGMENTS),
], ids=["qasm", "real"])
def test_mutated_inputs_parse_or_raise_repro_error(parse, corpus, fragments):
    for number, text in enumerate(corpus()):
        rng = random.Random(BASE_SEED * 1_000_003 + number)
        for index in range(INPUTS_PER_TEXT):
            mutated = mutate(text, rng, fragments=fragments)
            if rng.random() < 0.5:
                mutated = grow(mutated, rng)
            _check(parse, mutated,
                   f"QASM_FUZZ_SEED={BASE_SEED}, corpus text {number}, input {index}")
