"""Unit tests for the OpenQASM lexer, and a differential test against the
character-at-a-time reference lexer it replaced.

The differential base seed rotates in CI (``QASM_FUZZ_SEED``); reproduce a
failure with ``QASM_FUZZ_SEED=<seed> python -m pytest tests/test_qasm_lexer.py``.
"""

import glob
import os
import random
import string

import pytest

from repro.errors import CircuitError, ParseError
from repro.qc import library
from repro.qc.qasm.tokens import TokenType, tokenize

BASE_SEED = int(os.environ.get("QASM_FUZZ_SEED", "0"))
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _texts(source):
    return [(t.type, t.text) for t in tokenize(source) if t.type != TokenType.EOF]


class TestTokens:
    def test_identifiers_and_symbols(self):
        tokens = _texts("qreg q[3];")
        assert tokens == [
            (TokenType.ID, "qreg"),
            (TokenType.ID, "q"),
            (TokenType.SYMBOL, "["),
            (TokenType.INT, "3"),
            (TokenType.SYMBOL, "]"),
            (TokenType.SYMBOL, ";"),
        ]

    def test_arrow_and_equality(self):
        tokens = _texts("-> == -")
        assert [t[1] for t in tokens] == ["->", "==", "-"]

    def test_reals_and_ints(self):
        tokens = _texts("3 3.5 .5 2e3 1.5e-2")
        kinds = [t[0] for t in tokens]
        assert kinds == [
            TokenType.INT,
            TokenType.REAL,
            TokenType.REAL,
            TokenType.REAL,
            TokenType.REAL,
        ]

    def test_string_literal(self):
        tokens = _texts('include "qelib1.inc";')
        assert (TokenType.STRING, "qelib1.inc") in tokens

    def test_line_comment_skipped(self):
        tokens = _texts("x // comment with ; tokens\ny")
        assert [t[1] for t in tokens] == ["x", "y"]

    def test_block_comment_skipped(self):
        tokens = _texts("x /* multi\nline */ y")
        assert [t[1] for t in tokens] == ["x", "y"]

    def test_unterminated_block_comment(self):
        with pytest.raises(ParseError):
            tokenize("/* never closed")

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize('include "broken')

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            tokenize("x @ y")

    def test_positions_tracked(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].line == 1 and tokens[0].column == 1
        assert tokens[1].line == 2 and tokens[1].column == 3

    def test_ends_with_eof(self):
        tokens = tokenize("x")
        assert tokens[-1].type is TokenType.EOF

    def test_underscore_identifiers(self):
        tokens = _texts("my_gate _x")
        assert [t[1] for t in tokens] == ["my_gate", "_x"]


    def test_block_comment_closed_by_its_own_star(self):
        # The comment ends at the first "*/" at or after its "/*".
        assert [t[1] for t in _texts("x /*/ y")] == ["x", "y"]

    def test_exponent_without_digits_is_one_token(self):
        assert _texts("1e 1.5e+") == [(TokenType.REAL, "1e"), (TokenType.REAL, "1.5e+")]

    def test_lines_counted_inside_strings_and_comments(self):
        tokens = tokenize('"a\nb" /* \n\n */ x\n  y')
        assert [(t.text, t.line, t.column) for t in tokens] == [
            ("a\nb", 1, 1), ("x", 4, 5), ("y", 5, 3), ("", 5, 4),
        ]

    @pytest.mark.parametrize("source", ["qreg q\u00e9[1];", "qreg q[\u00b2];", "x \u0663"])
    def test_non_ascii_outside_comments_rejected(self, source):
        with pytest.raises(ParseError, match="unexpected character"):
            tokenize(source)

    def test_non_ascii_inside_comments_and_strings_accepted(self):
        assert _texts('// caf\u00e9\n"\u00b2" /* \u00e9 */') == [(TokenType.STRING, "\u00b2")]


# ----------------------------------------------------------------------
# differential test against the reference lexer
# ----------------------------------------------------------------------
_SYMBOLS = ("->", "==", "(", ")", "[", "]", "{", "}", ";", ",", "+", "-",
            "*", "/", "^")


def reference_scan(source):
    """The former lexer, one character per step: yields ``(type, text,
    line, column)`` tuples ending with EOF, or raises ParseError."""
    position = 0
    line = 1
    column = 1
    length = len(source)

    def advance(count):
        nonlocal position, line, column
        for _ in range(count):
            if position < length and source[position] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            position += 1

    while position < length:
        char = source[position]
        if char in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", position):
            end = source.find("\n", position)
            advance((end - position) if end != -1 else (length - position))
            continue
        if source.startswith("/*", position):
            end = source.find("*/", position)
            if end == -1:
                raise ParseError("unterminated block comment", line, column)
            advance(end + 2 - position)
            continue
        if char == '"':
            end = source.find('"', position + 1)
            if end == -1:
                raise ParseError("unterminated string literal", line, column)
            yield (TokenType.STRING, source[position + 1:end], line, column)
            advance(end + 1 - position)
            continue
        if char.isdigit() or (
            char == "." and position + 1 < length and source[position + 1].isdigit()
        ):
            start = position
            start_line, start_column = line, column
            seen_dot = False
            seen_exp = False
            scan = position
            while scan < length:
                current = source[scan]
                if current.isdigit():
                    scan += 1
                elif current == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    scan += 1
                elif current in "eE" and not seen_exp and scan > start:
                    seen_exp = True
                    scan += 1
                    if scan < length and source[scan] in "+-":
                        scan += 1
                else:
                    break
            kind = TokenType.REAL if (seen_dot or seen_exp) else TokenType.INT
            yield (kind, source[start:scan], start_line, start_column)
            advance(scan - position)
            continue
        if char.isalpha() or char == "_":
            start = position
            start_line, start_column = line, column
            scan = position
            while scan < length and (source[scan].isalnum() or source[scan] == "_"):
                scan += 1
            yield (TokenType.ID, source[start:scan], start_line, start_column)
            advance(scan - position)
            continue
        for symbol in _SYMBOLS:
            if source.startswith(symbol, position):
                yield (TokenType.SYMBOL, symbol, line, column)
                advance(len(symbol))
                break
        else:
            raise ParseError(f"unexpected character {char!r}", line, column)
    yield (TokenType.EOF, "", line, column)


#: Hand-written texts for the corners of the token grammar.
EDGE_CASES = (
    'OPENQASM 2.0;\n/* a\nblock */ qreg q[1]; // tail',
    "x /*/ y /**/ z /* * / */ w",
    "1e 1.5e+ 2E-3 .5 3. 4.e5 1.2.3 1e5.3 1ee 7e+-2 ..5",
    'include "multi\nline";\n"" x',
    "a->b==c\t\r\n-=> ___ _1a a_1 9a",
    "rz(-(pi/2)^-1.5e-3*sqrt(2)) q[0];",
)


def qasm_corpus():
    """The QASM files under tests/data, the OpenQASM exports of the library
    circuits (those with a 2.0 representation) and ``EDGE_CASES``."""
    texts = []
    for path in sorted(glob.glob(os.path.join(DATA_DIR, "*.qasm"))):
        with open(path, encoding="utf-8") as handle:
            texts.append(handle.read())
    circuits = [
        library.bell_pair(), library.ghz_state(4), library.w_state(3),
        library.qft(4), library.qft_compiled(4), library.qft_inverse(3),
        library.grover(2, 1), library.grover(3, 5),
        library.bernstein_vazirani("1011"), library.phase_estimation(3, 0.25),
        library.deutsch_jozsa(3, 5), library.deutsch_jozsa(3),
    ] + [library.random_circuit(5, 40, seed=seed) for seed in range(4)]
    for circuit in circuits:
        try:
            texts.append(circuit.to_qasm())
        except CircuitError:  # e.g. a doubly controlled Z
            continue
    return texts + list(EDGE_CASES)


#: Fragments a mutation may insert: token boundaries the grammar cares about.
_FRAGMENTS = ("/*", "*/", "//", '"', "\n", "e", "E", ".", "+", "-", "0", "9",
              "(", ")", ";", "[", "]", "{", "}", "->", "==", "=", "^", "pi",
              "sqrt(", "\t", "\r", "\x0b", "\x0c", "_", ",")


def mutate(text, rng, edits=3, fragments=None):
    """``text`` with 1..``edits`` random ASCII insertions (of ``fragments``,
    by default QASM token boundaries, or single characters), deletions,
    duplications and replacements."""
    fragments = fragments or _FRAGMENTS
    for _ in range(rng.randint(1, edits)):
        position = rng.randint(0, len(text))
        choice = rng.random()
        if choice < 0.3:
            fragment = rng.choice(fragments) if rng.random() < 0.7 else rng.choice(string.printable)
            text = text[:position] + fragment + text[position:]
        elif choice < 0.55:
            text = text[:position] + text[position + rng.randint(1, 8):]
        elif choice < 0.75:
            end = min(len(text), position + rng.randint(1, 40))
            text = text[:end] + text[position:end] + text[end:]
        else:
            text = text[:position] + rng.choice(string.printable) + text[position + 1:]
    return text


def _outcome(lexer, text):
    try:
        return [tuple(token) for token in lexer(text)]
    except ParseError as error:
        return str(error)


class TestAgainstReferenceLexer:
    MUTATIONS_PER_TEXT = 60

    def test_corpus_streams_match(self):
        corpus = qasm_corpus()
        assert len(corpus) >= 20
        for text in corpus:
            assert _outcome(tokenize, text) == _outcome(reference_scan, text), text

    def test_mutated_streams_match(self):
        for number, text in enumerate(qasm_corpus()):
            rng = random.Random(BASE_SEED * 1_000_003 + number)
            for _ in range(self.MUTATIONS_PER_TEXT):
                mutated = mutate(text, rng)
                assert _outcome(tokenize, mutated) == _outcome(reference_scan, mutated), (
                    f"QASM_FUZZ_SEED={BASE_SEED}, corpus text {number}: {mutated!r}"
                )
