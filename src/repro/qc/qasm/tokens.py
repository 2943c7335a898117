"""Lexer for OpenQASM 2.0.

One compiled pattern is matched at each position of the source: every
alternative consumes at least one character and the last one takes any
character, so the matches tile the text.  Identifiers, numbers, symbols
and whitespace are ASCII, as the OpenQASM 2.0 grammar specifies; comments
and string literals may hold any character.  Lines are counted only inside
whitespace, comment and string matches, the only ones that can span a
newline.
"""

from __future__ import annotations

import enum
import re
from typing import List, NamedTuple

from repro.errors import ParseError


class TokenType(enum.Enum):
    ID = "identifier"
    REAL = "real"
    INT = "integer"
    STRING = "string"
    SYMBOL = "symbol"
    EOF = "end of input"


class Token(NamedTuple):
    type: TokenType
    text: str
    line: int
    column: int


# One group per alternative: 1 whitespace and comments, 2 string, then
# the errors 3 open comment and 4 open string (ahead of the "/" symbol),
# 5 real, 6 int, 7 identifier, 8 symbol, and 9 any other character.
# Spaces and tabs before a token are consumed outside the groups.  A block
# comment ends at the first "*/" at or after its "/*", so "/*/" is a whole
# comment.  A number's exponent may have no digits ("1e"); the parser
# rejects such a literal with its position.
_PATTERN = re.compile(
    r"[ \t]*(?:"
    r"([ \t\r\n]+|//[^\n]*|/\*(?:/|[\s\S]*?\*/))"
    r'|("[^"]*")'
    r'|(/\*)|(")'
    r"|((?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]*)?|[0-9]+[eE][+-]?[0-9]*)"
    r"|([0-9]+)"
    r"|([A-Za-z_][A-Za-z0-9_]*)"
    r"|(->|==|[()\[\]{};,+\-*/^])"
    r"|([\s\S])"
    r")"
)
_SKIP, _STRING = 1, 2
_TYPES = (None, None, TokenType.STRING, None, None, TokenType.REAL,
          TokenType.INT, TokenType.ID, TokenType.SYMBOL, None)
_ERRORS = {3: "unterminated block comment", 4: "unterminated string literal"}


def tokenize(source: str) -> List[Token]:
    """Turn OpenQASM source text into a token list (ending with EOF)."""
    tokens: List[Token] = []
    append = tokens.append
    make = tuple.__new__  # skips the NamedTuple's Python-level __new__
    types = _TYPES
    line = 1
    line_start = 0  # index of the first character of the current line
    for match in _PATTERN.finditer(source):
        group = match.lastindex
        start = match.start(group)
        text = match.group(group)
        token_type = types[group]
        if token_type is not None:
            if group != _STRING:
                append(make(Token, (token_type, text, line, start - line_start + 1)))
                continue
            append(make(Token, (token_type, text[1:-1], line, start - line_start + 1)))
        elif group != _SKIP:
            message = _ERRORS.get(group) or f"unexpected character {text!r}"
            raise ParseError(message, line, start - line_start + 1)
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = start + text.rindex("\n") + 1
    append(Token(TokenType.EOF, "", line, len(source) - line_start + 1))
    return tokens
