"""Tokenizer for the agent-definition language.

One compiled pattern is matched at each position of the text; it has one
alternative per token shape, and ``_string_end`` scans a string's body.
Every token carries the 1-based line/column where it starts; whitespace and
comments (``//`` to end of line, ``/* ... */``) are dropped.  A word starts
with a letter (``str.isalpha``) or ``_`` and goes on with letters, digits
(``str.isalnum``) and ``_``; numbers are written with decimal digits
(``str.isdecimal``).  In a string, only ``\\"`` and ``\\\\`` are escapes; any
other backslash is kept as is.
"""

from __future__ import annotations

import re
from enum import Enum

from ..record import Frozen
from .errors import LexError


class TokenType(Enum):
    IDENT = "IDENT"
    NUMBER = "NUMBER"
    STRING = "STRING"
    NOT = "NOT"
    PLUS = "+"
    MINUS = "-"
    BANG = "!"
    AT = "@"
    AMP = "&"
    COLON = ":"
    SEMICOLON = ";"
    COMMA = ","
    DOT = "."
    ARROW = "<-"
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    EOF = "EOF"


class Token(Frozen):
    __slots__ = _fields = ("type", "value", "line", "col")

    def __init__(self, type: TokenType, value: str, line: int, col: int) -> None:
        _set = object.__setattr__
        _set(self, "type", type)
        _set(self, "value", value)
        _set(self, "line", line)
        _set(self, "col", col)

    def __repr__(self) -> str:  # keeps pytest diffs readable
        return f"{self.type.name}({self.value!r}@{self.line}:{self.col})"


_SINGLE = {t.value: t for t in TokenType if len(t.value) == 1}

# In a str pattern \d is str.isdecimal and \w is str.isalnum or "_".  The
# pattern matches only a string's opening quote; ``_string_end`` finds the
# rest, since a pattern with one repeat per escape keeps one backtracking
# state per escape (about 140 MB for 1 MB of escaped quotes on CPython 3.11).
_TOKEN = re.compile(
    r"""
      (?P<skip> [ \t\r\n]+ | //[^\n]* | /\*[\s\S]*?\*/ )
    | (?P<arrow> <- )
    | (?P<string> " )
    | (?P<number> \d+ (?: \.\d+ )? (?: [eE][+-]?\d+ )? )
    | (?P<word> \w+ )
    | (?P<single> [-+!@&:;,.(){}\[\]] )
    """,
    re.VERBOSE,
)
_ESCAPE = re.compile(r'\\(["\\])')


def _string_end(text: str, start: int) -> int:
    """Index of the quote closing the string whose body starts at *start*,
    or -1.  Backslashes pair up from the left, so a quote closes the string
    when an even run of backslashes (none counts) comes before it."""
    while True:
        end = text.find('"', start)
        if end < 0:
            return end
        before = text[start:end]  # holds the whole backslash run before *end*
        if (len(before) - len(before.rstrip("\\"))) % 2 == 0:
            return end
        start = end + 1


def tokenize(text: str) -> list[Token]:
    """Scan *text* into a token list ending with an EOF token.

    Raises
    ------
    LexError
        On any character that cannot start a token, and on an unterminated
        string or block comment (at its opening ``"`` or ``/*``), with its
        line/col.
    """
    tokens: list[Token] = []
    match = _TOKEN.match
    pos, line, line_start, n = 0, 1, 0, len(text)
    while pos < n:
        col = pos - line_start + 1
        m = match(text, pos)
        if m is None:
            if text.startswith("/*", pos):
                raise LexError("unterminated block comment", line, col)
            raise LexError(f"unexpected character {text[pos]!r}", line, col)
        kind, value, end = m.lastgroup, m[m.lastgroup], m.end()
        if kind == "word":
            if not (value[0].isalpha() or value[0] == "_"):
                raise LexError(f"unexpected character {value[0]!r}", line, col)
            tokens.append(Token(TokenType.NOT if value == "not" else TokenType.IDENT, value, line, col))
        elif kind == "single":
            tokens.append(Token(_SINGLE[value], value, line, col))
        elif kind == "number":
            tokens.append(Token(TokenType.NUMBER, value, line, col))
        elif kind == "arrow":
            tokens.append(Token(TokenType.ARROW, value, line, col))
        else:  # skip or string: the only shapes that can span a newline
            if kind == "string":
                close = _string_end(text, end)
                if close < 0:
                    raise LexError("unterminated string", line, col)
                tokens.append(Token(TokenType.STRING, _ESCAPE.sub(r"\1", text[end:close]), line, col))
                end = close + 1
            newlines = text.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, end) + 1
        pos = end
    tokens.append(Token(TokenType.EOF, "", line, n - line_start + 1))
    return tokens
