"""Tokenizer for the agent-definition language.

One compiled pattern is matched at each position of the text; it has one
alternative per token shape.  Every token carries the 1-based line/column
where it starts; whitespace and comments (``//`` to end of line,
``/* ... */``) are dropped.  A word starts with a letter (``str.isalpha``)
or ``_`` and goes on with letters, digits (``str.isalnum``) and ``_``;
numbers are written with decimal digits (``str.isdecimal``).  In a string,
only ``\\"`` and ``\\\\`` are escapes; any other backslash is kept as is.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

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


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: str
    line: int
    col: int

    def __repr__(self) -> str:  # keeps pytest diffs readable
        return f"{self.type.name}({self.value!r}@{self.line}:{self.col})"


_SINGLE = {t.value: t for t in TokenType if len(t.value) == 1}

# In a str pattern \d is str.isdecimal and \w is str.isalnum or "_".  A
# string is runs of plain characters between backslashes, each backslash
# either an escape or a lone one that no quote or backslash follows, so
# backtracking can never end a string at an escaped quote, and a long
# string costs the matcher no stack.
_TOKEN = re.compile(
    r"""
      (?P<skip> [ \t\r\n]+ | //[^\n]* | /\*[\s\S]*?\*/ )
    | (?P<arrow> <- )
    | "(?P<string> [^"\\]* (?: (?: \\["\\] | \\(?!["\\]) ) [^"\\]* )* )"
    | (?P<number> \d+ (?: \.\d+ )? (?: [eE][+-]?\d+ )? )
    | (?P<word> \w+ )
    | (?P<single> [-+!@&:;,.(){}\[\]] )
    """,
    re.VERBOSE,
)
_ESCAPE = re.compile(r'\\(["\\])')


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
            if text[pos] == '"':
                raise LexError("unterminated string", line, col)
            if text.startswith("/*", pos):
                raise LexError("unterminated block comment", line, col)
            raise LexError(f"unexpected character {text[pos]!r}", line, col)
        kind, value = m.lastgroup, m[m.lastgroup]
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
                tokens.append(Token(TokenType.STRING, _ESCAPE.sub(r"\1", value), line, col))
            newlines = text.count("\n", pos, m.end())
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, m.end()) + 1
        pos = m.end()
    tokens.append(Token(TokenType.EOF, "", line, n - line_start + 1))
    return tokens
