"""Tokenizer for the agent-definition language.

Hand-rolled scanner producing a flat token list.  Every token carries the
1-based line/column where it starts; whitespace and comments (``//`` to end of
line, ``/* ... */``) are dropped.
"""

from __future__ import annotations

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


_SINGLE = {
    "+": TokenType.PLUS,
    "-": TokenType.MINUS,
    "!": TokenType.BANG,
    "@": TokenType.AT,
    "&": TokenType.AMP,
    ":": TokenType.COLON,
    ";": TokenType.SEMICOLON,
    ",": TokenType.COMMA,
    ".": TokenType.DOT,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "{": TokenType.LBRACE,
    "}": TokenType.RBRACE,
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
}

_KEYWORDS = {"not": TokenType.NOT}


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_part(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def tokenize(text: str) -> list[Token]:
    """Scan *text* into a token list ending with an EOF token.

    Raises
    ------
    LexError
        On any character that cannot start a token, with its line/col.
    """
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def advance(k: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance()
            continue
        if ch == "/" and text[i : i + 2] == "//":
            while i < n and text[i] != "\n":
                advance()
            continue
        if ch == "/" and text[i : i + 2] == "/*":
            start_line, start_col = line, col
            advance(2)
            while i < n and text[i : i + 2] != "*/":
                advance()
            if i >= n:
                raise LexError("unterminated block comment", start_line, start_col)
            advance(2)
            continue

        start_line, start_col = line, col

        if ch == "<" and text[i : i + 2] == "<-":
            tokens.append(Token(TokenType.ARROW, "<-", start_line, start_col))
            advance(2)
            continue

        if ch == '"':
            advance()
            buf: list[str] = []
            while i < n and text[i] != '"':
                if text[i] == "\\" and i + 1 < n and text[i + 1] in ('"', "\\"):
                    buf.append(text[i + 1])
                    advance(2)
                else:
                    buf.append(text[i])
                    advance()
            if i >= n:
                raise LexError("unterminated string", start_line, start_col)
            advance()  # closing quote
            tokens.append(Token(TokenType.STRING, "".join(buf), start_line, start_col))
            continue

        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdecimal():
                j += 1
                while j < n and text[j].isdecimal():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdecimal():
                    j = k
                    while j < n and text[j].isdecimal():
                        j += 1
            value = text[i:j]
            advance(j - i)
            tokens.append(Token(TokenType.NUMBER, value, start_line, start_col))
            continue

        if _is_ident_start(ch):
            j = i
            while j < n and _is_ident_part(text[j]):
                j += 1
            value = text[i:j]
            advance(j - i)
            ttype = _KEYWORDS.get(value, TokenType.IDENT)
            tokens.append(Token(ttype, value, start_line, start_col))
            continue

        if ch in _SINGLE:
            tokens.append(Token(_SINGLE[ch], ch, start_line, start_col))
            advance()
            continue

        raise LexError(f"unexpected character {ch!r}", start_line, start_col)

    tokens.append(Token(TokenType.EOF, "", line, col))
    return tokens
