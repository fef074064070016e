"""Shared lexer for the Java/C# grammar subset.

Produces name, number, string, char and punctuation tokens with byte spans.
Comments and C# preprocessor directives are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Tok:
    kind: str  # name | num | str | char | punct
    text: str
    start: int
    end: int
    line: int
    col: int


_TWO_CHAR_OPS = {
    "==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=",
    "%=", "&=", "|=", "^=", "->", "=>", "::", "??", "?.",
}


# quote -> token kind and the name an unterminated literal is reported by
_QUOTES = {'"': ("str", "string"), "'": ("char", "char literal")}


def _is_name_start(c: str) -> bool:
    return c.isalpha() or c in "_$"


def _is_name_char(c: str) -> bool:
    return c.isalnum() or c in "_$"


def lex(source: str) -> list[Tok]:
    toks: list[Tok] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = source[i]
        if c in " \t\r\n":
            advance(1)
            continue
        if c == "/" and i + 1 < n and source[i + 1] == "/":
            while i < n and source[i] != "\n":
                advance(1)
            continue
        if c == "/" and i + 1 < n and source[i + 1] == "*":
            start_line, start_col = line, col
            advance(2)
            while i + 1 < n and not (source[i] == "*" and source[i + 1] == "/"):
                advance(1)
            if i + 1 >= n:
                raise ParseError("unterminated block comment", start_line, start_col)
            advance(2)
            continue
        if c == "#":
            # C# preprocessor directive: drop the whole line
            while i < n and source[i] != "\n":
                advance(1)
            continue
        start, start_line, start_col = i, line, col
        if c == "@" and i + 1 < n and source[i + 1] == '"':
            # verbatim string: "" is an escaped quote
            advance(2)
            while i < n:
                if source[i] == '"':
                    if i + 1 < n and source[i + 1] == '"':
                        advance(2)
                        continue
                    break
                advance(1)
            if i >= n:
                raise ParseError("unterminated string", start_line, start_col)
            advance(1)
            toks.append(Tok("str", source[start:i], start, i, start_line, start_col))
            continue
        if c == "$" and i + 1 < n and source[i + 1] == '"':
            c = '"'
            advance(1)
            start = i
        if c in _QUOTES:
            kind, what = _QUOTES[c]
            advance(1)
            while i < n and source[i] != c:
                if source[i] == "\\":
                    advance(1)
                if i == n or source[i] == "\n":
                    break
                advance(1)
            if i == n or source[i] != c:
                raise ParseError(f"unterminated {what}", start_line, start_col)
            advance(1)
            toks.append(Tok(kind, source[start:i], start, i, start_line, start_col))
            continue
        if c.isdigit():
            advance(1)
            if c == "0" and i < n and source[i] in "xX":
                advance(1)
                while i < n and (source[i] in "0123456789abcdefABCDEF_"):
                    advance(1)
            else:
                while i < n and (source[i].isdigit() or source[i] == "_"):
                    advance(1)
                if i < n and source[i] == "." and i + 1 < n and source[i + 1].isdigit():
                    advance(1)
                    while i < n and source[i].isdigit():
                        advance(1)
                if i < n and source[i] in "eE":
                    j = i + 1
                    if j < n and source[j] in "+-":
                        j += 1
                    if j < n and source[j].isdigit():
                        advance(j - i)
                        while i < n and source[i].isdigit():
                            advance(1)
            while i < n and source[i] in "lLfFdDuUmM":
                advance(1)
            toks.append(Tok("num", source[start:i], start, i, start_line, start_col))
            continue
        if _is_name_start(c):
            advance(1)
            while i < n and _is_name_char(source[i]):
                advance(1)
            toks.append(Tok("name", source[start:i], start, i, start_line, start_col))
            continue
        pair = source[i : i + 2]
        if pair in _TWO_CHAR_OPS:
            advance(2)
            toks.append(Tok("punct", pair, start, i, start_line, start_col))
            continue
        advance(1)
        toks.append(Tok("punct", c, start, i, start_line, start_col))
    return toks
