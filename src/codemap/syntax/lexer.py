"""Shared lexer for the Java/C# grammar subset.

One compiled table of named alternatives, tried in order at each offset:
blanks, `//` and `/* */` comments and `#` lines (C# preprocessor
directives), all dropped; strings: a Java text block or C# raw string
`\"\"\"…\"\"\"` (backslash escapes honoured), a C# verbatim `@"…"` and an
ordinary `"…"`, each of which may follow a `$`; char literals; numbers;
names; the two-character operators; any other character as punctuation.
A `/*`, quote or `'` that its rule cannot close raises `ParseError` there.

`start` and `end` are `str` offsets; `line` and `col` count from 1, and
only `\\n` ends a line.  A `$` string's token begins after the `$` but is
placed at it.  A name starts with `$` or a `\\w` character that is not a
decimal digit (so `²`, `½` and `Ⅻ` start names), and a number with a
decimal digit.
"""

import re
from bisect import bisect_left
from typing import NamedTuple


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class Tok(NamedTuple):
    kind: str  # name | num | str | char | punct
    text: str
    start: int
    end: int
    line: int
    col: int


# `"{3}`: three quotes in a row would end this string literal
_TABLE = re.compile(r"""
    (?P<skip> [ \t\r\n]+ | //[^\n]* | /\*.*?\*/ | \#[^\n]* )
  | (?P<bad_comment> /\* )
  | (?P<str> \$?"{3}(?:[^\\]|\\.)*?"{3}
           | \$?@"(?:[^"]|"")*"(?!")
           | \$?"(?:[^"\\\n]|\\[^\n])*" )
  | (?P<bad_str> \$?@?" )
  | (?P<char> '(?:[^'\\\n]|\\[^\n])*' )
  | (?P<bad_char> ' )
  | (?P<num> (?: 0[xX][0-9a-fA-F_]* | \d[\d_]*(?:\.\d+)?(?:[eE][+-]?\d+)? )
             [lLfFdDuUmM]* )
  | (?P<name> (?:[^\W\d]|\$)[\w$]* )
  | (?P<punct> == | != | <= | >= | && | \|\| | \+\+ | -- | \+= | -= | \*=
             | /= | %= | &= | \|= | \^= | -> | => | :: | \?\? | \?\. | . )
""", re.VERBOSE | re.DOTALL)

_ERRORS = {"bad_comment": "unterminated block comment",
           "bad_str": "unterminated string",
           "bad_char": "unterminated char literal"}


def lex(source: str) -> list[Tok]:
    # -1 stands for a newline before the first line
    newlines = [-1] + [m.start() for m in re.finditer("\n", source)]
    toks: list[Tok] = []
    for m in _TABLE.finditer(source):
        kind = m.lastgroup
        if kind == "skip":
            continue
        start = m.start()
        line = bisect_left(newlines, start)
        col = start - newlines[line - 1]
        if kind in _ERRORS:
            raise ParseError(_ERRORS[kind], line, col)
        text = m.group()
        if kind == "str" and text[0] == "$":
            text = text[1:]
            start += 1
        toks.append(Tok(kind, text, start, m.end(), line, col))
    return toks
