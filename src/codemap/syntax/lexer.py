"""Shared lexer for the Java/C# grammar subset.

One compiled table of named alternatives per language, tried in order
at each offset:
blanks, `//` and `/* */` comments and `#` lines (C# preprocessor
directives), all dropped; strings: a raw string, a C# verbatim `@"…"` and
an ordinary `"…"`, each of which may follow a `$`; char literals;
numbers; names; the two-character operators; any other character as
punctuation.  A `/*`, quote or `'` that its rule cannot close raises
`ParseError` there.  The two languages' tables differ only in the raw
string: a Java text block `\"\"\"…\"\"\"` honours backslash escapes, and a
C# raw string opens with three or more quotes after any number of `$`,
has no escapes and closes with as many quotes.

`start` and `end` are `str` offsets; `line` and `col` count from 1, and
only `\\n` ends a line.  A `$` string's token begins after its `$`s but
is placed at the first.  A name starts with `$` or a `\\w` character that
is not a decimal digit (so `²`, `½` and `Ⅻ` start names), and a number
with a decimal digit.  A C# name may also start with `@` (a verbatim
identifier, `@class`) and keeps it, so it matches no keyword; Java keeps
`@` as punctuation, by which the parser skips annotations.
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


# RAW is the language's raw string and VERBATIM its name prefix; `"{3}`:
# three quotes in a row would end the ordinary string literal
_TEMPLATE = r"""
    (?P<skip> [ \t\r\n]+ | //[^\n]* | /\*.*?\*/ | \#[^\n]* )
  | (?P<bad_comment> /\* )
  | (?P<str> RAW
           | \$?@"(?:[^"]|"")*"(?!")
           | \$?"(?:[^"\\\n]|\\[^\n])*" )
  | (?P<bad_str> \$?@?" )
  | (?P<char> '(?:[^'\\\n]|\\[^\n])*' )
  | (?P<bad_char> ' )
  | (?P<num> (?: 0[xX][0-9a-fA-F_]* | \d[\d_]*(?:\.\d+)?(?:[eE][+-]?\d+)? )
             [lLfFdDuUmM]* )
  | (?P<name> (?:VERBATIM[^\W\d]|\$)[\w$]* )
  | (?P<punct> == | != | <= | >= | && | \|\| | \+\+ | -- | \+= | -= | \*=
             | /= | %= | &= | \|= | \^= | -> | => | :: | \?\? | \?\. | . )
"""
_TABLES = {language: re.compile(_TEMPLATE.replace("RAW", raw)
                                .replace("VERBATIM", verbatim),
                                re.VERBOSE | re.DOTALL)
           for language, raw, verbatim in (
               ("java", r'\$?"{3}(?:[^\\]|\\.)*?"{3}', ""),
               ("csharp", r'\$*(?P<q>"{3,}).*?(?P=q)', "@?"))}

_ERRORS = {"bad_comment": "unterminated block comment",
           "bad_str": "unterminated string",
           "bad_char": "unterminated char literal"}


def lex(source: str, language: str) -> list[Tok]:
    # -1 stands for a newline before the first line
    newlines = [-1] + [m.start() for m in re.finditer("\n", source)]
    toks: list[Tok] = []
    for m in _TABLES[language].finditer(source):
        kind = m.lastgroup
        if kind == "skip":
            continue
        start = m.start()
        line = bisect_left(newlines, start)
        col = start - newlines[line - 1]
        if kind in _ERRORS:
            raise ParseError(_ERRORS[kind], line, col)
        text = m.group().lstrip("$") if kind == "str" else m.group()
        toks.append(Tok(kind, text, m.end() - len(text), m.end(), line, col))
    return toks
