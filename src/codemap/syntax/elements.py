"""Code elements: expression, statement and method spans over a stream."""

from __future__ import annotations

from collections import defaultdict, namedtuple
from itertools import count

import numpy as np

from .. import artifacts
from .normalize import EnrichedTokenStream
from .tree import Node

STATEMENT_KINDS = {"decl_stmt", "expr_stmt", "if_stmt", "loop", "return_stmt"}

GRANULARITIES = ("expression", "statement", "method")


def element_ids(sides, paths, granularities) -> list[str]:
    """`<side>:<path>:<granularity>:<ordinal>` per element table row, the
    ordinal counting the rows of its file and granularity before it."""
    ordinals = defaultdict(count)
    return [f"{side}:{path}:{granularity}:"
            f"{next(ordinals[side, path, granularity])}"
            for side, path, granularity in zip(sides, paths, granularities)]


def id_granularity(element_id: str) -> str:
    """The granularity an element id names."""
    return element_id.rsplit(":", 2)[1]


def extract_elements(unit: Node,
                     stream: EnrichedTokenStream) -> list[tuple]:
    """One (granularity, start, end, first, last, label) row per expr,
    statement and method node, in pre-order.

    Each element owns the contiguous tokens first..last its node
    produced, including the node's own structural keywords.  Nodes that
    produced no tokens are skipped.
    """
    if stream.tokens and not stream.node_ranges:
        raise ValueError("stream carries no node ranges; it was not "
                         "produced by normalize() on this unit")
    rows = []
    for node in unit.walk():
        if node.kind == "expr":
            granularity, label = "expression", "expr"
        elif node.kind in STATEMENT_KINDS:
            granularity, label = "statement", node.kind
        elif node.kind == "func_decl":
            granularity = "method"
            label = node.meta.get("signature", node.meta.get("name", "?"))
        else:
            continue
        lo, hi = stream.node_ranges.get(id(node), (0, 0))
        if hi > lo:
            rows.append((granularity, node.start, node.end, lo, hi - 1,
                         label))
    return rows


# an element table as columns, the ints as arrays: each row's line in its
# file, then the file's eight fields
ElementTable = namedtuple("ElementTable", "line side path granularity "
                          "start end first last label")


def write_elements(rows, path, comments=()) -> None:
    """Element table: side, path, then an extracted row, tab-separated."""
    artifacts.write_lines(path, ("\t".join(map(str, row)) for row in rows),
                          comments)


def read_elements(path) -> ElementTable:
    """Inverse of write_elements; a malformed row fails naming its line.

    The file is read whole and its rows split 1,024 at a time, with one
    string per distinct text, so the texts of one block of rows at most
    are held twice.  A file that is not a comment header followed by
    rows of eight tab-separated fields, each row of side a or b with
    integer token indices, is read again line by line, which names the
    first malformed row's line."""
    columns = _split_whole(path) or _split_by_line(path)
    table = ElementTable(*columns)
    bad = ~np.isin(table.granularity, GRANULARITIES) \
        | (table.first > table.last)
    if bad.any():
        row = int(np.argmax(bad))  # the first bad row
        problem = f"bad granularity: {table.granularity[row]}" \
            if table.granularity[row] not in GRANULARITIES else \
            f"token range {table.first[row]}-{table.last[row]} is empty"
        raise ValueError(f"{path}:{table.line[row]}: {problem}")
    return table


def _split_whole(path):
    """The table's columns, the file read whole, or None if any row is
    malformed."""
    with open(path, encoding="utf-8-sig") as handle:
        lines = handle.read().split("\n")
    head = 0  # the comment header
    while head < len(lines) and lines[head].startswith("#"):
        head += 1
    rows = lines[head:-1] if lines[-1] == "" else lines[head:]
    columns = [list(range(head + 1, head + 1 + len(rows)))] \
        + [[] for _ in range(8)]
    texts = {}  # repeats share one string
    for lo in range(0, len(rows), 1024):
        chunk = rows[lo:lo + 1024]
        # no row holds a newline, so with one between rows every row has
        # eight fields if and only if each ninth field is that newline
        fields = "\t\n\t".join(chunk).split("\t")
        if len(fields) != 9 * len(chunk) - 1 \
                or fields[8::9].count("\n") != len(chunk) - 1:
            return None
        for k in range(8):
            columns[k + 1] += map(texts.setdefault, fields[k::9], fields[k::9])
    if not set(columns[1]) <= {"a", "b"}:
        return None
    try:
        columns[4:8] = [np.array(c, dtype=np.int64) for c in columns[4:8]]
    except (ValueError, OverflowError):
        return None
    return columns


def _split_by_line(path):
    """The table's columns, read row by row: a malformed row fails
    naming its line."""
    lines, fields, texts = [], [], {}
    for lineno, parts in artifacts.records(path, 8):
        lines.append(lineno)
        fields += map(texts.setdefault, parts, parts)  # repeats share one
    columns = [lines] + [fields[k::8] for k in range(8)]
    try:
        columns[4:8] = [np.array(c, dtype=np.int64) for c in columns[4:8]]
    except (ValueError, OverflowError):
        for lineno, ints in zip(lines, zip(*columns[4:8])):
            for text in ints:  # raises naming path:lineno
                artifacts.field(path, lineno, int, text)
        raise ValueError(f"{path}: a token index is out of range") from None
    return columns
