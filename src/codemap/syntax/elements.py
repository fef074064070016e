"""Code elements: expression, statement and method spans over a stream."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .. import artifacts
from .normalize import EnrichedTokenStream
from .tree import SyntaxTree

STATEMENT_KINDS = {"decl_stmt", "expr_stmt", "if_stmt", "loop", "return_stmt"}

GRANULARITIES = ("expression", "statement", "method")


def element_ids(side: str, relpath: str, elements) -> list[str]:
    """`<side>:<relpath>:<granularity>:<ordinal>` per element of a file,
    in order, the ordinal counting the file's elements of its kind."""
    ordinals = {granularity: count() for granularity in GRANULARITIES}
    return [f"{side}:{relpath}:{element.granularity}:"
            f"{next(ordinals[element.granularity])}" for element in elements]


def id_granularity(element_id: str) -> str:
    """The granularity an element id names."""
    return element_id.rsplit(":", 2)[1]


@dataclass(frozen=True)
class CodeElement:
    granularity: str  # expression | statement | method
    start: int
    end: int
    token_indices: range  # the contiguous stream tokens it owns
    label: str

    def __post_init__(self):
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"bad granularity: {self.granularity}")
        if not self.token_indices:
            raise ValueError(f"token range {self.token_indices.start}-"
                             f"{self.token_indices.stop - 1} is empty")


def extract_elements(tree: SyntaxTree,
                     stream: EnrichedTokenStream) -> list[CodeElement]:
    """One element per expr, statement and method node, in pre-order.

    Each element owns the contiguous token range its node produced,
    including the node's own structural keywords.  Nodes that produced no
    tokens are skipped.
    """
    if stream.tokens and not stream.node_ranges:
        raise ValueError("stream carries no node ranges; it was not "
                         "produced by normalize() on this tree")
    elements: list[CodeElement] = []
    for node in tree.root.walk():
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
        if hi <= lo:
            continue
        elements.append(CodeElement(granularity, node.start, node.end,
                                    range(lo, hi), label))
    return elements


def write_elements(elements, path, comments=()) -> None:
    """Element TSV: granularity, span, inclusive token range, label."""
    artifacts.write_lines(path, ("\t".join((
        e.granularity, str(e.start), str(e.end), str(e.token_indices[0]),
        str(e.token_indices[-1]), e.label)) for e in elements), comments)


def read_elements(path) -> list[CodeElement]:
    elements: list[CodeElement] = []
    for lineno, (granularity, *span, label) in artifacts.records(path, 6):
        start, end, first, last = (artifacts.field(path, lineno, int, text)
                                   for text in span)
        try:
            elements.append(CodeElement(granularity, start, end,
                                        range(first, last + 1), label))
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None
    return elements
