"""Code elements: expression, statement and method spans over a stream."""

from __future__ import annotations

from dataclasses import dataclass

from .. import artifacts
from .normalize import EnrichedTokenStream
from .tree import SyntaxTree

STATEMENT_KINDS = {"decl_stmt", "expr_stmt", "if_stmt", "loop", "return_stmt"}

GRANULARITIES = ("expression", "statement", "method")


@dataclass(frozen=True)
class CodeElement:
    granularity: str  # expression | statement | method
    start: int
    end: int
    token_indices: tuple[int, ...]
    label: str

    def __post_init__(self):
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"bad granularity: {self.granularity}")
        if not self.token_indices:
            raise ValueError("element owns no tokens")
        if any(b <= a for a, b in zip(self.token_indices,
                                      self.token_indices[1:])):
            raise ValueError("token indices must be strictly increasing")


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
                                    tuple(range(lo, hi)), label))
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
        elements.append(CodeElement(granularity, start, end,
                                    tuple(range(first, last + 1)), label))
    return elements
