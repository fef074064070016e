"""The syntax tree node shared by the parser and the normalizer."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Node:
    """One syntax node.

    kind is drawn from a small fixed set (unit, package, namespace, import,
    class, func_decl, decl_stmt, decl, expr_stmt, expr, if_stmt, loop,
    return_stmt, block, func_call, argument, literal, nameref, opaque, name).
    Children are in source order; spans nest within the parent span.
    """

    kind: str
    start: int
    end: int
    children: list["Node"] = field(default_factory=list)
    text: str | None = None
    meta: dict = field(default_factory=dict)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()
