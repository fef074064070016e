"""Token normalization: syntax trees to enriched token streams.

A token is its text, in memory as in the stream file, and the enrichment
is all in that text: every surviving token is either a structural keyword
naming its node kind, a resolved signature, a primitive placeholder, a
literal-kind marker or a plain keyword.  Punctuation and operators never
survive.

One rule places the structural keywords: a node whose kind is in
`STRUCT_KEYWORDS` opens its token range with that keyword, before anything
its handler emits.  A node kind without a `_visit_<kind>` handler only
walks its children, so a kind that adds no tokens of its own has no
handler.  Package and import nodes have no children; the symbol table
alone reads them.  `literal_type` is the one keyword that names no node
kind: the `literal` handler emits it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import artifacts
from .symbols import (SymbolTable, build_symbols, canon_primitive,
                      resolve_chain, resolve_type_name, simple_arg_name,
                      split_dims)
from .tree import Node

STRUCT_KEYWORDS = {
    "unit", "class", "func_decl", "decl_stmt", "decl", "expr_stmt", "expr",
    "func_call", "argument", "literal_type", "if_stmt", "loop",
    "return_stmt", "block", "opaque",
}

LITERAL_KINDS = {"string", "char", "number", "boolean", "null"}


@dataclass
class EnrichedTokenStream:
    tokens: list[str]
    # id(node) -> [lo, hi) token range, attached by normalize() so element
    # extraction can find each node's tokens; not serialized
    node_ranges: dict[int, tuple[int, int]] = field(
        default_factory=dict, repr=False, compare=False)


class _Normalizer:
    def __init__(self, symbols: SymbolTable):
        self.sym = symbols
        self.tokens: list[str] = []
        self.ranges: dict[int, tuple[int, int]] = {}

    def visit(self, node: Node) -> None:
        lo = len(self.tokens)
        if node.kind in STRUCT_KEYWORDS:
            self.tokens.append(node.kind)
        handler = getattr(self, f"_visit_{node.kind}", None)
        if handler is not None:
            handler(node)
        else:
            self._visit_children(node)
        self.ranges[id(node)] = (lo, len(self.tokens))

    def _visit_children(self, node: Node) -> None:
        for child in node.children:
            self.visit(child)

    # structure ------------------------------------------------------------

    def _visit_class(self, node: Node) -> None:
        self.tokens += node.meta["modifiers"]
        qualified = node.meta["qualified"]
        self.tokens += (qualified, "block")
        self.sym.class_stack.append(qualified)
        self.sym.push_scope()
        # fields resolve for every method regardless of declaration order
        for member in node.children:
            if member.kind == "decl_stmt":
                for decl in member.children:
                    self.sym.declare(decl.meta["name"], decl.meta["type"])
        self._visit_children(node)
        self.sym.pop_scope()
        self.sym.class_stack.pop()

    def _visit_func_decl(self, node: Node) -> None:
        self.tokens += node.meta["modifiers"]
        return_type = node.meta["return_type"]
        if return_type is not None:
            self._emit_type(return_type)
        owner = self.sym.class_stack[-1] if self.sym.class_stack else "unk"
        args = ",".join(simple_arg_name(ptype)
                        for ptype, _ in node.meta["params"])
        signature = f"{owner}.{node.meta['name']}({args})"
        node.meta["signature"] = signature
        self.tokens.append(signature)
        self.sym.push_scope()
        for ptype, pname in node.meta["params"]:
            self.sym.declare(pname, ptype)
        self._visit_children(node)
        self.sym.pop_scope()

    # statements -----------------------------------------------------------

    def _visit_decl(self, node: Node) -> None:
        self.tokens += node.meta["modifiers"]
        declared = node.meta["type"]
        resolved = self._emit_type(declared)
        prim = canon_primitive(split_dims(declared)[0])
        if prim is not None:
            self.tokens.append(f"{prim}_id")
        elif resolved != "?":
            self.tokens.append(resolved)
        self.sym.declare(node.meta["name"], declared)
        self._visit_children(node)

    def _visit_block(self, node: Node) -> None:
        self.sym.push_scope()
        self._visit_children(node)
        self.sym.pop_scope()

    # expressions ----------------------------------------------------------

    def _visit_func_call(self, node: Node) -> None:
        self.tokens.append(self._call_signature(node))
        self._visit_children(node)

    def _visit_literal(self, node: Node) -> None:
        self.tokens += ("literal_type", node.meta["kind"])

    def _visit_nameref(self, node: Node) -> None:
        self.tokens.append(resolve_chain(
            node.meta["segs"], self.sym,
            var_lookup=not node.meta.get("is_type", False)))

    def _visit_name(self, node: Node) -> None:
        self.tokens.append(node.text)

    # helpers ----------------------------------------------------------------

    def _emit_type(self, type_name: str) -> str:
        """Emit resolve_type_name's spelling of a declared type, nothing
        for `?`; returns the spelling."""
        text = resolve_type_name(type_name, self.sym)
        if text != "?":
            self.tokens.append(text)
        return text

    def _call_signature(self, node: Node) -> str:
        args = ",".join(self._arg_type(arg) for arg in node.children)
        segs = node.meta["segs"]
        if node.meta.get("new"):
            base = resolve_chain(segs, self.sym, var_lookup=False)
            return f"{base}({args})"
        if node.meta.get("owner_unknown"):
            return f"?.{segs[-1]}({args})"
        if len(segs) == 1:
            owner = self.sym.class_stack[-1] if self.sym.class_stack else "unk"
            return f"{owner}.{segs[0]}({args})"
        owner = resolve_chain(segs[:-1], self.sym,
                              bare_primitive_as_type=True)
        return f"{owner}.{segs[-1]}({args})"

    def _arg_type(self, arg: Node) -> str:
        if len(arg.children) != 1:
            return "?"
        atom = arg.children[0]
        if atom.kind == "literal":
            kind = atom.meta["kind"]
            if kind == "string":
                return "String"
            if kind == "char":
                return "char"
            if kind == "boolean":
                return "bool"
            if kind == "number":
                return _number_arg_type(atom.text or "")
            return "?"  # null carries no type
        if atom.kind == "nameref":
            segs = atom.meta["segs"]
            if segs == ["this"] and self.sym.class_stack:
                return self.sym.class_stack[-1].split(".")[-1]
            if len(segs) == 1:
                declared = self.sym.lookup_var(segs[0])
                if declared is not None:
                    return simple_arg_name(declared)
        return "?"


def _number_arg_type(text: str) -> str:
    lowered = text.lower().rstrip("u")
    if lowered.startswith("0x"):
        return "long" if lowered.endswith("l") else "int"
    if lowered.endswith(("f", "d", "m")) or "." in lowered or "e" in lowered:
        return "double"
    if lowered.endswith("l"):
        return "long"
    return "int"


def normalize(unit: Node, symbols: SymbolTable | None = None
              ) -> EnrichedTokenStream:
    """Normalize a parsed file's `unit` node into its enriched token stream.

    `symbols` defaults to the table built from the unit itself, which also
    names its classes; passing one lets callers seed variable types for
    fragments that declare no class.
    """
    sym = symbols if symbols is not None else build_symbols(unit)
    walker = _Normalizer(sym)
    walker.visit(unit)
    return EnrichedTokenStream(walker.tokens, walker.ranges)


def write_stream(stream: EnrichedTokenStream, path, comments=()) -> None:
    """Stream file: provenance comments, then one line of tokens."""
    artifacts.write_lines(path, [" ".join(
        artifacts.check_field(path, "token", token)
        for token in stream.tokens)], comments)


def read_stream(path) -> list[str]:
    """The tokens of a stream file."""
    return next((tokens for _, tokens in artifacts.records(path, sep=None)),
                [])
