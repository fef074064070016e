"""Token normalization: syntax trees to enriched token streams.

Every surviving token is either a structural keyword naming its node kind,
a resolved signature, a primitive placeholder, a literal-kind marker or a
plain keyword.  Punctuation and operators never survive.  With
`structure=False` the walk performs signature substitution only, which is
the form the listing-style examples are written in.

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
from .tree import Node, SyntaxTree

STRUCT_KEYWORDS = {
    "unit", "class", "func_decl", "decl_stmt", "decl", "expr_stmt", "expr",
    "func_call", "argument", "literal_type", "if_stmt", "loop",
    "return_stmt", "block", "opaque",
}

LITERAL_KINDS = {"string", "char", "number", "boolean", "null"}


@dataclass(frozen=True)
class EnrichedToken:
    text: str
    kind: str  # struct_kw | signature | primitive_placeholder | keyword | literal_kind
    start: int
    end: int

    def __post_init__(self):
        if not self.text:
            raise ValueError("empty token text")


@dataclass
class EnrichedTokenStream:
    file: str
    language: str
    tokens: list[EnrichedToken]
    # id(node) -> [lo, hi) token range, attached by normalize() so element
    # extraction can find each node's tokens; not serialized
    node_ranges: dict[int, tuple[int, int]] = field(
        default_factory=dict, repr=False, compare=False)


class _Normalizer:
    def __init__(self, symbols: SymbolTable, structure: bool):
        self.sym = symbols
        self.structure = structure
        self.tokens: list[EnrichedToken] = []
        self.ranges: dict[int, tuple[int, int]] = {}

    def kw(self, text: str, node: Node) -> None:
        if self.structure:
            self.tokens.append(EnrichedToken(text, "struct_kw",
                                             node.start, node.start))

    def tok(self, text: str, kind: str, node: Node) -> None:
        self.tokens.append(EnrichedToken(text, kind, node.start, node.end))

    def visit(self, node: Node) -> None:
        lo = len(self.tokens)
        if node.kind in STRUCT_KEYWORDS:
            self.kw(node.kind, node)
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
        for mod in node.meta["modifiers"]:
            self.tok(mod, "keyword", node)
        qualified = self.sym.qualify_declared(node.meta["name"])
        self.tok(qualified, "signature", node)
        self.kw("block", node)
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
        for mod in node.meta["modifiers"]:
            self.tok(mod, "keyword", node)
        return_type = node.meta["return_type"]
        if return_type is not None:
            self._emit_type(return_type, node)
        owner = self.sym.class_stack[-1] if self.sym.class_stack else "unk"
        args = ",".join(simple_arg_name(ptype)
                        for ptype, _ in node.meta["params"])
        signature = f"{owner}.{node.meta['name']}({args})"
        node.meta["signature"] = signature
        self.tok(signature, "signature", node)
        self.sym.push_scope()
        for ptype, pname in node.meta["params"]:
            self.sym.declare(pname, ptype)
        self._visit_children(node)
        self.sym.pop_scope()

    # statements -----------------------------------------------------------

    def _visit_decl(self, node: Node) -> None:
        for mod in node.meta["modifiers"]:
            self.tok(mod, "keyword", node)
        declared = node.meta["type"]
        resolved = self._emit_type(declared, node)
        prim = canon_primitive(split_dims(declared)[0])
        if prim is not None:
            self.tok(f"{prim}_id", "primitive_placeholder", node)
        elif resolved != "?":
            self.tok(resolved, "signature", node)
        self.sym.declare(node.meta["name"], declared)
        self._visit_children(node)

    def _visit_block(self, node: Node) -> None:
        self.sym.push_scope()
        self._visit_children(node)
        self.sym.pop_scope()

    # expressions ----------------------------------------------------------

    def _visit_func_call(self, node: Node) -> None:
        self.tok(self._call_signature(node), "signature", node)
        self._visit_children(node)

    def _visit_literal(self, node: Node) -> None:
        self.kw("literal_type", node)
        self.tok(node.meta["kind"], "literal_kind", node)

    def _visit_nameref(self, node: Node) -> None:
        segs = node.meta["segs"]
        text, kind = resolve_chain(
            segs, self.sym, var_lookup=not node.meta.get("is_type", False))
        self.tok(text, kind, node)

    def _visit_name(self, node: Node) -> None:
        self.tok(node.text, "keyword", node)

    # helpers ----------------------------------------------------------------

    def _emit_type(self, type_name: str, node: Node) -> str:
        """Emit resolve_type_name's spelling of a declared type, a keyword
        for void and primitives, nothing for `?`; returns the spelling."""
        text = resolve_type_name(type_name, self.sym)
        base = split_dims(type_name)[0]
        if text != "?":
            self.tok(text, "keyword" if base == "void" or canon_primitive(
                base) else "signature", node)
        return text

    def _call_signature(self, node: Node) -> str:
        args = ",".join(self._arg_type(arg) for arg in node.children)
        segs = node.meta["segs"]
        if node.meta.get("new"):
            base, _ = resolve_chain(segs, self.sym, var_lookup=False)
            return f"{base}({args})"
        if node.meta.get("owner_unknown"):
            return f"?.{segs[-1]}({args})"
        if len(segs) == 1:
            owner = self.sym.class_stack[-1] if self.sym.class_stack else "unk"
            return f"{owner}.{segs[0]}({args})"
        owner, _ = resolve_chain(segs[:-1], self.sym,
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


def normalize(tree: SyntaxTree, symbols: SymbolTable | None = None,
              file: str = "", structure: bool = True) -> EnrichedTokenStream:
    """Normalize a parsed file into its enriched token stream.

    `symbols` defaults to the table built from the tree itself; passing one
    lets callers seed variable types for fragments.  `structure=False`
    yields only the signature-substituted tokens, without the structural
    keywords.
    """
    sym = symbols if symbols is not None else build_symbols(tree)
    walker = _Normalizer(sym, structure)
    walker.visit(tree.root)
    stream = EnrichedTokenStream(file=file, language=tree.language,
                                 tokens=walker.tokens)
    stream.node_ranges = walker.ranges
    return stream


def write_stream(stream: EnrichedTokenStream, path, comments=()) -> None:
    """Stream file: `#<language> <path>` header, then one line of tokens."""
    artifacts.write_lines(path, (
        f"#{stream.language} {stream.file}",
        *(f"# {c}" for c in comments),
        " ".join(artifacts.check_field(path, "token", t.text)
                 for t in stream.tokens)))


def read_stream(path) -> tuple[str, str, list[str]]:
    """Read a stream file back as (language, source path, tokens)."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n")
        tokens = next((line.split() for _, line in
                       artifacts.record_lines(handle)), [])
    if not header.startswith("#"):
        raise ValueError(f"{path}:1: missing `#<language> <path>` header")
    language, _, source = header[1:].partition(" ")
    if not language:
        raise ValueError(f"{path}:1: missing language in header")
    return language, source, tokens
