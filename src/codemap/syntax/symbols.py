"""Symbol tables and best-effort signature resolution.

Resolution is file-local: imports, the file's own declarations and
declared-variable types are all the evidence used.  Names that none of
those explain keep an `unk.` prefix so they stay stable, distinguishable
tokens instead of crashing the pipeline.
"""

from __future__ import annotations

# canonical primitive spellings shared by both languages; a variable of
# one of these types normalizes to the `<type>_id` placeholder
PLACEHOLDER_TYPES = {"int", "long", "float", "double", "bool", "char", "byte", "short"}

_SPELLING = {
    "boolean": "bool",
    "uint": "int",
    "ulong": "long",
    "ushort": "short",
    "sbyte": "byte",
    "decimal": "double",
}

# language keywords that are really class types
CLASS_ALIASES = {"string": "String", "object": "Object"}


def split_dims(type_name: str) -> tuple[str, str]:
    """Split `int[][]` into (`int`, `[][]`)."""
    base = type_name
    dims = ""
    while base.endswith("[]"):
        base = base[:-2]
        dims += "[]"
    return base, dims


def canon_primitive(base: str) -> str | None:
    """Canonical spelling if `base` is a placeholder primitive, else None."""
    canon = _SPELLING.get(base, base)
    return canon if canon in PLACEHOLDER_TYPES else None


class SymbolTable:
    """Imports, file-declared classes and a scope stack of variable types."""

    def __init__(self, package: str = "", imports: dict[str, str] | None = None,
                 namespaces: list[str] | None = None,
                 classes: dict[str, str] | None = None):
        self.package = package
        self.imports = dict(imports or {})      # simple name -> qualified
        self.namespaces = list(namespaces or [])  # wildcard imports, in order
        self.classes = dict(classes or {})      # declared simple -> qualified
        self.scopes: list[dict[str, str]] = [{}]
        self.class_stack: list[str] = []

    def push_scope(self) -> None:
        self.scopes.append({})

    def pop_scope(self) -> None:
        self.scopes.pop()

    def declare(self, name: str, type_name: str) -> None:
        self.scopes[-1][name] = type_name

    def lookup_var(self, name: str) -> str | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def qualify_declared(self, simple: str) -> str:
        """Qualified name for a class declared here, honoring nesting."""
        if self.class_stack:
            return f"{self.class_stack[-1]}.{simple}"
        if self.package:
            return f"{self.package}.{simple}"
        return simple


def _join(base: str, rest: list[str]) -> str:
    return ".".join([base] + rest) if rest else base


def resolve_chain(segs: list[str], symbols: SymbolTable, *,
                  var_lookup: bool = True,
                  bare_primitive_as_type: bool = False) -> tuple[str, str]:
    """Resolve a dotted name chain to (token text, token kind).

    Kind is `primitive_placeholder` for a bare primitive-typed variable and
    `signature` otherwise.  Resolution order: this/variables, exact imports,
    file-declared classes, keyword aliases, wildcard-imported namespaces,
    already-qualified names, then the `unk.` fallback.
    """
    head, rest = segs[0], list(segs[1:])
    if head == "this" and symbols.class_stack:
        return _join(symbols.class_stack[-1], rest), "signature"
    if var_lookup:
        declared = symbols.lookup_var(head)
        if declared is not None:
            base, _dims = split_dims(declared)
            prim = canon_primitive(base)
            if prim is not None:
                if rest or bare_primitive_as_type:
                    return _join(prim, rest), "signature"
                return f"{prim}_id", "primitive_placeholder"
            return _join(resolve_type_name(declared, symbols), rest), "signature"
    if head in symbols.imports:
        return _join(symbols.imports[head], rest), "signature"
    if head in symbols.classes:
        return _join(symbols.classes[head], rest), "signature"
    if head in CLASS_ALIASES:
        return resolve_chain([CLASS_ALIASES[head]] + rest, symbols,
                             var_lookup=False)
    prim = canon_primitive(head)
    if prim is not None:
        return _join(prim, rest), "signature"
    if rest:
        # a chain that already starts inside a known namespace or the
        # file's own package is taken as fully qualified
        roots = {ns.split(".")[0] for ns in symbols.namespaces}
        if symbols.package:
            roots.add(symbols.package.split(".")[0])
        if head in roots:
            return ".".join(segs), "signature"
    if symbols.namespaces:
        return f"{symbols.namespaces[0]}.{'.'.join(segs)}", "signature"
    if len(segs) >= 3:
        return ".".join(segs), "signature"
    return f"unk.{'.'.join(segs)}", "signature"


def resolve_type_name(type_name: str, symbols: SymbolTable) -> str:
    """Resolve a declared type reference to its qualified form."""
    base, dims = split_dims(type_name)
    if base == "void":
        return "void"
    if base in ("var", "?", ""):
        return "?"
    prim = canon_primitive(base)
    if prim is not None:
        return prim + dims
    base = CLASS_ALIASES.get(base, base)
    text, _ = resolve_chain(base.split("."), symbols, var_lookup=False)
    return text + dims


def simple_arg_name(type_name: str) -> str:
    """Short form used inside call/method signature argument lists."""
    base, dims = split_dims(type_name)
    if base in ("var", "?", "", "void"):
        return "?"
    prim = canon_primitive(base)
    if prim is not None:
        return prim + dims
    base = CLASS_ALIASES.get(base, base)
    return base.split(".")[-1] + dims


def build_symbols(tree) -> SymbolTable:
    """Collect package, imports and declared classes from a parsed unit."""
    sym = SymbolTable()
    # the java package header sits beside the classes it qualifies, so it
    # must be known before class names are collected
    for child in tree.root.children:
        if child.kind in ("package", "namespace"):
            sym.package = child.meta["name"]
            break

    def scan(children, prefix: str) -> None:
        for child in children:
            if child.kind == "namespace":
                scan(child.children, child.meta["name"])
            elif child.kind == "import":
                if child.meta.get("wildcard"):
                    sym.namespaces.append(child.meta["qualified"])
                else:
                    sym.imports[child.meta["simple"]] = child.meta["qualified"]
            elif child.kind == "class":
                name = child.meta["name"]
                qualified = f"{prefix}.{name}" if prefix else name
                sym.classes.setdefault(name, qualified)
                scan(child.children, qualified)

    scan(tree.root.children, sym.package)
    return sym
