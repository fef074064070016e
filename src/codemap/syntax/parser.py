"""Tolerant recursive-descent parser for a shared Java/C# subset.

The subset covers what the downstream token normalizer can exploit:
package/namespace headers, imports, class declarations, fields, methods,
local declarations, calls, literals, if/loops/return and blocks.  Each
construct has one production.  One rule reads a declaration in a file,
a namespace and a class body, where an interface, enum, struct, record,
delegate, event or Java `@interface` is one opaque node; what it does
not explain is a statement outside a class and an opaque member in one.
In a method body, a local type or C# local function is one opaque
statement.

Contract: an unsupported construct becomes an `opaque` node that keeps
its identifier and literal tokens, so no input is rejected for using
one.  Input that ends where a construct still needs a token (after
`class`, inside `for (`, in an unterminated literal), that holds
anything but a name where a declared or imported name goes, or that
nests too deep for the interpreter's recursion limit, raises
`ParseError` with the line and column, never another exception.  A
missing closing brace or `;` at the end of input is tolerated.

Recovery has one rule, kept by `_skip_to` for every loop that skips
tokens, the opaque scanner's too: a skip walks balanced groups and
stops, without eating it, at a `)`, `]` or `}` it did not open.  A
parameter list and a call's arguments also stop at a `;` of their own,
and a parameter list also at a `{`.  The loop around moves past what
stopped it, so a damaged member never takes the members after it.  A
skipped group ends at a closer alone: `try (A a = f(); B b = g())` is
legal.
"""

from __future__ import annotations

from .lexer import ParseError, Tok, lex
from .tree import Node

MODIFIERS = {
    # java
    "public", "private", "protected", "static", "final", "abstract",
    "synchronized", "native", "transient", "volatile", "strictfp", "default",
    # csharp
    "internal", "readonly", "const", "sealed", "virtual", "override",
    "async", "partial", "extern", "unsafe", "required",
}

_PARAMETER_MODIFIERS = {"final", "ref", "out", "in", "params", "this"}

PRIMITIVES = {
    "int", "long", "float", "double", "boolean", "bool", "char", "byte",
    "short", "uint", "ulong", "ushort", "sbyte", "decimal", "void",
    "string", "object", "var",
}

_HEADERS = {
    "java": {"package": "parse_package", "import": "parse_java_import"},
    "csharp": {"using": "parse_csharp_using", "namespace": "parse_namespace"},
}

_STATEMENTS = {
    "{": "parse_block", "if": "parse_if", "while": "parse_while",
    "do": "parse_do_while", "for": "parse_for", "foreach": "parse_foreach",
    "return": "parse_return",
}

# statement keywords that open a construct we do not model; the opaque
# scanner must swallow their brace blocks and continuation clauses
_OPAQUE_STATEMENT_KW = {
    "try", "switch", "synchronized", "lock", "using", "fixed", "checked",
    "unchecked", "break", "continue", "throw", "goto", "yield",
}
_OPAQUE_CONTINUATION_KW = {"catch", "finally", "else"}

# keywords that never start a type, so no statement reads as a declaration
_NOT_TYPES = {"new", "return", "if", "while", "for", "foreach", "do", "else",
              "assert", "await", "case", *_OPAQUE_STATEMENT_KW}

_TYPE_DECL_KW = {"interface", "enum", "struct", "record", "delegate", "event"}
_LOCAL_TYPE_KW = {"class", *_TYPE_DECL_KW}

_GROUP_CLOSE = {"(": ")", "[": "]", "{": "}"}
_CLOSERS = set(_GROUP_CLOSE.values())

_TOKEN_LITERALS = {"str": "string", "char": "char", "num": "number"}
_KEYWORD_LITERALS = {"true": "boolean", "false": "boolean", "null": "null"}


class Parser:
    def __init__(self, source: str, language: str):
        self.src = source
        self.lang = language
        self.toks: list[Tok] = lex(source, language)
        self.i = 0

    # token cursor helpers -------------------------------------------------

    def peek(self, k: int = 0) -> Tok | None:
        j = self.i + k
        return self.toks[j] if j < len(self.toks) else None

    def at(self, text: str, k: int = 0) -> bool:
        t = self.peek(k)
        return t is not None and t.text == text

    def at_name(self, k: int = 0) -> bool:
        t = self.peek(k)
        return t is not None and t.kind == "name"

    def eat(self) -> Tok:
        t = self.peek()
        if t is None:
            raise self._end_of_input("unexpected end of input")
        self.i += 1
        return t

    def _name(self) -> str:
        """Eat the next token, which must be a name, and return its text."""
        t = self.peek()
        if t is None:
            raise self._end_of_input("expected a name, found end of input")
        if t.kind != "name":
            raise ParseError(f"expected a name, found {t.text!r}",
                             t.line, t.col)
        self.i += 1
        return t.text

    def expect(self, text: str) -> Tok:
        t = self.peek()
        if t is None:
            raise self._end_of_input(f"expected {text!r}, found end of input")
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        self.i += 1
        return t

    def _skip(self, text: str) -> bool:
        """Eat the next token if it is `text`."""
        if self.at(text):
            self.i += 1
            return True
        return False

    def _end_of_input(self, message: str) -> ParseError:
        last = self.toks[-1]  # parse_unit stops before an empty token list
        return ParseError(message, last.line, last.col)

    def _next_start(self) -> int:
        t = self.peek()
        return t.start if t is not None else self._end_offset()

    def _end_offset(self) -> int:
        return self.toks[self.i - 1].end if self.i > 0 else 0

    def _skip_to(self, *stops: str) -> None:
        """The one recovery rule: eat tokens, each group whole, up to one
        of `stops` or a closer this skip did not open, and eat neither."""
        while ((t := self.peek()) is not None and t.text not in stops
               and t.text not in _CLOSERS):
            self._skip_item()

    def _skip_item(self) -> None:
        """Eat one token and, if it opens a group, the group: through its
        own closer, or up to another one, which it leaves."""
        opener = self.eat().text
        if opener in _GROUP_CLOSE:
            self._skip_to()
            self._skip(_GROUP_CLOSE[opener])

    def _items(self, parse_item, close: str | None = None) -> list[Node]:
        """Items up to `close`, which is eaten, or else to the end of input."""
        items: list[Node] = []
        while True:
            self._skip_annotations()
            t = self.peek()
            if t is None or t.text == close:
                break
            if t.text in (";", "}"):  # a bare `;`, a `}` closing nothing
                self.i += 1
            elif (item := parse_item()) is not None:
                items.append(item)
        if close:
            self._skip(close)
        return items

    # compilation unit -----------------------------------------------------

    def parse_unit(self) -> Node:
        return Node("unit", 0, len(self.src), self._items(self.parse_top_level))

    def parse_top_level(self) -> Node | None:
        """A header, a declaration or a statement (a listing fragment)."""
        header = _HEADERS[self.lang].get(self.peek().text)
        # a C# `using (…)` or `using var r = …;` is a statement, not a header
        if header is not None and not self.at("(", 1):
            return self._try_local_decl("using") or getattr(self, header)()
        return self.parse_declaration(self.parse_statement)

    def parse_package(self) -> Node:
        start = self.expect("package").start
        name = self._dotted_name()
        self._skip(";")
        return Node("package", start, self._end_offset(), meta={"name": name})

    def parse_java_import(self) -> Node:
        start = self.expect("import").start
        self._skip("static")
        segs = self._dotted()
        wildcard = self._skip(".")
        if wildcard:
            self.expect("*")
        self._skip(";")
        meta = {"qualified": ".".join(segs), "wildcard": wildcard}
        if not wildcard:
            meta["simple"] = segs[-1]
        return Node("import", start, self._end_offset(), meta=meta)

    def parse_csharp_using(self) -> Node:
        start = self.expect("using").start
        self._skip("static")
        first = self._dotted_name()
        if self._skip("="):
            target = self._dotted_name()
            meta = {"qualified": target, "wildcard": False, "simple": first}
        else:
            # plain `using N;` imports a namespace, like a java wildcard
            meta = {"qualified": first, "wildcard": True}
        self._skip(";")
        return Node("import", start, self._end_offset(), meta=meta)

    def parse_namespace(self) -> Node:
        start = self.expect("namespace").start
        name = self._dotted_name()
        if self._skip(";"):
            # file-scoped namespace: rest of the file belongs to it
            children = self._items(self.parse_top_level)
        else:
            self.expect("{")
            children = self._items(self.parse_top_level, "}")
        return Node("namespace", start, self._end_offset(), children, meta={"name": name})

    def _dotted(self) -> list[str]:
        segs = [self._name()]
        while self.at(".") and self.at_name(1):
            self.i += 1
            segs.append(self.eat().text)
        return segs

    def _dotted_name(self) -> str:
        return ".".join(self._dotted())

    def _skip_annotations(self) -> None:
        while True:
            if (self.lang == "java" and self.at("@") and self.at_name(1)
                    and not self.at("interface", 1)):
                self.eat()
                self._dotted_name()
                if self.at("("):
                    self._skip_item()
            elif self.lang == "csharp" and self.at("["):
                # attribute lists only appear where a member may start
                self._skip_item()
            else:
                return

    def _collect_modifiers(self, names: set[str] = MODIFIERS) -> list[str]:
        """Eat the modifiers in `names` and the annotations among them."""
        mods = []
        while True:
            self._skip_annotations()
            # `new` expressions never occur in modifier position; C# `new`
            # as a hiding modifier is rare enough to omit from the set
            if not (self.at_name() and self.peek().text in names):
                return mods
            mods.append(self.eat().text)

    # declarations ---------------------------------------------------------

    def parse_declaration(self, otherwise, class_name: str | None = None
                          ) -> Node | None:
        """Modifiers, then a class, another type as one opaque node, a
        constructor of `class_name`, a method or a field; or else, from
        where it began, `otherwise`: the scope's own production."""
        entry = self.i
        start = self.toks[entry].start
        mods = self._collect_modifiers()
        self._skip_generic_args()  # a generic method's type parameters
        if self.at("class"):
            return self.parse_class(mods, start)
        k = 1 if self.at("@") and self.at("interface", 1) else 0
        if self.at_name(k + 1) and self.peek(k).text in _TYPE_DECL_KW:
            self.i = entry
            return self.parse_opaque_member()
        if class_name is not None and self.at(class_name) and self.at("(", 1):
            return self.parse_method(mods, None, self.eat().text, start)
        type_name = self._try_type()
        if type_name is not None and self.at_name():
            name = self.eat().text
            self._skip_generic_args()
            if self.at("("):
                return self.parse_method(mods, type_name, name, start)
            if self.at("=") or self.at(",") or self.at(";") or self.at("["):
                self.i -= 1  # re-read the declarator name
                return self._declarators(mods, type_name, start)
        self.i = entry  # a statement, a C# property, any other member
        return otherwise()

    def parse_class(self, mods: list[str], start: int) -> Node:
        self.expect("class")
        name = self._name()
        self._skip_generic_args()
        self._skip_to("{")  # extends/implements/base list, where clauses
        self.expect("{")
        members = self._items(
            lambda: self.parse_declaration(self.parse_opaque_member, name), "}")
        return Node("class", start, self._end_offset(), members,
                    meta={"name": name, "modifiers": mods})

    def parse_method(self, mods: list[str], return_type: str | None,
                     name: str, start: int) -> Node:
        self.expect("(")
        params: list[tuple[str, str]] = []
        while True:
            self._collect_modifiers(_PARAMETER_MODIFIERS)
            p_type = self._try_type()
            if p_type is not None and self.at(".") and self.at(".", 1):
                while self.at("."):  # varargs `...`
                    self.eat()
                p_type += "[]"
            if p_type is not None and self.at_name():
                p_name = self.eat().text
                p_type += self._dims()
                if self._skip("="):  # default value
                    self.parse_expr_atoms({",", ")", ";", "{"})
                params.append((p_type, p_name))
            self._skip_to(",", ";", "{")  # what a damaged parameter leaves
            if not self._skip(","):
                break
        self._skip(")")
        self._skip_to("{", ";", "=>")  # throws, base-ctor call, where clauses
        body: list[Node] = []
        if self.at("{"):
            body = [self.parse_block()]
        elif self._skip("=>"):
            expr = self._expr(";", ";")
            body = [Node("return_stmt", expr.start, expr.end, [expr])]
        else:
            self._skip(";")
        return Node("func_decl", start, self._end_offset(), body,
                    meta={"name": name, "modifiers": mods,
                          "return_type": return_type, "params": params})

    def parse_opaque_member(self) -> Node:
        """Swallow one unsupported construct, keeping name/literal leaves:
        through its `;`, or through its block and the catch, finally or
        else clauses after it."""
        entry = self.i
        while True:
            self._skip_to(";", "{")
            if not self.at("{"):
                self._skip(";")
                break
            self._skip_item()  # the block
            t = self.peek()
            if t is None or t.text not in _OPAQUE_CONTINUATION_KW:
                break
        self.i = max(self.i, entry + 1)  # never stall on a stray closer
        eaten = self.toks[entry:self.i]
        leaves = [Node("name", t.start, t.end, text=t.text)
                  if t.kind == "name" else _literal(t) for t in eaten]
        return Node("opaque", eaten[0].start, self._end_offset(),
                    [leaf for leaf in leaves if leaf is not None])

    # statements -----------------------------------------------------------

    def parse_block(self) -> Node:
        start = self.expect("{").start
        stmts = self._items(self.parse_statement, "}")
        return Node("block", start, self._end_offset(), stmts)

    def parse_statement(self) -> Node | None:
        t = self.peek()
        if t is None:
            return None
        if t.kind == "name" and self.at(":", 1):
            self.i += 2  # a label names the statement after it
            return self.parse_statement()
        if t.text in _STATEMENTS:
            return getattr(self, _STATEMENTS[t.text])()
        if t.kind == "name" and t.text in _OPAQUE_STATEMENT_KW:
            # `using (...)` as a statement, try/switch/lock blocks, ...
            return self._try_local_decl("using") or self.parse_opaque_member()
        decl = self._try_local_decl()
        if decl is not None:
            return decl
        expr = self._expr(";", ";")
        if not expr.children:
            return None
        return Node("expr_stmt", expr.start, expr.end, [expr])

    def _body(self) -> list[Node]:
        """The controlled statement of if/else/loops, if there is one."""
        stmt = self.parse_statement()
        return [] if stmt is None else [stmt]

    def _condition(self, *ends: str) -> Node:
        """`( expr )`; the expr's span runs through the `)` and any `ends`."""
        self.expect("(")
        return self._expr(")", ")", *ends)

    def parse_if(self) -> Node:
        start = self.expect("if").start
        children = [self._condition(), *self._body()]
        if self._skip("else"):
            children += self._body()
        return Node("if_stmt", start, self._end_offset(), children)

    def parse_while(self) -> Node:
        start = self.expect("while").start
        children = [self._condition(), *self._body()]
        return Node("loop", start, self._end_offset(), children)

    def parse_do_while(self) -> Node:
        start = self.expect("do").start
        children = self._body()
        self.expect("while")
        children.append(self._condition(";"))
        return Node("loop", start, self._end_offset(), children)

    def parse_for(self) -> Node:
        start = self.expect("for").start
        self.expect("(")
        children = self._enhanced_for_head() or self._for_clauses()
        self.expect(")")
        children += self._body()
        return Node("loop", start, self._end_offset(), children)

    def _enhanced_for_head(self) -> list[Node] | None:
        """java `Type name : iterable`, or None with the cursor unmoved."""
        saved = self.i
        p_type = self._try_type()
        if p_type is None or not (self.at_name() and self.at(":", 1)):
            self.i = saved
            return None
        var = self._loop_var(self.toks[saved].start, p_type, self.eat().text)
        self.expect(":")
        return [var, self._expr(")")]

    def _for_clauses(self) -> list[Node]:
        """`init; condition; update`, each of them optional."""
        init = self._try_local_decl()  # a declaration eats its own `;`
        if init is None:
            if not self.at(";"):
                init = self._expr(";")
            self._skip(";")
        clauses = [] if init is None else [init]
        if not self.at(";"):
            clauses.append(self._expr(";"))
        self._skip(";")
        if not self.at(")"):
            clauses.append(self._expr(")"))
        return clauses

    def parse_foreach(self) -> Node:
        start = self.expect("foreach").start
        self.expect("(")
        d_start = self._next_start()
        p_type = self._try_type() or "?"
        name = self.eat().text if self.at_name() else "?"
        var = self._loop_var(d_start, p_type, name)
        self._skip("in")
        children = [var, self._expr(")", ")"), *self._body()]
        return Node("loop", start, self._end_offset(), children)

    def _loop_var(self, start: int, type_name: str, name: str) -> Node:
        """The `decl_stmt` of an enhanced-for or foreach variable."""
        decl = Node("decl", start, self._end_offset(), [],
                    meta={"name": name, "type": type_name, "modifiers": []})
        return Node("decl_stmt", start, self._end_offset(), [decl],
                    meta={"type": type_name, "modifiers": []})

    def parse_return(self) -> Node:
        start = self.expect("return").start
        expr = self._expr(";")
        self._skip(";")
        children = [expr] if expr.children else []
        return Node("return_stmt", start, self._end_offset(), children)

    def _try_local_decl(self, keyword: str | None = None) -> Node | None:
        """A local declaration, after `keyword` if given, or None.  A local
        type (`class`, `record`, `interface`, `enum`, ...) or C# local
        function is one opaque statement, through its block or `;`."""
        saved = self.i
        if keyword is not None and not self._skip(keyword):
            return None
        mods = self._collect_modifiers()
        if self.at_name(1) and self.peek().text in _LOCAL_TYPE_KW:
            self.i = saved
            return self.parse_opaque_member()
        type_name = self._try_type()
        nxt = self.peek(1)
        if type_name is not None and self.at_name() and nxt is not None:
            if nxt.text in ("=", ",", ";", "["):
                return self._declarators(mods, type_name,
                                         self.toks[saved].start)
            if nxt.text in ("(", "<"):  # a C# local function
                self.i = saved
                return self.parse_opaque_member()
        self.i = saved
        return None

    def _declarators(self, mods: list[str], type_name: str, start: int) -> Node:
        """`name[] = init, name2, ...;` of a field or local declaration."""
        decls: list[Node] = []
        while True:
            d_start = self._next_start()
            name = self.eat().text
            dims = self._dims()
            if self.at("=") and self.peek(1) is None:
                raise self._end_of_input("expected an initializer, found "
                                         "end of input")
            init = self.parse_expr_atoms({",", ";"}) if self._skip("=") else []
            decls.append(Node("decl", d_start, self._end_offset(), init,
                              meta={"name": name, "type": type_name + dims,
                                    "modifiers": mods}))
            if not (self._skip(",") and self.at_name()):
                break
        self._skip(";")
        return Node("decl_stmt", start, self._end_offset(), decls,
                    meta={"type": type_name, "modifiers": mods})

    def _dims(self) -> str:
        """Skip the brackets after a declarator name, one `[]` for each."""
        dims = ""
        while self.at("["):
            self._skip_item()
            dims += "[]"
        return dims

    # types ----------------------------------------------------------------

    def _try_type(self) -> str | None:
        """Parse a type reference; generic arguments are erased."""
        t = self.peek()
        if (t is None or t.kind != "name" or t.text in MODIFIERS
                or t.text in _NOT_TYPES):
            return None
        saved = self.i
        segs = [self.eat().text] if t.text in PRIMITIVES else self._dotted()
        if not self._skip_generic_args():
            self.i = saved
            return None
        dims = ""
        while self.at("[") and self.at("]", 1):
            self.i += 2
            dims += "[]"
        if self.at("?"):  # csharp nullable annotation
            nxt = self.peek(1)
            if nxt is not None and (nxt.kind == "name" or nxt.text in (")", ",", ">")):
                self.eat()
        return ".".join(segs) + dims

    def _skip_generic_args(self) -> bool:
        """Skip a balanced `<...>` if present; False means unbalanced."""
        if not self.at("<"):
            return True
        saved = self.i
        depth = 0
        while self.peek() is not None:
            t = self.peek()
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
                if depth == 0:
                    self.eat()
                    return True
            elif t.text in (";", "{", "}", ")") or t.kind in ("str", "char"):
                break  # comparison chain, not generics
            self.eat()
        self.i = saved
        return False

    # expressions ----------------------------------------------------------

    def _expr(self, stop: str, *ends: str) -> Node:
        """One `expr` over the atoms before `stop`.

        Its span runs through the `ends` eaten after the atoms: a `)` must
        be there, a `;` may be missing.
        """
        start = self._next_start()
        atoms = self.parse_expr_atoms({stop})
        for end in ends:
            if end == ")":
                self.expect(end)
            else:
                self._skip(end)
        return Node("expr", start, self._end_offset(), atoms)

    def parse_expr_atoms(self, stop: set[str]) -> list[Node]:
        """Flatten one expression into call/literal/name atoms.

        Operators carry no enriched token and are dropped here; grouping
        parens, index brackets and initializer braces recurse so the stop
        set only applies at the top nesting level.
        """
        atoms: list[Node] = []
        while True:
            t = self.peek()
            if t is None or t.text in stop or t.text == "}":
                break  # an unmatched `}` ends the expression
            literal = _literal(t)
            if literal is not None:
                self.eat()
                atoms.append(literal)
            elif t.text == "new":
                atoms.extend(self._parse_new())
            elif t.kind == "name":
                atoms.extend(self._parse_name_atom())
            elif t.text in _GROUP_CLOSE:
                atoms.extend(self._group())
            else:
                self.eat()  # operator or separator: no token survives
        return atoms

    def _group(self) -> list[Node]:
        """The atoms inside one `(...)`, `[...]` or `{...}`."""
        close = _GROUP_CLOSE[self.eat().text]
        atoms = self.parse_expr_atoms({close})
        self._skip(close)
        return atoms

    def _parse_name_atom(self) -> list[Node]:
        start = self.peek().start
        segs = self._dotted()
        if self.at("("):
            return self._call_chain(segs, start, new=False)
        return [Node("nameref", start, self._end_offset(), meta={"segs": segs})]

    def _parse_new(self) -> list[Node]:
        start = self.expect("new").start
        type_name = self._try_type()
        if type_name is None:
            return []
        segs = type_name.replace("[]", "").split(".")
        if self.at("("):
            atoms = self._call_chain(segs, start, new=True)
        else:
            atoms = [Node("nameref", start, self._end_offset(),
                          meta={"segs": segs, "is_type": True})]
            while self.at("["):
                atoms.extend(self._group())
        if self.at("{"):  # object, collection or array initializer
            atoms.extend(self._group())
        return atoms

    def _call_chain(self, segs: list[str], start: int, new: bool) -> list[Node]:
        """A call and the member calls chained onto it."""
        atoms = [self._parse_call(segs, start, new)]
        # chained member calls have an unknowable owner type
        while self.at(".") and self.at_name(1) and self.at("(", 2):
            self.i += 1
            member = self.eat()
            atoms.append(self._parse_call([member.text], member.start, False,
                                          owner_unknown=True))
        return atoms

    def _parse_call(self, segs: list[str], start: int, new: bool,
                    owner_unknown: bool = False) -> Node:
        self.expect("(")
        args: list[Node] = []
        while self.peek() is not None and not self.at(")"):
            a_start = self.peek().start
            atoms = self.parse_expr_atoms({",", ")", ";"})
            if atoms:
                args.append(Node("argument", a_start, self._end_offset(), atoms))
            if not self._skip(","):
                break  # at `)`, `;`, an unmatched `}` or the end of input
        self._skip(")")
        return Node("func_call", start, self._end_offset(), args,
                    meta={"segs": segs, "new": new,
                          "owner_unknown": owner_unknown})


def _literal(t: Tok) -> Node | None:
    """The literal leaf of a literal token or of true/false/null."""
    if t.kind == "name":
        kind = _KEYWORD_LITERALS.get(t.text)
    else:
        kind = _TOKEN_LITERALS.get(t.kind)
    if kind is None:
        return None
    return Node("literal", t.start, t.end, text=t.text, meta={"kind": kind})


def parse(source: str, language: str) -> Node:
    """Parse one source file into its `unit` node; see the module
    docstring for the contract."""
    if language not in ("java", "csharp"):
        raise ValueError(f"unsupported language: {language}")
    parser = Parser(source, language)
    try:
        return parser.parse_unit()
    except RecursionError:
        # the productions recurse once per nested block, group or clause
        t = parser.peek() or parser.toks[-1]
        raise ParseError("nesting too deep", t.line, t.col) from None
