"""Parser, normalizer and element extraction tests.

The four golden listings are the anchor: they pin signature substitution,
qualified-name resolution and the enriched stream format exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codemap.syntax import (LITERAL_KINDS, STRUCT_KEYWORDS,
                            EnrichedTokenStream, ParseError, SymbolTable,
                            extract_elements, normalize, parse,
                            read_elements, read_stream, write_elements,
                            write_stream)
from codemap.syntax.symbols import canon_primitive

# ---------------------------------------------------------------------------
# golden listings


def test_golden_primitive_decl():
    tree = parse("int i;", "java")
    stream = normalize(tree, structure=False)
    assert [t.text for t in stream.tokens] == ["int", "int_id"]


def test_golden_imported_type_name_in_stream():
    source = "using Antlr.Runtime.Tree;\nCommonTree tree;"
    stream = normalize(parse(source, "csharp"), structure=False)
    assert stream.tokens[0].text == "Antlr.Runtime.Tree.CommonTree"


def test_golden_method_call_on_local():
    sym = SymbolTable()
    sym.declare("lexer", "Antlr.Runtime.SlimLexer")
    tree = parse("lexer.Emit();", "csharp")
    stream = normalize(tree, sym, structure=False)
    assert [t.text for t in stream.tokens] == ["Antlr.Runtime.SlimLexer.Emit()"]


def test_golden_call_on_primitive_local_names_the_type():
    stream = normalize(parse("int x; x.Foo();", "java"), structure=False)
    assert [t.text for t in stream.tokens] == ["int", "int_id", "int.Foo()"]


GOLDEN_CS = """using System;

class Program {
    static void Main() {
        Console.WriteLine("out");
    }
}
"""

GOLDEN_STMT_TOKENS = ["expr_stmt", "expr", "func_call",
                      "System.Console.WriteLine(String)", "argument",
                      "literal_type", "string"]


def test_golden_console_statement_element():
    tree = parse(GOLDEN_CS, "csharp")
    stream = normalize(tree)
    elements = extract_elements(tree, stream)
    statements = [e for e in elements if e.granularity == "statement"]
    assert len(statements) == 1
    owned = [stream.tokens[i].text for i in statements[0].token_indices]
    assert owned == GOLDEN_STMT_TOKENS


# ---------------------------------------------------------------------------
# parse shapes


def test_parse_primitive_decl_shape():
    tree = parse("int i;", "java")
    assert tree.root.kind == "unit"
    (stmt,) = tree.root.children
    assert stmt.kind == "decl_stmt"
    (decl,) = stmt.children
    assert decl.kind == "decl"
    assert decl.meta["name"] == "i"
    assert decl.meta["type"] == "int"


def test_parse_empty_file():
    tree = parse("", "java")
    assert tree.root.kind == "unit"
    assert tree.root.children == []


def test_parse_call_shape():
    tree = parse('Console.WriteLine("out");', "csharp")
    (stmt,) = tree.root.children
    assert stmt.kind == "expr_stmt"
    (expr,) = stmt.children
    assert expr.kind == "expr"
    (call,) = expr.children
    assert call.kind == "func_call"
    (arg,) = call.children
    assert arg.kind == "argument"
    (lit,) = arg.children
    assert lit.kind == "literal"
    assert lit.meta["kind"] == "string"


def test_parse_unsupported_language():
    with pytest.raises(ValueError):
        parse("int i;", "ruby")


def test_parse_unterminated_string_names_position():
    with pytest.raises(ParseError) as err:
        parse('String s = "oops;', "java")
    assert err.value.line == 1


def test_spans_nest():
    source = """package demo;
class A {
    int add(int x) {
        if (x > 0) { return x; }
        return 0;
    }
}
"""
    tree = parse(source, "java")

    def check(node):
        for child in node.children:
            assert node.start <= child.start <= child.end <= node.end
            check(child)

    check(tree.root)


def test_opaque_keeps_identifiers():
    source = "class A { void f() { try { g(); } catch (E e) { } } }"
    tree = parse(source, "java")
    opaques = [n for n in tree.root.walk() if n.kind == "opaque"]
    assert opaques
    leaves = [leaf.text for node in opaques for leaf in node.children
              if leaf.kind == "name"]
    assert "g" in leaves


# ---------------------------------------------------------------------------
# resolution rules


def test_unknown_name_falls_back():
    stream = normalize(parse("Foo;", "csharp"), SymbolTable(),
                       structure=False)
    assert [t.text for t in stream.tokens] == ["unk.Foo"]


def test_qualified_name_resolves_to_itself():
    stream = normalize(parse("Antlr.Runtime.Tree.CommonTree;", "csharp"),
                       SymbolTable(), structure=False)
    assert [t.text for t in stream.tokens] == ["Antlr.Runtime.Tree.CommonTree"]


def test_wildcard_import_qualifies():
    source = "import java.util.*;\nclass A { void f() { List x; } }"
    stream = normalize(parse(source, "java"))
    texts = [t.text for t in stream.tokens]
    assert "java.util.List" in texts


def test_field_resolves_inside_method():
    source = """package demo;
import demo.io.Writer;
class A {
    void f() { w.flush(); }
    Writer w;
}
"""
    stream = normalize(parse(source, "java"))
    texts = [t.text for t in stream.tokens]
    assert "demo.io.Writer.flush()" in texts


def test_bare_call_owner_is_enclosing_class():
    source = "package demo;\nclass A { void f() { g(); } void g() { } }"
    stream = normalize(parse(source, "java"))
    texts = [t.text for t in stream.tokens]
    assert "demo.A.g()" in texts


def test_boolean_spellings_share_one_placeholder():
    java = normalize(parse("boolean flag;", "java"), structure=False)
    cs = normalize(parse("bool flag;", "csharp"), structure=False)
    assert [t.text for t in java.tokens] == ["bool", "bool_id"]
    assert [t.text for t in cs.tokens] == ["bool", "bool_id"]


def test_method_signature_arg_types():
    source = """package demo;
class A {
    int add(int x, String s) { return x; }
}
"""
    stream = normalize(parse(source, "java"))
    texts = [t.text for t in stream.tokens]
    assert "demo.A.add(int,String)" in texts


def test_literal_argument_kinds():
    source = "class A { void f() { g(1, 2.5, 'c', true, null); } }"
    stream = normalize(parse(source, "java"))
    sigs = [t.text for t in stream.tokens if "g(" in t.text]
    assert sigs == ["A.g(int,double,char,bool,?)"]


# ---------------------------------------------------------------------------
# stream and element invariants

PUNCT = set("{};,()")

SAMPLE = """package demo;
import demo.io.Channel;
class Sample {
    static final int LIMIT = 10;
    Channel chan;
    int count(int n) {
        int total = 0;
        for (int i = 0; i < n; i = i + 1) {
            total = total + i;
        }
        if (total > LIMIT) {
            chan.send(total);
            return LIMIT;
        }
        return total;
    }
}
"""


def test_no_punctuation_tokens():
    stream = normalize(parse(SAMPLE, "java"))
    for token in stream.tokens:
        assert token.text not in PUNCT
        assert " " not in token.text


def test_struct_keyword_spans_empty_others_not():
    stream = normalize(parse(SAMPLE, "java"))
    for token in stream.tokens:
        if token.kind == "struct_kw":
            assert token.start == token.end
        else:
            assert token.start < token.end
            assert 0 <= token.start <= token.end <= len(SAMPLE)


def test_determinism():
    first = normalize(parse(SAMPLE, "java"))
    second = normalize(parse(SAMPLE, "java"))
    assert [(t.text, t.kind) for t in first.tokens] == \
        [(t.text, t.kind) for t in second.tokens]


def test_single_method_gives_three_granularities():
    source = "class A { void f() { g(); } }"
    tree = parse(source, "java")
    stream = normalize(tree)
    elements = extract_elements(tree, stream)
    assert [e.granularity for e in elements] == \
        ["method", "statement", "expression"]


def test_element_nesting():
    tree = parse(SAMPLE, "java")
    stream = normalize(tree)
    elements = extract_elements(tree, stream)
    methods = [e for e in elements if e.granularity == "method"]
    statements = [e for e in elements if e.granularity == "statement"]
    expressions = [e for e in elements if e.granularity == "expression"]
    assert methods and statements and expressions
    for expr in expressions:
        assert any(s.start <= expr.start and expr.end <= s.end
                   for s in statements)
    for stmt in statements:
        if stmt.start >= methods[0].start:
            assert any(m.start <= stmt.start and stmt.end <= m.end
                       for m in methods)


def test_element_tokens_within_stream():
    tree = parse(SAMPLE, "java")
    stream = normalize(tree)
    for element in extract_elements(tree, stream):
        assert element.token_indices[-1] < len(stream.tokens)
        assert list(element.token_indices) == \
            list(range(element.token_indices[0],
                       element.token_indices[-1] + 1))


def test_extract_requires_matching_stream():
    tree = parse(SAMPLE, "java")
    foreign = EnrichedTokenStream(file="", language="java",
                                  tokens=normalize(tree).tokens)
    with pytest.raises(ValueError):
        extract_elements(tree, foreign)


# ---------------------------------------------------------------------------
# file round trips


def test_stream_file_round_trip(tmp_path):
    tree = parse(SAMPLE, "java")
    stream = normalize(tree, file="demo/Sample.java")
    out = tmp_path / "Sample.stream"
    write_stream(stream, out, comments=["tool test"])
    language, source, tokens = read_stream(out)
    assert language == "java"
    assert source == "demo/Sample.java"
    assert tokens == [t.text for t in stream.tokens]


def test_stream_file_header_required(tmp_path):
    out = tmp_path / "bad.stream"
    out.write_text("no header\n")
    with pytest.raises(ValueError):
        read_stream(out)


def test_element_file_round_trip(tmp_path):
    tree = parse(SAMPLE, "java")
    stream = normalize(tree)
    elements = extract_elements(tree, stream)
    out = tmp_path / "Sample.elements"
    write_elements(elements, out, comments=["tool test"])
    assert read_elements(out) == elements


# ---------------------------------------------------------------------------
# randomized structural fuzzing: generated files must normalize without
# error, with no punctuation leaking through

_NAMES = ("alpha", "beta", "gamma", "delta")
_TYPES = ("int", "long", "double", "bool", "String")


@st.composite
def _random_class(draw):
    lang = draw(st.sampled_from(["java", "csharp"]))
    body = []
    for _ in range(draw(st.integers(0, 3))):
        t = draw(st.sampled_from(_TYPES))
        if t == "bool" and lang == "java":
            t = "boolean"
        name = draw(st.sampled_from(_NAMES))
        body.append(f"    {t} {name};")
    stmts = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.integers(0, 3))
        name = draw(st.sampled_from(_NAMES))
        if kind == 0:
            stmts.append(f"        int {name} = {draw(st.integers(0, 99))};")
        elif kind == 1:
            stmts.append(f"        helper({draw(st.integers(0, 9))});")
        elif kind == 2:
            stmts.append(f"        if ({name} > 0) {{ return; }}")
        else:
            stmts.append(f"        while ({name} > 0) {{ helper(1); }}")
    method = "    void run() {\n" + "\n".join(stmts) + "\n    }"
    source = "class Fuzz {\n" + "\n".join(body) + "\n" + method + "\n}"
    return source, lang


@given(_random_class())
@settings(max_examples=60, deadline=None)
def test_generated_sources_normalize(case):
    source, lang = case
    tree = parse(source, lang)
    stream = normalize(tree)
    for token in stream.tokens:
        assert token.text
        assert token.text not in PUNCT
        assert " " not in token.text
        if token.kind == "struct_kw":
            assert token.text in STRUCT_KEYWORDS
        elif token.kind == "literal_kind":
            assert token.text in LITERAL_KINDS
    for node in tree.root.walk():
        lo, hi = stream.node_ranges[id(node)]
        if node.kind in STRUCT_KEYWORDS and hi > lo:
            assert stream.tokens[lo].kind == "struct_kw"
            assert stream.tokens[lo].text == node.kind
    elements = extract_elements(tree, stream)
    for element in elements:
        assert element.token_indices[-1] < len(stream.tokens)


# ---------------------------------------------------------------------------
# primitive array creation: the element type is a primitive whatever the
# file imports, so it is never namespace-qualified

_PRIMITIVES = {
    "java": ("int", "long", "float", "double", "boolean", "char", "byte",
             "short"),
    "csharp": ("int", "long", "float", "double", "bool", "char", "byte",
               "short", "uint", "ulong", "ushort", "sbyte", "decimal"),
}
_SEGMENT = st.sampled_from(["System", "java", "util", "demo", "io", "Text"])


@st.composite
def _array_creation(draw):
    lang = draw(st.sampled_from(["java", "csharp"]))
    prim = draw(st.sampled_from(_PRIMITIVES[lang]))
    header = []
    for _ in range(draw(st.integers(0, 3))):
        name = ".".join(draw(st.lists(_SEGMENT, min_size=1, max_size=3)))
        if lang == "java":
            tail = ".*" if draw(st.booleans()) else ".Widget"
            header.append(f"import {name}{tail};")
        else:
            header.append(f"using {name};")
    prefix = "\n".join(header) + "\nclass A { void f() { x = "
    source = prefix + f"new {prim}[{draw(st.integers(0, 99))}]; }} }}"
    return source, lang, prim, len(prefix)


@given(_array_creation())
@settings(max_examples=60, deadline=None)
def test_primitive_array_creation_never_qualified(case):
    source, lang, prim, new_at = case
    stream = normalize(parse(source, lang))
    created = [t.text for t in stream.tokens if t.start == new_at]
    assert created == [canon_primitive(prim)]
    assert not any(ch.isspace() for ch in created[0])
