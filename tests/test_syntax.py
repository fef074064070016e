"""Parser, normalizer and element extraction tests.

The four golden listings are the anchor: they pin signature substitution,
qualified-name resolution and the enriched stream format exactly.
"""

import re
import textwrap
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codemap.syntax import (LITERAL_KINDS, STRUCT_KEYWORDS,
                            EnrichedTokenStream, ParseError, SymbolTable,
                            element_ids, extract_elements, id_granularity,
                            normalize, parse, read_elements, read_stream,
                            write_elements, write_stream)
from codemap.syntax import elements
from codemap.syntax.lexer import lex
from codemap.syntax.symbols import canon_primitive

# ---------------------------------------------------------------------------
# golden listings


def listing(stream):
    """A stream in the listings' form: its tokens without the structural
    keywords."""
    return [token for token in stream.tokens if token not in STRUCT_KEYWORDS]


def test_golden_primitive_decl():
    tree = parse("int i;", "java")
    assert listing(normalize(tree)) == ["int", "int_id"]


def test_golden_imported_type_name_in_stream():
    source = "using Antlr.Runtime.Tree;\nCommonTree tree;"
    stream = normalize(parse(source, "csharp"))
    assert listing(stream)[0] == "Antlr.Runtime.Tree.CommonTree"


def test_golden_method_call_on_local():
    sym = SymbolTable()
    sym.declare("lexer", "Antlr.Runtime.SlimLexer")
    tree = parse("lexer.Emit();", "csharp")
    assert listing(normalize(tree, sym)) == \
        ["Antlr.Runtime.SlimLexer.Emit()"]


def test_golden_call_on_primitive_local_names_the_type():
    stream = normalize(parse("int x; x.Foo();", "java"))
    assert listing(stream) == ["int", "int_id", "int.Foo()"]


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
    statements = [row for row in extract_elements(tree, stream)
                  if row[0] == "statement"]
    assert len(statements) == 1
    first, last = statements[0][3:5]
    assert stream.tokens[first:last + 1] == GOLDEN_STMT_TOKENS


# ---------------------------------------------------------------------------
# parse shapes


def test_parse_primitive_decl_shape():
    tree = parse("int i;", "java")
    assert tree.kind == "unit"
    (stmt,) = tree.children
    assert stmt.kind == "decl_stmt"
    (decl,) = stmt.children
    assert decl.kind == "decl"
    assert decl.meta["name"] == "i"
    assert decl.meta["type"] == "int"


def test_parse_empty_file():
    tree = parse("", "java")
    assert tree.kind == "unit"
    assert tree.children == []


def test_parse_call_shape():
    tree = parse('Console.WriteLine("out");', "csharp")
    (stmt,) = tree.children
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


DEEP_SOURCES = {
    "blocks": "class A { void f() " + "{" * 400 + "}" * 400 + " }",
    "parentheses": "class A { int f() { return " + "(" * 600 + "1"
                   + ")" * 600 + "; } }",
    "try_blocks": "class A { void f() { try " + "{" * 600 + "}" * 600
                  + " catch (E e) { } } }",
}


@pytest.mark.parametrize("name", sorted(DEEP_SOURCES))
def test_deep_nesting_is_a_parse_error(name):
    # the productions recurse once per level: too deep a source raises
    # ParseError at the token the parser had reached
    source = DEEP_SOURCES[name]
    with pytest.raises(ParseError, match="nesting too deep") as err:
        parse(source, "java")
    assert err.value.line == 1
    assert source[err.value.col - 1] in "{("


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

    check(tree)


def test_for_with_declared_init_and_empty_condition():
    tree = parse("for (int i = 0; ; i++) { } x();", "java")
    loop, after = tree.children
    assert loop.kind == "loop"
    assert [n.kind for n in loop.children] == ["decl_stmt", "expr", "block"]
    decl_stmt, update, _ = loop.children
    assert decl_stmt.children[0].meta["name"] == "i"
    assert [n.meta["segs"] for n in update.children] == [["i"]]
    assert (update.start, update.end) == (18, 21)
    assert after.kind == "expr_stmt"


def test_opaque_keeps_identifiers():
    source = "class A { void f() { try { g(); } catch (E e) { } } }"
    tree = parse(source, "java")
    opaques = [n for n in tree.walk() if n.kind == "opaque"]
    assert opaques
    leaves = [leaf.text for node in opaques for leaf in node.children
              if leaf.kind == "name"]
    assert "g" in leaves


# an opaque statement ends at a `)` or `]` that closes nothing, too
@pytest.mark.parametrize("language", ["java", "csharp"])
@pytest.mark.parametrize("body", ["x = 1 }", "lbl: }", "break); }",
                                  "throw x]; }"],
                         ids=["statement_without_semicolon", "bare_label",
                              "opaque_then_paren", "opaque_then_bracket"])
def test_closing_brace_after_an_open_statement_ends_its_block(language,
                                                             body):
    source = f"class A {{ void f() {{ {body} int g() {{ return 1; }} }}"
    tokens = normalize(parse(source, language)).tokens
    assert tokens.count("func_decl") == 2
    at = tokens.index("A.g()")
    assert tokens[at - 2:at + 1] == ["func_decl", "int", "A.g()"]


def _methods(source, language):
    """(label, tokens) of each method of a source, in source order."""
    tree = parse(source, language)
    stream = normalize(tree)
    return [(label, tuple(stream.tokens[first:last + 1]))
            for granularity, _, _, first, last, label
            in extract_elements(tree, stream) if granularity == "method"]


# a damaged member leaves the method after it as it was undamaged, or the
# file is refused; C# spells the base list with `:`
@pytest.mark.parametrize("language", ["java", "csharp"])
@pytest.mark.parametrize("damaged, intact", [
    ("class A { A(int c { x = c; } int g() { return 1; } }",
     "class A { A(int c) { x = c; } int g() { return 1; } }"),
    ("class A { int x = foo(1, 2; int g() { return 1; } }",
     "class A { int x = foo(1, 2); int g() { return 1; } }"),
    ("class A extends B } class C { int g() { return 1; } }", None),
], ids=["constructor_parameters", "field_call_arguments", "base_list"])
def test_damaged_member_keeps_the_next_method(language, damaged, intact):
    if language == "csharp":
        damaged = damaged.replace(" extends ", " : ")
    if intact is None:
        with pytest.raises(ParseError):
            parse(damaged, language)
        return
    g = dict(_methods(intact, language))["A.g()"]
    assert dict(_methods(damaged, language))["A.g()"] == g


@pytest.mark.parametrize("language", ["java", "csharp"])
def test_method_without_body_before_closing_brace_gets_none(language):
    source = "class A { void f() } int g() { return 1; } }"
    assert dict(_methods(source, language))["A.f()"] == (
        "func_decl", "void", "A.f()")


# a `;` inside a skipped or opaque group is legal, so it ends nothing
@pytest.mark.parametrize("language, member", [
    ("java", "void f() { try (A a = f(); B b = g()) { h(); } }"),
    ("csharp", "A() : base(() => { for (int i = 0; i < n; i++) { } }) { }"),
], ids=["try_with_two_resources", "for_in_base_call_lambda"])
def test_semicolon_in_parentheses_keeps_the_next_method(language, member):
    source = f"class A {{ {member} int g() {{ return 1; }} }}"
    assert "A.g()" in dict(_methods(source, language))


# a `}` that closes nothing ends what is open, and at the top level is
# skipped, so no parser loop waits on it
@pytest.mark.parametrize("source, kinds", [
    ("f(a }", ["expr_stmt"]),
    ("f(a } g();", ["expr_stmt", "expr_stmt"]),
    ("} } int x;", ["decl_stmt"]),
    ("class A { int a, } int y;", ["class", "decl_stmt"]),
], ids=["call", "call_then_statement", "top_level", "declarators"])
def test_unmatched_closing_brace_does_not_stall(source, kinds):
    tree = parse(source, "java")
    assert [node.kind for node in tree.children] == kinds


# ---------------------------------------------------------------------------
# lexer table: (kind, text, start, end, line, col) of every token, or the
# (message, line, col) of the error

LEX_ROWS = [
    pytest.param("0x1F_aL 1_000 1e5 1e-5f 1.5E+3d 10m 3UL", [
        ("num", "0x1F_aL", 0, 7, 1, 1), ("num", "1_000", 8, 13, 1, 9),
        ("num", "1e5", 14, 17, 1, 15), ("num", "1e-5f", 18, 23, 1, 19),
        ("num", "1.5E+3d", 24, 31, 1, 25), ("num", "10m", 32, 35, 1, 33),
        ("num", "3UL", 36, 39, 1, 37)], id="numbers"),
    pytest.param("1. .5 1e", [
        ("num", "1", 0, 1, 1, 1), ("punct", ".", 1, 2, 1, 2),
        ("punct", ".", 3, 4, 1, 4), ("num", "5", 4, 5, 1, 5),
        ("num", "1", 6, 7, 1, 7), ("name", "e", 7, 8, 1, 8)],
        id="dot_and_exponent_need_digits"),
    pytest.param('@"a""b"', [("str", '@"a""b"', 0, 7, 1, 1)], id="verbatim"),
    pytest.param('x $"x" y', [
        ("name", "x", 0, 1, 1, 1), ("str", '"x"', 3, 6, 1, 3),
        ("name", "y", 7, 8, 1, 8)], id="interpolated_placed_at_dollar"),
    pytest.param('@$"x"', [
        ("punct", "@", 0, 1, 1, 1), ("str", '"x"', 2, 5, 1, 2)],
        id="at_dollar"),
    pytest.param('$@"a{x}b" @$"x"', [
        ("str", '@"a{x}b"', 1, 9, 1, 1), ("punct", "@", 10, 11, 1, 11),
        ("str", '"x"', 12, 15, 1, 12)], id="dollar_at"),
    pytest.param('"""\n  a\\"""\n  """;', [
        ("str", '"""\n  a\\"""\n  """', 0, 17, 1, 1),
        ("punct", ";", 17, 18, 3, 6)], id="text_block"),
    pytest.param("a # if X\nb", [
        ("name", "a", 0, 1, 1, 1), ("name", "b", 9, 10, 2, 1)],
        id="directive_mid_line"),
    pytest.param("a //", [("name", "a", 0, 1, 1, 1)], id="comment_at_end"),
    pytest.param("/* c */x", [("name", "x", 7, 8, 1, 8)], id="block_comment"),
    pytest.param("\ta\r\n\t\tb", [
        ("name", "a", 1, 2, 1, 2), ("name", "b", 6, 7, 2, 3)],
        id="crlf_and_tab_columns"),
    pytest.param("a==b=c ->=>::??.?", [
        ("name", "a", 0, 1, 1, 1), ("punct", "==", 1, 3, 1, 2),
        ("name", "b", 3, 4, 1, 4), ("punct", "=", 4, 5, 1, 5),
        ("name", "c", 5, 6, 1, 6), ("punct", "->", 7, 9, 1, 8),
        ("punct", "=>", 9, 11, 1, 10), ("punct", "::", 11, 13, 1, 12),
        ("punct", "??", 13, 15, 1, 14), ("punct", ".", 15, 16, 1, 16),
        ("punct", "?", 16, 17, 1, 17)], id="operators"),
    pytest.param("a\fb\xa0c", [
        ("name", "a", 0, 1, 1, 1), ("punct", "\f", 1, 2, 1, 2),
        ("name", "b", 2, 3, 1, 3), ("punct", "\xa0", 3, 4, 1, 4),
        ("name", "c", 4, 5, 1, 5)], id="other_blanks_are_punct"),
    pytest.param("é٣ ٣x a$b", [
        ("name", "é٣", 0, 2, 1, 1), ("num", "٣", 3, 4, 1, 4),
        ("name", "x", 4, 5, 1, 5), ("name", "a$b", 6, 9, 1, 7)],
        id="unicode_names_and_digits"),
    pytest.param("½ Ⅻ ²", [
        ("name", "½", 0, 1, 1, 1), ("name", "Ⅻ", 2, 3, 1, 3),
        ("name", "²", 4, 5, 1, 5)], id="non_decimal_numerics_start_names"),
    pytest.param("x'' '\\'' \"a\\\"b\"", [
        ("name", "x", 0, 1, 1, 1), ("char", "''", 1, 3, 1, 2),
        ("char", "'\\''", 4, 8, 1, 5), ("str", '"a\\"b"', 9, 15, 1, 10)],
        id="escapes"),
    pytest.param("/* x", ("unterminated block comment", 1, 1),
                 id="open_block_comment"),
    pytest.param('"abc', ("unterminated string", 1, 1), id="open_string"),
    pytest.param("'a", ("unterminated char literal", 1, 1), id="open_char"),
    pytest.param('@"abc""', ("unterminated string", 1, 1),
                 id="verbatim_ends_in_escaped_quote"),
    pytest.param('"a\nb"', ("unterminated string", 1, 1),
                 id="newline_in_string"),
    pytest.param('"a\\', ("unterminated string", 1, 1),
                 id="backslash_at_end"),
    pytest.param("x\n  '\\", ("unterminated char literal", 2, 3),
                 id="char_backslash_at_end"),
    pytest.param('x $"abc', ("unterminated string", 1, 3),
                 id="open_interpolated_string"),
    pytest.param('$"a{(b ? "x" : "y")}c"', [
        ("str", '"a{(b ? "x" : "y")}c"', 1, 22, 1, 1)],
        id="string_in_interpolation_hole"),
    pytest.param('$"a{f("(")}"', [("str", '"a{f("(")}"', 1, 12, 1, 1)],
                 id="paren_string_in_interpolation_hole"),
    pytest.param('$"{{x}}"', [("str", '"{{x}}"', 1, 8, 1, 1)],
                 id="interpolation_escaped_braces"),
    # a hole the interpolated rule cannot close lexes as an ordinary string
    pytest.param('$"a{b"', [("str", '"a{b"', 1, 6, 1, 1)],
                 id="unclosed_interpolation_hole"),
    pytest.param('$"a}b"', [("str", '"a}b"', 1, 6, 1, 1)],
                 id="unopened_interpolation_hole"),
]


@pytest.mark.parametrize("source, expected", LEX_ROWS)
def test_lexer_table(source, expected):
    # the two tables differ only in raw strings; rows holding one are Java's
    for language in ("java",) if '"""' in source else ("java", "csharp"):
        if isinstance(expected, tuple):
            with pytest.raises(ParseError) as err:
                lex(source, language)
            message = str(err.value).split(" (line")[0]
            assert (message, err.value.line, err.value.col) == expected
        else:
            assert [(t.kind, t.text, t.start, t.end, t.line, t.col)
                    for t in lex(source, language)] == expected


@pytest.mark.parametrize("language", ["java", "csharp"])
def test_text_block_is_one_string_literal(language):
    plain = 'class A { String s = "x"; }'
    block = 'class A { String s = """\n    hello\n    """; }'
    assert (normalize(parse(block, language)).tokens
            == normalize(parse(plain, language)).tokens)
    assert [t.line for t in lex(block, language) if t.text == ";"] == [3]


@pytest.mark.parametrize("literal", [
    '"""C:\\temp\\"""',     # no escapes: the backslash ends nothing
    '""""a"""b""""',       # four quotes close only at four
    '$$"""{{x}}"""'],      # interpolation markers of any count
    ids=["backslash_before_close", "four_quotes", "double_dollar"])
def test_csharp_raw_string_is_one_literal(literal):
    source = f"s = {literal};"
    assert [(t.kind, t.text, t.start, t.col) for t in lex(source, "csharp")
            if t.kind == "str"] == [("str", literal.lstrip("$"),
                                     4 + literal.count("$"), 5)]
    streams = [normalize(parse(
        f"class A {{ string p = {text}; }}", "csharp")).tokens
        for text in (literal, '"x"')]
    assert streams[0] == streams[1]


@pytest.mark.parametrize("literal", [
    '$"a{(b ? "x" : "y")}c"', '$"a{f("(")}"'], ids=["ternary", "paren"])
def test_string_in_an_interpolation_hole_stays_in_its_literal(literal):
    streams = [normalize(parse(
        f"class A {{ string p = {text}; }}", "csharp")).tokens
        for text in (literal, '"x"')]
    assert streams[0] == streams[1]


def test_dollar_at_string_is_one_literal():
    streams = [normalize(parse(
        "class A { void f() { g(" + literal + "); } }", "csharp")).tokens
        for literal in ('$@"a{x}b"', '@$"a{x}b"')]
    assert streams[0] == streams[1]
    assert "A.g(String)" in streams[0]


@pytest.mark.parametrize("body,plain", [
    ("int @class = 1; g(@class);", "int x = 1; g(x);"),
    ("var @x = 2; h(@x);", "var x = 2; h(x);")], ids=["class", "var"])
def test_csharp_verbatim_identifier_is_a_name(body, plain):
    streams = [normalize(parse(
        f"class A {{ void f() {{ {text} }} }}", "csharp")).tokens
        for text in (body, plain)]
    assert streams[0] == streams[1]
    assert [(t.kind, t.text) for t in lex("@class @if", "csharp")] == [
        ("name", "@class"), ("name", "@if")]


@pytest.mark.parametrize("body", [
    "int @x = 1; g(x);", "int x = 1; g(@x);", "int x = 1; g(x);",
    "int @if = 1; g(@if);"],
    ids=["declared_verbatim", "used_verbatim", "plain", "keyword"])
def test_csharp_verbatim_and_plain_spellings_are_one_variable(body):
    tokens = normalize(parse(
        f"class A {{ void f() {{ {body} }} }}", "csharp")).tokens
    assert tokens[-3:] == ["A.g(int)", "argument", "int_id"]


def test_java_annotation_is_skipped():
    assert [(t.kind, t.text) for t in lex("@Override", "java")] == [
        ("punct", "@"), ("name", "Override")]
    streams = [normalize(parse(
        f"class A {{ {annotation}public int f() {{ return 1; }} }}",
        "java")).tokens for annotation in ("@Override ", "")]
    assert streams[0] == streams[1]
    assert "A.f()" in streams[0]


# ---------------------------------------------------------------------------
# resolution rules


def test_unknown_name_falls_back():
    stream = normalize(parse("Foo;", "csharp"), SymbolTable())
    assert listing(stream) == ["unk.Foo"]


def test_qualified_name_resolves_to_itself():
    stream = normalize(parse("Antlr.Runtime.Tree.CommonTree;", "csharp"),
                       SymbolTable())
    assert listing(stream) == ["Antlr.Runtime.Tree.CommonTree"]


def test_wildcard_import_qualifies():
    source = "import java.util.*;\nclass A { void f() { List x; } }"
    stream = normalize(parse(source, "java"))
    assert "java.util.List" in stream.tokens


def test_field_resolves_inside_method():
    source = """package demo;
import demo.io.Writer;
class A {
    void f() { w.flush(); }
    Writer w;
}
"""
    stream = normalize(parse(source, "java"))
    assert "demo.io.Writer.flush()" in stream.tokens


def test_bare_call_owner_is_enclosing_class():
    source = "package demo;\nclass A { void f() { g(); } void g() { } }"
    stream = normalize(parse(source, "java"))
    assert "demo.A.g()" in stream.tokens


# each namespace qualifies its own classes, nested ones joined; a class
# outside every namespace gets no prefix
@pytest.mark.parametrize("source, expected", [
    ("namespace N { namespace M { class A { A make() { return new A(); } } } }",
     ["class", "N.M.A", "block", "func_decl", "N.M.A", "N.M.A.make()",
      "block", "return_stmt", "expr", "func_call", "N.M.A()"]),
    ("namespace N1 { class X {} } "
     "namespace N2 { class A { A make() { return new A(); } } }",
     ["class", "N1.X", "block", "class", "N2.A", "block", "func_decl", "N2.A",
      "N2.A.make()", "block", "return_stmt", "expr", "func_call", "N2.A()"]),
    ("class Top {} namespace N { class A { Top t; } }",
     ["class", "Top", "block", "class", "N.A", "block", "decl_stmt", "decl",
      "Top", "Top"]),
], ids=["nested_namespaces", "second_namespace", "outside_every_namespace"])
def test_declared_class_is_named_by_its_namespaces(source, expected):
    assert normalize(parse(source, "csharp")).tokens == ["unit", *expected]


# a class name declared twice resolves by scope: the innermost enclosing
# class and the scopes around it first, then the file's first declaration
@pytest.mark.parametrize("language, source, expected", [
    ("csharp", "namespace N1 { class A {} } "
     "namespace N2 { class A { A make() { return new A(); } } }",
     ["class", "N1.A", "block", "class", "N2.A", "block", "func_decl", "N2.A",
      "N2.A.make()", "block", "return_stmt", "expr", "func_call", "N2.A()"]),
    ("java", "class A { class B {} } "
     "class C { class B { B make() { return new B(); } } }",
     ["class", "A", "block", "class", "A.B", "block", "class", "C", "block",
      "class", "C.B", "block", "func_decl", "C.B", "C.B.make()", "block",
      "return_stmt", "expr", "func_call", "C.B()"]),
    ("java", "package p; class A { class In {} } class B { In x; }",
     ["class", "p.A", "block", "class", "p.A.In", "block", "class", "p.B",
      "block", "decl_stmt", "decl", "p.A.In", "p.A.In"]),
], ids=["namespaces", "nested_classes", "nested_class_from_outside"])
def test_class_name_declared_twice_resolves_by_scope(language, source,
                                                     expected):
    assert normalize(parse(source, language)).tokens == ["unit", *expected]


@st.composite
def _class_nesting(draw):
    """A source of random namespace and class nestings, each class `C<n>`
    holding `C<n> make() { return new C<n>(); }` before its nested
    classes, and the qualified name of each class in source order."""
    lang = draw(st.sampled_from(["java", "csharp"]))
    qualified = []

    def items(prefix, depth, namespaces):
        parts = []
        for _ in range(draw(st.integers(0, 2 if depth < 3 else 0))):
            if namespaces and draw(st.booleans()):
                space = draw(st.sampled_from(["N", "M", "Outer.Inner"]))
                inner = items(f"{prefix}.{space}".lstrip("."), depth + 1, True)
                parts.append(f"namespace {space} {{ {inner} }}")
            else:
                name = f"C{len(qualified)}"
                qualified.append(f"{prefix}.{name}".lstrip("."))
                inner = items(qualified[-1], depth + 1, False)
                parts.append(f"class {name} {{ {name} make() "
                             f"{{ return new {name}(); }} {inner} }}")
        return " ".join(parts)

    package = ""
    if lang == "java" and draw(st.booleans()):
        package = draw(st.sampled_from(["p", "demo.io"]))
    body = items(package, 0, lang == "csharp")
    header = f"package {package};\n" if package else ""
    return header + body, lang, qualified


@given(_class_nesting())
@settings(max_examples=60, deadline=None)
def test_class_declaration_names_what_new_resolves_to(case):
    source, lang, qualified = case
    tokens = normalize(parse(source, lang)).tokens
    declared = [tokens[at + 1] for at, token in enumerate(tokens)
                if token == "class"]
    created = [tokens[at + 1].removesuffix("()")
               for at, token in enumerate(tokens) if token == "func_call"]
    assert declared == created == qualified


def test_boolean_spellings_share_one_placeholder():
    java = normalize(parse("boolean flag;", "java"))
    cs = normalize(parse("bool flag;", "csharp"))
    assert listing(java) == ["bool", "bool_id"]
    assert listing(cs) == ["bool", "bool_id"]


def test_method_signature_arg_types():
    source = """package demo;
class A {
    int add(int x, String s) { return x; }
}
"""
    stream = normalize(parse(source, "java"))
    assert "demo.A.add(int,String)" in stream.tokens


def test_literal_argument_kinds():
    source = "class A { void f() { g(1, 2.5, 'c', true, null); } }"
    stream = normalize(parse(source, "java"))
    sigs = [token for token in stream.tokens if "g(" in token]
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
        assert token not in PUNCT
        assert " " not in token


def test_determinism():
    first = normalize(parse(SAMPLE, "java"))
    second = normalize(parse(SAMPLE, "java"))
    assert first.tokens == second.tokens


def test_single_method_gives_three_granularities():
    source = "class A { void f() { g(); } }"
    tree = parse(source, "java")
    stream = normalize(tree)
    elements = extract_elements(tree, stream)
    assert [row[0] for row in elements] == \
        ["method", "statement", "expression"]


def test_generic_method_is_a_method_element():
    tree = parse("class A { public static <T extends Comparable<T>> T "
                 "max(T a, T b) { return a; } }", "java")
    elements = extract_elements(tree, normalize(tree))
    assert [(row[0], row[5]) for row in elements] == [
        ("method", "A.max(T,T)"), ("statement", "return_stmt"),
        ("expression", "expr")]


@pytest.mark.parametrize("wrap", ["{}", "class A {{ void f() {{ {} }} }}"],
                         ids=["top_level", "in_a_block"])
def test_csharp_using_declaration_declares_its_local(wrap):
    streams = [normalize(parse(wrap.format(body), "csharp")).tokens
               for body in ("using var r = Open(); r.Close();",
                            "var r = Open(); r.Close();")]
    assert streams[0] == streams[1]
    assert streams[0][-1] == "?.Close()"


def test_element_ids_count_ordinals_per_granularity():
    tree = parse("class A { int f() { int x = 1; return x; } "
                 "int g() { return 2; } }", "csharp")
    granularities = [row[0] for row in extract_elements(tree,
                                                        normalize(tree))]
    n = len(granularities)
    # a second file's rows restart the ordinals
    ids = element_ids(["b"] * 2 * n, ["src/A.cs"] * n + ["src/B.cs"] * n,
                      granularities * 2)
    assert len(ids) == len(set(ids)) == 2 * n
    assert [element_id.split(":", 2)[2] for element_id in ids[:n]] == \
        [element_id.split(":", 2)[2] for element_id in ids[n:]]
    for granularity in ("expression", "statement", "method"):
        ordinals = [element_id.rsplit(":", 1)[1] for element_id, kind
                    in zip(ids[:n], granularities) if kind == granularity]
        assert ordinals == [str(k) for k in range(len(ordinals))]
    assert [id_granularity(element_id) for element_id in ids] == \
        granularities * 2
    assert ids[0].startswith("b:src/A.cs:")


def test_element_nesting():
    tree = parse(SAMPLE, "java")
    stream = normalize(tree)
    spans = {granularity: [] for granularity in
             ("method", "statement", "expression")}
    for granularity, start, end, *_ in extract_elements(tree, stream):
        spans[granularity].append((start, end))
    methods, statements, expressions = spans.values()
    assert methods and statements and expressions
    for start, end in expressions:
        assert any(lo <= start and end <= hi for lo, hi in statements)
    for start, end in statements:
        if start >= methods[0][0]:
            assert any(lo <= start and end <= hi for lo, hi in methods)


def test_element_tokens_within_stream():
    tree = parse(SAMPLE, "java")
    stream = normalize(tree)
    for _, _, _, first, last, _ in extract_elements(tree, stream):
        assert 0 <= first <= last < len(stream.tokens)


def test_extract_requires_matching_stream():
    tree = parse(SAMPLE, "java")
    foreign = EnrichedTokenStream(tokens=normalize(tree).tokens)
    with pytest.raises(ValueError):
        extract_elements(tree, foreign)


# ---------------------------------------------------------------------------
# file round trips


def test_stream_file_round_trip(tmp_path):
    stream = normalize(parse(SAMPLE, "java"))
    out = tmp_path / "Sample.stream"
    write_stream(stream, out)
    assert out.read_text() == " ".join(stream.tokens) + "\n"
    assert read_stream(out) == stream.tokens


def test_stream_file_round_trip_with_provenance(tmp_path):
    stream = normalize(parse(SAMPLE, "java"))
    out = tmp_path / "Sample.stream"
    write_stream(stream, out, comments=["tool test", "seed 7"])
    assert out.read_text().splitlines()[:2] == ["# tool test", "# seed 7"]
    assert read_stream(out) == stream.tokens


def test_empty_stream_reads_back_empty(tmp_path):
    out = tmp_path / "Empty.stream"
    write_stream(EnrichedTokenStream([]), out, comments=["tool test"])
    assert out.read_text() == "# tool test\n\n"
    assert read_stream(out) == []


def test_stream_file_with_a_language_and_path_header_reads_its_tokens(
        tmp_path):
    # the earlier format's `#<language> <path>` header is a comment
    out = tmp_path / "A.java.tok"
    out.write_text("#java A.java\n# tool test\nclass A block\n")
    assert read_stream(out) == ["class", "A", "block"]


def test_element_file_round_trip(tmp_path):
    tree = parse(SAMPLE, "java")
    stream = normalize(tree)
    rows = [(side, path, *row) for side, path in
            (("a", "demo/Sample.java"), ("b", "demo/Sample.cs"))
            for row in extract_elements(tree, stream)]
    out = tmp_path / "elements.tsv"
    write_elements(rows, out, comments=["tool test"])
    table = read_elements(out)
    assert list(zip(*table[1:])) == rows
    assert table.line == list(range(2, len(rows) + 2))


def test_empty_element_table_reads_as_empty_columns(tmp_path):
    out = tmp_path / "elements.tsv"
    write_elements([], out, comments=["tool test"])
    table = read_elements(out)
    assert all(len(column) == 0 for column in table)
    assert table.first.dtype.kind == "i"


ELEMENT_ROWS = ["a\tA.java\tmethod\t0\t9\t0\t4\tA.f()",
                "b\tA.cs\tstatement\t2\t5\t1\t3\texpr_stmt",
                "b\tA.cs\texpression\t2\t4\t1\t2\texpr"]


@pytest.mark.parametrize("text, whole", [
    ("# provenance\n" + "\n".join(ELEMENT_ROWS) + "\n", True),
    ("\n".join(ELEMENT_ROWS), True),
    ("\ufeff# a\n# b\n" + "\r\n".join(ELEMENT_ROWS) + "\r\n", True),
    ("# provenance\n\n" + "\n".join(ELEMENT_ROWS) + "\n", False),
    ("\n# middle\n".join(ELEMENT_ROWS), False),
    (ELEMENT_ROWS[0] + "\n \t\t\t\t\t\t\t\n" + ELEMENT_ROWS[1], False),
    ("\n#".join(ELEMENT_ROWS), False),
], ids=["header", "no_header", "bom_crlf", "blank_line", "inner_comment",
        "whitespace_row", "comment_of_eight_fields"])
def test_element_table_read_whole_equals_line_by_line(tmp_path, text,
                                                      whole):
    out = tmp_path / "elements.tsv"
    out.write_bytes(text.encode("utf-8"))
    assert (elements._split_whole(out) is not None) == whole
    table = read_elements(out)
    want = elements._split_by_line(out)
    assert table.line == want[0]
    for got, expected in zip(table[1:], want[1:]):
        assert list(got) == list(expected)


# a long row and a short row whose fields add up to two rows' worth; in
# the second, the short row's fields would read as a shifted row of
# integer token indices
@pytest.mark.parametrize("long, short, fields", [
    (ELEMENT_ROWS[0] + "\tx", ELEMENT_ROWS[1].rsplit("\t", 1)[0], 9),
    (ELEMENT_ROWS[0] + "\tx\ta", "1\t2\t3\t4\t5\t6", 10)],
    ids=["nine_then_seven", "ten_then_six"])
def test_rows_of_other_widths_are_read_line_by_line(tmp_path, long, short,
                                                    fields):
    out = tmp_path / "elements.tsv"
    out.write_text(f"# provenance\n{long}\n{short}\n")
    assert elements._split_whole(out) is None
    with pytest.raises(ValueError, match="elements.tsv:2: expected 8 "
                                         f"fields, got {fields}"):
        read_elements(out)


@pytest.mark.parametrize("row, message", [
    ("a\tA.java\tstatement\t0\t5\t3\t2\tdecl_stmt",
     "token range 3-2 is empty"),
    ("a\tA.java\tclause\t0\t5\t0\t2\tdecl_stmt",
     "bad granularity: clause"),
    ("a\tA.java\tstatement\t0\t5\t0\t2", "expected 8 fields, got 7"),
    ("a\tA.java\tstatement\t0\t5\t0\t99999999999999999999\tdecl_stmt",
     "out of range"),
], ids=["reversed_range", "bad_granularity", "short_row", "huge_index"])
def test_malformed_element_row_names_its_line(tmp_path, row, message):
    out = tmp_path / "elements.tsv"
    good = "a\tA.java\tmethod\t0\t9\t0\t4\tA.f()"
    out.write_text(f"# provenance\n{good}\n{row}\n")
    with pytest.raises(ValueError, match=re.escape(message)) as raised:
        read_elements(out)
    line = "" if message == "out of range" else ":3"
    assert str(raised.value).startswith(f"{out}{line}: ")


# ---------------------------------------------------------------------------
# construct table: one compact rendering (kind, span, text, meta) per parser
# production, so a change to any production shows up as a changed line


def _meta_value(value):
    if isinstance(value, list):
        return ",".join(":".join(x) if isinstance(x, tuple) else x
                        for x in value)
    return value


def _render(node, depth=0):
    meta = " ".join(f"{k}={_meta_value(v)}"
                    for k, v in sorted(node.meta.items()) if k != "language")
    text = "" if node.text is None else f" {node.text}"
    lines = ["  " * depth + f"{node.kind} {node.start}-{node.end}{text}"
             + (f" {meta}" if meta else "")]
    for child in node.children:
        lines.extend(_render(child, depth + 1))
    return lines


# try/catch/finally is pinned as it parses today: the opaque scanner stops
# at the `(` or `{` after a continuation keyword, so everything from the
# catch clause on becomes one expression statement
CONSTRUCTS = [
    pytest.param(
        "java",
        'for (int i = 0; i < n; i++) { f(i); }',
        """
        loop 0-37
          decl_stmt 5-15 modifiers= type=int
            decl 9-14 modifiers= name=i type=int
              literal 13-14 0 kind=number
          expr 16-21
            nameref 16-17 segs=i
            nameref 20-21 segs=n
          expr 23-26
            nameref 23-24 segs=i
          block 28-37
            expr_stmt 30-35
              expr 30-35
                func_call 30-34 new=False owner_unknown=False segs=f
                  argument 32-33
                    nameref 32-33 segs=i
""", id="for_classic"),
    pytest.param(
        "java",
        'for (String s : items) g(s);',
        """
        loop 0-28
          decl_stmt 5-13 modifiers= type=String
            decl 5-13 modifiers= name=s type=String
          expr 16-21
            nameref 16-21 segs=items
          expr_stmt 23-28
            expr 23-28
              func_call 23-27 new=False owner_unknown=False segs=g
                argument 25-26
                  nameref 25-26 segs=s
""", id="for_enhanced"),
    pytest.param(
        "java",
        'for (;;) { }',
        """
        loop 0-12
          block 9-12
""", id="for_empty"),
    pytest.param(
        "csharp",
        'foreach (var x in xs) { Use(x); }',
        """
        loop 0-33
          decl_stmt 9-14 modifiers= type=var
            decl 9-14 modifiers= name=x type=var
          expr 18-21
            nameref 18-20 segs=xs
          block 22-33
            expr_stmt 24-31
              expr 24-31
                func_call 24-30 new=False owner_unknown=False segs=Use
                  argument 28-29
                    nameref 28-29 segs=x
""", id="foreach"),
    pytest.param(
        "java",
        'do { n--; } while (n > 0);',
        """
        loop 0-26
          block 3-11
            expr_stmt 5-9
              expr 5-9
                nameref 5-6 segs=n
          expr 19-26
            nameref 19-20 segs=n
            literal 23-24 0 kind=number
""", id="do_while"),
    pytest.param(
        "java",
        'if (a) f(); else if (b) g(); else h();',
        """
        if_stmt 0-38
          expr 4-6
            nameref 4-5 segs=a
          expr_stmt 7-11
            expr 7-11
              func_call 7-10 new=False owner_unknown=False segs=f
          if_stmt 17-38
            expr 21-23
              nameref 21-22 segs=b
            expr_stmt 24-28
              expr 24-28
                func_call 24-27 new=False owner_unknown=False segs=g
            expr_stmt 34-38
              expr 34-38
                func_call 34-37 new=False owner_unknown=False segs=h
""", id="if_else_if"),
    pytest.param(
        "java",
        'while (ok) { return x + 1; } return;',
        """
        loop 0-28
          expr 7-10
            nameref 7-9 segs=ok
          block 11-28
            return_stmt 13-26
              expr 20-25
                nameref 20-21 segs=x
                literal 24-25 1 kind=number
        return_stmt 29-36
""", id="while_return"),
    pytest.param(
        "csharp",
        'class A { int Twice(int x) => x * 2; }',
        """
        class 0-38 modifiers= name=A
          func_decl 10-36 modifiers= name=Twice params=int:x return_type=int
            return_stmt 30-36
              expr 30-36
                nameref 30-31 segs=x
                literal 34-35 2 kind=number
""", id="expression_bodied_method"),
    pytest.param(
        "java",
        'class A { A(int x) { this.x = x; } }',
        """
        class 0-36 modifiers= name=A
          func_decl 10-34 modifiers= name=A params=int:x return_type=None
            block 19-34
              expr_stmt 21-32
                expr 21-32
                  nameref 21-27 segs=this,x
                  nameref 30-31 segs=x
""", id="constructor"),
    pytest.param(
        "java",
        'class A { static int a = 1, b[] = {2, 3}, c; }',
        """
        class 0-46 modifiers= name=A
          decl_stmt 10-44 modifiers=static type=int
            decl 21-26 modifiers=static name=a type=int
              literal 25-26 1 kind=number
            decl 28-40 modifiers=static name=b type=int[]
              literal 35-36 2 kind=number
              literal 38-39 3 kind=number
            decl 42-43 modifiers=static name=c type=int
""", id="field_declarators"),
    pytest.param(
        "java",
        'class A { void f(final String... args) { } }',
        """
        class 0-44 modifiers= name=A
          func_decl 10-42 modifiers= name=f params=String[]:args return_type=void
            block 39-42
""", id="varargs_and_default"),
    pytest.param(
        "csharp",
        'class A { void G(ref int a, out int[] b, int c = 3) { } }',
        """
        class 0-57 modifiers= name=A
          func_decl 10-55 modifiers= name=G params=int:a,int[]:b,int:c return_type=void
            block 52-55
""", id="ref_out_default"),
    pytest.param(
        "java",
        '@Deprecated class A { @Override public String toString() { '
        'return "a"; } }',
        """
        class 12-74 modifiers= name=A
          func_decl 32-72 modifiers=public name=toString params= return_type=String
            block 57-72
              return_stmt 59-70
                expr 66-69
                  literal 66-69 "a" kind=string
""", id="java_annotations"),
    pytest.param(
        "csharp",
        '[Serializable] class A { [Obsolete("x")] public void M() { '
        '} }',
        """
        class 15-62 modifiers= name=A
          func_decl 41-60 modifiers=public name=M params= return_type=void
            block 57-60
""", id="csharp_attributes"),
    pytest.param(
        "csharp",
        'namespace A.B; class C { }',
        """
        namespace 0-26 name=A.B
          class 15-26 modifiers= name=C
""", id="namespace_file_scoped"),
    pytest.param(
        "csharp",
        'namespace A { class C { } } int x;',
        """
        namespace 0-27 name=A
          class 14-25 modifiers= name=C
        decl_stmt 28-34 modifiers= type=int
          decl 32-33 modifiers= name=x type=int
""", id="namespace_block"),
    pytest.param(
        "csharp",
        'using static System.Math; using IO = System.IO; using X;',
        """
        import 0-25 qualified=System.Math wildcard=True
        import 26-47 qualified=System.IO simple=IO wildcard=False
        import 48-56 qualified=X wildcard=True
""", id="using_alias_and_static"),
    pytest.param(
        "java",
        'package a.b; import static a.B.c; import a.C; import a.d.*;',
        """
        package 0-12 name=a.b
        import 13-33 qualified=a.B.c simple=c wildcard=False
        import 34-45 qualified=a.C simple=C wildcard=False
        import 46-59 qualified=a.d wildcard=True
""", id="java_package_and_imports"),
    pytest.param(
        "csharp",
        'var l = new List<int>(3) { 1, 2 };',
        """
        decl_stmt 0-34 modifiers= type=var
          decl 4-33 modifiers= name=l type=var
            func_call 8-24 new=True owner_unknown=False segs=List
              argument 22-23
                literal 22-23 3 kind=number
            literal 27-28 1 kind=number
            literal 30-31 2 kind=number
""", id="new_with_arguments_and_initializer"),
    pytest.param(
        "java",
        'int[][] m = new int[2][n]; int[] v = new int[] { 1, x };',
        """
        decl_stmt 0-26 modifiers= type=int[][]
          decl 8-25 modifiers= name=m type=int[][]
            nameref 12-19 is_type=True segs=int
            literal 20-21 2 kind=number
            nameref 23-24 segs=n
        decl_stmt 27-56 modifiers= type=int[]
          decl 33-55 modifiers= name=v type=int[]
            nameref 37-46 is_type=True segs=int
            literal 49-50 1 kind=number
            nameref 52-53 segs=x
""", id="array_creation"),
    pytest.param(
        "java",
        'b.append(x).append("y").toString(); new B().go(1);',
        """
        expr_stmt 0-35
          expr 0-35
            func_call 0-11 new=False owner_unknown=False segs=b,append
              argument 9-10
                nameref 9-10 segs=x
            func_call 12-23 new=False owner_unknown=True segs=append
              argument 19-22
                literal 19-22 "y" kind=string
            func_call 24-34 new=False owner_unknown=True segs=toString
        expr_stmt 36-50
          expr 36-50
            func_call 36-43 new=True owner_unknown=False segs=B
            func_call 44-49 new=False owner_unknown=True segs=go
              argument 47-48
                literal 47-48 1 kind=number
""", id="chained_calls"),
    pytest.param(
        "java",
        "x = (a + 'c') * m[i] + true + null + 1.5;",
        """
        expr_stmt 0-41
          expr 0-41
            nameref 0-1 segs=x
            nameref 5-6 segs=a
            literal 9-12 'c' kind=char
            nameref 16-17 segs=m
            nameref 18-19 segs=i
            literal 23-27 true kind=boolean
            literal 30-34 null kind=null
            literal 37-40 1.5 kind=number
""", id="literals_and_groups"),
    pytest.param(
        "csharp",
        'class A { void F() { switch (k) { case 1: G(); break; } '
        'lock (o) { I(); } throw e; } }',
        """
        class 0-86 modifiers= name=A
          func_decl 10-84 modifiers= name=F params= return_type=void
            block 19-84
              opaque 21-55
                name 21-27 switch
                name 29-30 k
                name 34-38 case
                literal 39-40 1 kind=number
                name 42-43 G
                name 47-52 break
              opaque 56-73
                name 56-60 lock
                name 62-63 o
                name 67-68 I
              opaque 74-82
                name 74-79 throw
                name 80-81 e
""", id="opaque_statements"),
    pytest.param(
        "java",
        'try { g(); } catch (E e) { h(e); } finally { k(); } m();',
        """
        opaque 0-51
          name 0-3 try
          name 6-7 g
          name 13-18 catch
          name 20-21 E
          name 22-23 e
          name 27-28 h
          name 29-30 e
          name 35-42 finally
          name 45-46 k
        expr_stmt 52-56
          expr 52-56
            func_call 52-55 new=False owner_unknown=False segs=m
""", id="try_catch_finally"),
    pytest.param(
        "csharp",
        'try { G(); } catch { H(); } M();',
        """
        opaque 0-27
          name 0-3 try
          name 6-7 G
          name 13-18 catch
          name 21-22 H
        expr_stmt 28-32
          expr 28-32
            func_call 28-31 new=False owner_unknown=False segs=M
""", id="catch_without_a_filter"),
    pytest.param(
        "csharp",
        'class A { int P { get; set; } enum E { X, Y } interface I { '
        'void M(); } }',
        """
        class 0-73 modifiers= name=A
          opaque 10-29
            name 10-13 int
            name 14-15 P
            name 18-21 get
            name 23-26 set
          opaque 30-45
            name 30-34 enum
            name 35-36 E
            name 39-40 X
            name 42-43 Y
          opaque 46-71
            name 46-55 interface
            name 56-57 I
            name 60-64 void
            name 65-66 M
""", id="opaque_members"),
    pytest.param(
        "csharp",
        'using (var r = f()) { g(r); }',
        """
        opaque 0-29
          name 0-5 using
          name 7-10 var
          name 11-12 r
          name 15-16 f
          name 22-23 g
          name 24-25 r
""", id="top_level_using_statement"),
    pytest.param(
        "java",
        'class A { public static <T extends Comparable<T>> T max(T a, T b) '
        '{ return a; } }',
        """
        class 0-81 modifiers= name=A
          func_decl 10-79 modifiers=public,static name=max params=T:a,T:b return_type=T
            block 66-79
              return_stmt 68-77
                expr 75-76
                  nameref 75-76 segs=a
""", id="java_generic_method"),
    pytest.param(
        "java",
        'class A { public @Deprecated void f() {} int g() { return 1; } }',
        """
        class 0-64 modifiers= name=A
          func_decl 10-40 modifiers=public name=f params= return_type=void
            block 38-40
          func_decl 41-62 modifiers= name=g params= return_type=int
            block 49-62
              return_stmt 51-60
                expr 58-59
                  literal 58-59 1 kind=number
""", id="java_annotation_between_modifiers"),
    pytest.param(
        "java",
        'class A { void f(final @Nullable String s) { } }',
        """
        class 0-48 modifiers= name=A
          func_decl 10-46 modifiers= name=f params=String:s return_type=void
            block 43-46
""", id="java_annotation_after_parameter_modifier"),
    pytest.param(
        "java",
        'lbl: while (x) { continue lbl; }',
        """
        loop 5-32
          expr 12-14
            nameref 12-13 segs=x
          block 15-32
            opaque 17-30
              name 17-25 continue
              name 26-29 lbl
""", id="java_labelled_loop"),
    pytest.param(
        "csharp",
        'outer: while (true) { break outer; }',
        """
        loop 7-36
          expr 14-19
            literal 14-18 true kind=boolean
          block 20-36
            opaque 22-34
              name 22-27 break
              name 28-33 outer
""", id="csharp_labelled_loop"),
    # a type the parser does not model is one opaque node at every
    # scope, and the class after it keeps its method
    pytest.param(
        "java",
        'public interface I { void m(); } enum E { X, Y; } @interface T { '
        'int v(); } record R(int a) { } class A { void f() { } }',
        """
        opaque 0-32
          name 0-6 public
          name 7-16 interface
          name 17-18 I
          name 21-25 void
          name 26-27 m
        opaque 33-49
          name 33-37 enum
          name 38-39 E
          name 42-43 X
          name 45-46 Y
        opaque 50-75
          name 51-60 interface
          name 61-62 T
          name 65-68 int
          name 69-70 v
        opaque 76-95
          name 76-82 record
          name 83-84 R
          name 85-88 int
          name 89-90 a
        class 96-120 modifiers= name=A
          func_decl 106-118 modifiers= name=f params= return_type=void
            block 115-118
""", id="java_types_at_file_scope"),
    pytest.param(
        "java",
        'package p; public interface I { void m(); } enum E { X, Y; } '
        '@interface T { int v(); } record R(int a) { } class A { void f() { '
        '} }',
        """
        package 0-10 name=p
        opaque 11-43
          name 11-17 public
          name 18-27 interface
          name 28-29 I
          name 32-36 void
          name 37-38 m
        opaque 44-60
          name 44-48 enum
          name 49-50 E
          name 53-54 X
          name 56-57 Y
        opaque 61-86
          name 62-71 interface
          name 72-73 T
          name 76-79 int
          name 80-81 v
        opaque 87-106
          name 87-93 record
          name 94-95 R
          name 96-99 int
          name 100-101 a
        class 107-131 modifiers= name=A
          func_decl 117-129 modifiers= name=f params= return_type=void
            block 126-129
""", id="java_types_in_a_package"),
    pytest.param(
        "java",
        'class O { public interface I { void m(); } enum E { X, Y; } '
        '@interface T { int v(); } record R(int a) { } class A { void f() { '
        '} } }',
        """
        class 0-132 modifiers= name=O
          opaque 10-42
            name 10-16 public
            name 17-26 interface
            name 27-28 I
            name 31-35 void
            name 36-37 m
          opaque 43-59
            name 43-47 enum
            name 48-49 E
            name 52-53 X
            name 55-56 Y
          opaque 60-85
            name 61-70 interface
            name 71-72 T
            name 75-78 int
            name 79-80 v
          opaque 86-105
            name 86-92 record
            name 93-94 R
            name 95-98 int
            name 99-100 a
          class 106-130 modifiers= name=A
            func_decl 116-128 modifiers= name=f params= return_type=void
              block 125-128
""", id="java_types_in_a_class"),
    pytest.param(
        "csharp",
        'interface I { void M(); } enum E { X, Y } struct S { int x; } '
        'record R(int A); delegate void D(int x); class A { void F() { } }',
        """
        opaque 0-25
          name 0-9 interface
          name 10-11 I
          name 14-18 void
          name 19-20 M
        opaque 26-41
          name 26-30 enum
          name 31-32 E
          name 35-36 X
          name 38-39 Y
        opaque 42-61
          name 42-48 struct
          name 49-50 S
          name 53-56 int
          name 57-58 x
        opaque 62-78
          name 62-68 record
          name 69-70 R
          name 71-74 int
          name 75-76 A
        opaque 79-102
          name 79-87 delegate
          name 88-92 void
          name 93-94 D
          name 95-98 int
          name 99-100 x
        class 103-127 modifiers= name=A
          func_decl 113-125 modifiers= name=F params= return_type=void
            block 122-125
""", id="csharp_types_at_file_scope"),
    pytest.param(
        "csharp",
        'namespace N { interface I { void M(); } enum E { X, Y } struct S { '
        'int x; } record R(int A); delegate void D(int x); class A { void '
        'F() { } } }',
        """
        namespace 0-143 name=N
          opaque 14-39
            name 14-23 interface
            name 24-25 I
            name 28-32 void
            name 33-34 M
          opaque 40-55
            name 40-44 enum
            name 45-46 E
            name 49-50 X
            name 52-53 Y
          opaque 56-75
            name 56-62 struct
            name 63-64 S
            name 67-70 int
            name 71-72 x
          opaque 76-92
            name 76-82 record
            name 83-84 R
            name 85-88 int
            name 89-90 A
          opaque 93-116
            name 93-101 delegate
            name 102-106 void
            name 107-108 D
            name 109-112 int
            name 113-114 x
          class 117-141 modifiers= name=A
            func_decl 127-139 modifiers= name=F params= return_type=void
              block 136-139
""", id="csharp_types_in_a_namespace"),
    pytest.param(
        "csharp",
        'namespace N; interface I { void M(); } enum E { X, Y } struct S { '
        'int x; } record R(int A); delegate void D(int x); class A { void '
        'F() { } }',
        """
        namespace 0-140 name=N
          opaque 13-38
            name 13-22 interface
            name 23-24 I
            name 27-31 void
            name 32-33 M
          opaque 39-54
            name 39-43 enum
            name 44-45 E
            name 48-49 X
            name 51-52 Y
          opaque 55-74
            name 55-61 struct
            name 62-63 S
            name 66-69 int
            name 70-71 x
          opaque 75-91
            name 75-81 record
            name 82-83 R
            name 84-87 int
            name 88-89 A
          opaque 92-115
            name 92-100 delegate
            name 101-105 void
            name 106-107 D
            name 108-111 int
            name 112-113 x
          class 116-140 modifiers= name=A
            func_decl 126-138 modifiers= name=F params= return_type=void
              block 135-138
""", id="csharp_types_in_a_file_scoped_namespace"),
    pytest.param(
        "csharp",
        'class O { interface I { void M(); } enum E { X, Y } struct S { int '
        'x; } record R(int A); delegate void D(int x); event H E; class A { '
        'void F() { } } }',
        """
        class 0-150 modifiers= name=O
          opaque 10-35
            name 10-19 interface
            name 20-21 I
            name 24-28 void
            name 29-30 M
          opaque 36-51
            name 36-40 enum
            name 41-42 E
            name 45-46 X
            name 48-49 Y
          opaque 52-71
            name 52-58 struct
            name 59-60 S
            name 63-66 int
            name 67-68 x
          opaque 72-88
            name 72-78 record
            name 79-80 R
            name 81-84 int
            name 85-86 A
          opaque 89-112
            name 89-97 delegate
            name 98-102 void
            name 103-104 D
            name 105-108 int
            name 109-110 x
          opaque 113-123
            name 113-118 event
            name 119-120 H
            name 121-122 E
          class 124-148 modifiers= name=A
            func_decl 134-146 modifiers= name=F params= return_type=void
              block 143-146
""", id="csharp_types_in_a_class"),
    # a statement keyword never reads as a type, so these stay statements
    pytest.param(
        "java",
        'throw e; assert check(x);',
        """
        opaque 0-8
          name 0-5 throw
          name 6-7 e
        expr_stmt 9-25
          expr 9-25
            nameref 9-15 segs=assert
            func_call 16-24 new=False owner_unknown=False segs=check
              argument 22-23
                nameref 22-23 segs=x
""", id="java_statement_keywords_at_file_scope"),
    pytest.param(
        "csharp",
        'goto L; await F();',
        """
        opaque 0-7
          name 0-4 goto
          name 5-6 L
        expr_stmt 8-18
          expr 8-18
            nameref 8-13 segs=await
            func_call 14-17 new=False owner_unknown=False segs=F
""", id="csharp_statement_keywords_at_file_scope"),
    # a local type or C# local function is one statement, through its
    # block, and never takes the statement after it
    pytest.param(
        "java",
        'class A { void f() { record P(int x) { } g(); } }',
        """
        class 0-49 modifiers= name=A
          func_decl 10-47 modifiers= name=f params= return_type=void
            block 19-47
              opaque 21-40
                name 21-27 record
                name 28-29 P
                name 30-33 int
                name 34-35 x
              expr_stmt 41-45
                expr 41-45
                  func_call 41-44 new=False owner_unknown=False segs=g
""", id="java_local_record"),
    pytest.param(
        "java",
        'class A { void f() { interface I { } g(); } }',
        """
        class 0-45 modifiers= name=A
          func_decl 10-43 modifiers= name=f params= return_type=void
            block 19-43
              opaque 21-36
                name 21-30 interface
                name 31-32 I
              expr_stmt 37-41
                expr 37-41
                  func_call 37-40 new=False owner_unknown=False segs=g
""", id="java_local_interface"),
    pytest.param(
        "csharp",
        'class A { void f() { int Add(int a) { return a; } g(); } }',
        """
        class 0-58 modifiers= name=A
          func_decl 10-56 modifiers= name=f params= return_type=void
            block 19-56
              opaque 21-49
                name 21-24 int
                name 25-28 Add
                name 29-32 int
                name 33-34 a
                name 38-44 return
                name 45-46 a
              expr_stmt 50-54
                expr 50-54
                  func_call 50-53 new=False owner_unknown=False segs=g
""", id="csharp_local_function"),
    pytest.param(
        "csharp",
        'class A { void f() { enum E { X } g(); } }',
        """
        class 0-42 modifiers= name=A
          func_decl 10-40 modifiers= name=f params= return_type=void
            block 19-40
              opaque 21-33
                name 21-25 enum
                name 26-27 E
                name 30-31 X
              expr_stmt 34-38
                expr 34-38
                  func_call 34-37 new=False owner_unknown=False segs=g
""", id="csharp_local_enum"),
    # a field or method outside every class reads as one
    pytest.param(
        "java",
        'int n = 1; void f() { g(n); }',
        """
        decl_stmt 0-10 modifiers= type=int
          decl 4-9 modifiers= name=n type=int
            literal 8-9 1 kind=number
        func_decl 11-29 modifiers= name=f params= return_type=void
          block 20-29
            expr_stmt 22-27
              expr 22-27
                func_call 22-26 new=False owner_unknown=False segs=g
                  argument 24-25
                    nameref 24-25 segs=n
""", id="field_and_method_at_file_scope"),
]


@pytest.mark.parametrize("language, source, expected", CONSTRUCTS)
def test_construct_table(language, source, expected):
    tree = parse(source, language)
    rendered = [line for node in tree.children for line in _render(node)]
    assert rendered == textwrap.dedent(expected).strip("\n").splitlines()


# ---------------------------------------------------------------------------
# randomized structural fuzzing: generated files must normalize without
# error, with no punctuation leaking through

_NAMES = ("alpha", "beta", "gamma", "delta")
_TYPES = ("int", "long", "double", "bool", "String")
_METHODS = ("run", "step", "load")


def _draw_type(draw, lang):
    t = draw(st.sampled_from(_TYPES))
    return "boolean" if t == "bool" and lang == "java" else t


def _draw_call(draw):
    """`helper(…)` with up to three arguments, each a number or a name."""
    args = draw(st.lists(st.one_of(st.integers(0, 9).map(str),
                                   st.sampled_from(_NAMES)), max_size=3))
    return f"helper({', '.join(args)})"


def _draw_method(draw, lang, name):
    params = ", ".join(f"{_draw_type(draw, lang)} {p}" for p in draw(
        st.lists(st.sampled_from(_NAMES), max_size=3, unique=True)))
    throws = " throws IOException" if lang == "java" and draw(
        st.booleans()) else ""
    stmts = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.integers(0, 3))
        var = draw(st.sampled_from(_NAMES))
        if kind == 0:
            stmts.append(f"        int {var} = {draw(st.integers(0, 99))};")
        elif kind == 1:
            stmts.append(f"        {_draw_call(draw)};")
        elif kind == 2:
            stmts.append(f"        if ({var} > 0) {{ return; }}")
        else:
            call = _draw_call(draw)
            stmts.append(f"        while ({var} > 0) {{ {call}; }}")
    return (f"    void {name}({params}){throws} {{\n" + "\n".join(stmts)
            + "\n    }")


@st.composite
def _random_class(draw, lang=None):
    """A class of fields and one to three methods, each with parameters,
    a Java `throws` clause or not, and calls with arguments; in `lang`,
    or a drawn language."""
    lang = lang or draw(st.sampled_from(["java", "csharp"]))
    body = []
    for _ in range(draw(st.integers(0, 3))):
        t = _draw_type(draw, lang)
        body.append(f"    {t} {draw(st.sampled_from(_NAMES))};")
    for name in draw(st.lists(st.sampled_from(_METHODS), min_size=1,
                              max_size=3, unique=True)):
        body.append(_draw_method(draw, lang, name))
    source = "class Fuzz {\n" + "\n".join(body) + "\n}"
    return source, lang


@given(_random_class())
@settings(max_examples=60, deadline=None)
def test_generated_sources_normalize(case):
    source, lang = case
    tree = parse(source, lang)
    stream = normalize(tree)
    for token in stream.tokens:
        assert token.split() == [token]
        assert token not in PUNCT
    for node in tree.walk():
        lo, hi = stream.node_ranges[id(node)]
        if node.kind in STRUCT_KEYWORDS and hi > lo:
            assert stream.tokens[lo] == node.kind
        if node.kind == "literal":
            assert node.meta["kind"] in LITERAL_KINDS
            assert stream.tokens[lo:hi] == ["literal_type", node.meta["kind"]]
    for _, _, _, first, last, _ in extract_elements(tree, stream):
        assert 0 <= first <= last < len(stream.tokens)


# declarations at file scope and in a namespace or package: a type the
# parser does not model is one opaque node, so every class keeps the
# methods it has when it is parsed alone

_TYPE_DECLARATIONS = {
    "java": ["interface Shape {{ int area(); }}",
             "public enum Color{n} {{ RED, GREEN; int f() {{ return 1; }} }}",
             "@interface Tag{n} {{ int value() default 1; }}",
             "@Deprecated public @interface Old{n} {{ }}",
             "record Pair{n}(int a, String b) {{ }}"],
    "csharp": ["public interface IShape{n} {{ int Area(); }}",
               "enum Color{n} {{ Red, Green }}",
               "struct Point{n} {{ public int X; void F() {{ }} }}",
               "record Pair{n}(int A, string B);",
               "public record struct Cell{n}(int X) {{ }}",
               "[Serializable] delegate void Handler{n}(int x);"],
}
_WRAPPERS = {
    "java": ["{}", "package p.q;\n{}"],
    "csharp": ["{}", "namespace N {{\n{}\n}}", "namespace N.M;\n{}"],
}


@st.composite
def _declarations(draw):
    """A file of classes from `_random_class` and unmodelled type
    declarations in any order, with the source of each class."""
    lang = draw(st.sampled_from(["java", "csharp"]))
    wrapper = draw(st.sampled_from(_WRAPPERS[lang]))
    items, classes = [], []
    for n in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            source, _ = draw(_random_class(lang))
            classes.append(source.replace("class Fuzz", f"class Fuzz{n}", 1))
            items.append(classes[-1])
        else:
            decl = draw(st.sampled_from(_TYPE_DECLARATIONS[lang]))
            items.append(decl.format(n=n))
    return wrapper.format("\n".join(items)), lang, wrapper, classes


@given(_declarations())
@settings(max_examples=100, deadline=None)
def test_unmodelled_types_leave_every_class_whole(case):
    source, lang, wrapper, classes = case
    alone = Counter(method for cls in classes
                    for method in _methods(wrapper.format(cls), lang))
    assert Counter(_methods(source, lang)) == alone


# locality: deleting or duplicating one token (not a brace) inside method k
# leaves every other method's label and tokens as they were, or the file
# is refused.  Annotation and attribute arguments and C# `: base(…)`
# arguments stay out: a `{` is legal inside them (array initializers,
# lambdas), so no local rule can tell where a damaged one ends.

DEMO = Path(__file__).parent.parent / "fixtures" / "demo"
_DEMO_SOURCES = [(path.read_text(encoding="utf-8"), lang)
                 for lang, ext in (("java", ".java"), ("csharp", ".cs"))
                 for path in sorted((DEMO / lang).glob("*" + ext))]


@st.composite
def _damaged_method(draw):
    source, lang = draw(st.one_of(st.sampled_from(_DEMO_SOURCES),
                                  _random_class()))
    methods = [node for node in parse(source, lang).walk()
               if node.kind == "func_decl"]
    k = draw(st.integers(0, len(methods) - 1))
    inside = [t for t in lex(source, lang)
              if methods[k].start <= t.start and t.end <= methods[k].end
              and t.text not in ("{", "}")]
    t = draw(st.sampled_from(inside))
    if draw(st.booleans()):
        damaged = source[:t.start] + source[t.end:]
    else:
        damaged = source[:t.end] + " " + source[t.start:]
    return source, damaged, lang, k


@given(_damaged_method())
@settings(max_examples=200, deadline=None)
def test_damaged_method_leaves_the_others(case):
    source, damaged, lang, k = case
    others = _methods(source, lang)
    del others[k]
    try:
        kept = _methods(damaged, lang)
    except ParseError:
        return
    assert not Counter(others) - Counter(kept)


# token soup: whatever the tokens, parse returns a tree or raises ParseError,
# and a tree normalizes to tokens without whitespace; the pool holds every
# keyword a production starts with, literals cut off inside their escape and
# literals with a blank inside

_SOUP = ["class", "package", "import", "using", "namespace", "static", "for",
         "foreach", "in", "while", "do", "if", "else", "return", "new", "try",
         "catch", "switch", "break", "enum", "int", "var", "String", "x",
         "a.b", "(", ")", "{", "}", "[", "]", "<", ">", ";", ",", ".", ":",
         "=", "=>", "?", "@", "*", "+", "1", "'c'", '"s"', "true", "null",
         '"abc\\', "'\\", '$"x\\', "\n", '"""', '$@"x"', '@"a""b"', "0x1F",
         "1e-5f", "#if X", "/* c */", '"a b"', "' '"]


@given(st.sampled_from(["java", "csharp"]),
       st.lists(st.sampled_from(_SOUP), max_size=30))
@settings(max_examples=300, deadline=None)
@example("csharp", ["using", '"a b"', ";"])
def test_token_soup_parses_or_raises_parse_error(language, tokens):
    try:
        tree = parse(" ".join(tokens), language)
    except ParseError as err:
        assert err.line >= 1 and err.col >= 1
        return
    assert tree.kind == "unit"
    stream = normalize(tree)
    extract_elements(tree, stream)
    for token in stream.tokens:
        assert token.split() == [token]

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
    tree = parse(source, lang)
    stream = normalize(tree)
    (created,) = [stream.tokens[slice(*stream.node_ranges[id(node)])]
                  for node in tree.walk()
                  if node.kind == "nameref" and node.start == new_at]
    assert created == [canon_primitive(prim)]
    assert not any(ch.isspace() for ch in created[0])
