"""Parser, normalizer and element extraction tests.

The four golden listings are the anchor: they pin signature substitution,
qualified-name resolution and the enriched stream format exactly.
"""

import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codemap.syntax import (LITERAL_KINDS, STRUCT_KEYWORDS,
                            EnrichedTokenStream, ParseError, SymbolTable,
                            element_ids, extract_elements, id_granularity,
                            normalize, parse, read_elements, read_stream,
                            write_elements, write_stream)
from codemap.syntax.lexer import lex
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


def test_for_with_declared_init_and_empty_condition():
    tree = parse("for (int i = 0; ; i++) { } x();", "java")
    loop, after = tree.root.children
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
    opaques = [n for n in tree.root.walk() if n.kind == "opaque"]
    assert opaques
    leaves = [leaf.text for node in opaques for leaf in node.children
              if leaf.kind == "name"]
    assert "g" in leaves


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
    assert ([t.text for t in normalize(parse(block, language)).tokens]
            == [t.text for t in normalize(parse(plain, language)).tokens])
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
    streams = [[t.text for t in normalize(parse(
        f"class A {{ string p = {text}; }}", "csharp")).tokens]
        for text in (literal, '"x"')]
    assert streams[0] == streams[1]


def test_dollar_at_string_is_one_literal():
    streams = [[t.text for t in normalize(parse(
        "class A { void f() { g(" + literal + "); } }", "csharp")).tokens]
        for literal in ('$@"a{x}b"', '@$"a{x}b"')]
    assert streams[0] == streams[1]
    assert "A.g(String)" in streams[0]


@pytest.mark.parametrize("body,plain", [
    ("int @class = 1; g(@class);", "int x = 1; g(x);"),
    ("var @x = 2; h(@x);", "var x = 2; h(x);")], ids=["class", "var"])
def test_csharp_verbatim_identifier_is_a_name(body, plain):
    streams = [[t.text for t in normalize(parse(
        f"class A {{ void f() {{ {text} }} }}", "csharp")).tokens]
        for text in (body, plain)]
    assert streams[0] == streams[1]
    assert [(t.kind, t.text) for t in lex("@class @if", "csharp")] == [
        ("name", "@class"), ("name", "@if")]


def test_java_annotation_is_skipped():
    assert [(t.kind, t.text) for t in lex("@Override", "java")] == [
        ("punct", "@"), ("name", "Override")]
    streams = [[t.text for t in normalize(parse(
        f"class A {{ {annotation}public int f() {{ return 1; }} }}",
        "java")).tokens] for annotation in ("@Override ", "")]
    assert streams[0] == streams[1]
    assert "A.f()" in streams[0]


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


def test_element_ids_count_ordinals_per_granularity():
    tree = parse("class A { int f() { int x = 1; return x; } "
                 "int g() { return 2; } }", "csharp")
    elements = extract_elements(tree, normalize(tree))
    ids = element_ids("b", "src/A.cs", elements)
    assert len(ids) == len(set(ids)) == len(elements)
    for granularity in ("expression", "statement", "method"):
        ordinals = [element_id.rsplit(":", 1)[1] for element_id, element
                    in zip(ids, elements)
                    if element.granularity == granularity]
        assert ordinals == [str(k) for k in range(len(ordinals))]
    assert [id_granularity(element_id) for element_id in ids] == [
        element.granularity for element in elements]
    assert ids[0].startswith("b:src/A.cs:")


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

]


@pytest.mark.parametrize("language, source, expected", CONSTRUCTS)
def test_construct_table(language, source, expected):
    tree = parse(source, language)
    rendered = [line for node in tree.root.children for line in _render(node)]
    assert rendered == textwrap.dedent(expected).strip("\n").splitlines()


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


# token soup: whatever the tokens, parse returns a tree or raises ParseError;
# the pool holds every keyword a production starts with and literals cut
# off inside their escape

_SOUP = ["class", "package", "import", "using", "namespace", "static", "for",
         "foreach", "in", "while", "do", "if", "else", "return", "new", "try",
         "catch", "switch", "break", "enum", "int", "var", "String", "x",
         "a.b", "(", ")", "{", "}", "[", "]", "<", ">", ";", ",", ".", ":",
         "=", "=>", "?", "@", "*", "+", "1", "'c'", '"s"', "true", "null",
         '"abc\\', "'\\", '$"x\\', "\n", '"""', '$@"x"', '@"a""b"', "0x1F",
         "1e-5f", "#if X", "/* c */"]


@given(st.sampled_from(["java", "csharp"]),
       st.lists(st.sampled_from(_SOUP), max_size=30))
@settings(max_examples=300, deadline=None)
def test_token_soup_parses_or_raises_parse_error(language, tokens):
    try:
        tree = parse(" ".join(tokens), language)
    except ParseError as err:
        assert err.line >= 1 and err.col >= 1
    else:
        assert tree.root.kind == "unit"

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
