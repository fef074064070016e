"""File pairing tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codemap.corpus import (FilePair, ProjectManifest, levenshtein,
                            match_stems, normalize_stem, pair_files,
                            read_pair_manifest, stem_similarity,
                            write_pair_manifest)


def test_normalize_stem():
    assert normalize_stem("Path/To/AntlrLexer.java") == "antlrlexer"
    assert normalize_stem("AntlrLexer.cs") == "antlrlexer"
    assert normalize_stem("noext") == "noext"


def test_levenshtein_basics():
    assert levenshtein("", "") == 0
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("abc", "abd") == 1
    assert levenshtein("abc", "") == 3


@given(st.text(max_size=12), st.text(max_size=12))
@settings(max_examples=100, deadline=None)
def test_levenshtein_symmetric_and_bounded(a, b):
    d = levenshtein(a, b)
    assert d == levenshtein(b, a)
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))


def test_stem_similarity_range():
    assert stem_similarity("lexer", "lexer") == 1.0
    assert stem_similarity("a", "b") == 0.0
    assert 0.0 < stem_similarity("lexer", "lexers") < 1.0


def test_exact_match_pairs():
    pairs = match_stems(["src/Lexer.java", "src/Parser.java"],
                        ["cs/Lexer.cs", "cs/Parser.cs"], threshold=1.0)
    assert [(p.path_a, p.path_b) for p in pairs] == [
        ("src/Lexer.java", "cs/Lexer.cs"),
        ("src/Parser.java", "cs/Parser.cs"),
    ]
    assert all(p.similarity == 1.0 for p in pairs)


def test_one_to_one_assignment():
    # both a-files prefer the single b-file; only the better match wins
    pairs = match_stems(["Lexer.java", "Lexers.java"], ["Lexer.cs"],
                        threshold=0.5)
    assert len(pairs) == 1
    assert pairs[0].path_a == "Lexer.java"


def test_threshold_filters():
    pairs = match_stems(["Alpha.java"], ["Omega.cs"], threshold=0.9)
    assert pairs == []


@pytest.mark.parametrize("stem_a, stem_b, threshold", [
    ("abcde", "abcd", 0.8), ("abcdefghij", "abcdefghi", 0.9)])
def test_pair_at_the_threshold_is_kept(stem_a, stem_b, threshold):
    # (1 - threshold) * longest rounds below the length difference here
    assert stem_similarity(stem_a, stem_b) == threshold
    pairs = match_stems([f"{stem_a}.java"], [f"{stem_b}.cs"], threshold)
    assert [(p.stem, p.similarity) for p in pairs] == [(stem_a, threshold)]


@given(st.text("ab", min_size=1, max_size=12), st.integers(0, 12),
       st.text("ab", max_size=3),
       st.sampled_from([0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 1.0]))
@settings(max_examples=300, deadline=None)
def test_one_file_a_side_pairs_iff_similar_enough(stem_a, cut, tail,
                                                   threshold):
    # stem_b is a prefix of stem_a, or one with a few letters after it
    stem_b = stem_a[:cut] + tail or "b"
    sim = stem_similarity(stem_a, stem_b)
    pairs = match_stems([f"a/{stem_a}.java"], [f"b/{stem_b}.cs"], threshold)
    assert [p.similarity for p in pairs] == ([sim] if sim >= threshold
                                             else [])


def test_threshold_validated():
    with pytest.raises(ValueError):
        match_stems([], [], threshold=0.0)
    with pytest.raises(ValueError):
        match_stems([], [], threshold=1.5)


def test_tie_broken_by_path_distance():
    # two b-files with identical stems; the closer relative path wins
    pairs = match_stems(["util/Buffer.java"],
                        ["util/Buffer.cs", "other/Buffer.cs"], threshold=1.0)
    assert len(pairs) == 1
    assert pairs[0].path_b == "util/Buffer.cs"


def test_output_sorted_by_stem():
    pairs = match_stems(["b/Zeta.java", "a/Alpha.java"],
                        ["Zeta.cs", "Alpha.cs"], threshold=1.0)
    assert [p.stem for p in pairs] == ["alpha", "zeta"]


@given(st.lists(st.sampled_from(["Lexer", "Parser", "Tree", "Token", "Node"]),
                max_size=5, unique=True),
       st.lists(st.sampled_from(["Lexer", "Parser", "Tree", "Token", "Node"]),
                max_size=5, unique=True))
@settings(max_examples=60, deadline=None)
def test_pairing_is_one_to_one(names_a, names_b):
    files_a = [f"java/{n}.java" for n in names_a]
    files_b = [f"cs/{n}.cs" for n in names_b]
    pairs = match_stems(files_a, files_b, threshold=0.6)
    assert len({p.path_a for p in pairs}) == len(pairs)
    assert len({p.path_b for p in pairs}) == len(pairs)
    for p in pairs:
        assert p.similarity >= 0.6


@given(st.lists(st.tuples(st.sampled_from(["x", "y/z", "y"]),
                          st.sampled_from(["Ab", "ab", "AB", "b", "ba", "a"])),
                max_size=12),
       st.lists(st.tuples(st.sampled_from(["x", "y/z", "yy"]),
                          st.sampled_from(["Ab", "ab", "b", "ba", "a", "bb"])),
                max_size=12))
@settings(max_examples=200, deadline=None)
def test_equal_stems_looked_up_as_all_pairs_compare_them(names_a, names_b):
    # just under 1.0 only equal stems pass, found by comparing every pair;
    # a path may come twice
    files_a = [f"{d}/{n}.java" for d, n in names_a]
    files_b = [f"{d}/{n}.cs" for d, n in names_b]
    assert match_stems(files_a, files_b, 1.0) == \
        match_stems(files_a, files_b, math.nextafter(1.0, 0.0))


def _oracle_match(files_a, files_b, threshold):
    """Every a-path against every b-path, the candidates sorted by
    (-similarity, path distance, path_a, path_b), then paired greedily."""
    candidates = []
    for pa in sorted(files_a):
        for pb in sorted(files_b):
            sa = normalize_stem(pa)
            sim = stem_similarity(sa, normalize_stem(pb))
            if sim >= threshold:
                candidates.append((pa, pb, sa, sim))
    candidates.sort(key=lambda c: (-c[3], levenshtein(c[0], c[1]), c[0], c[1]))
    used_a, used_b, pairs = set(), set(), []
    for pa, pb, sa, sim in candidates:
        if pa not in used_a and pb not in used_b:
            used_a.add(pa)
            used_b.add(pb)
            pairs.append(FilePair(pa, pb, sa, sim))
    return sorted(pairs, key=lambda p: (p.stem, p.path_a))


_DIRS = st.sampled_from(["", "x/", "y/z/", "yy/", "x/y/"])
_NAMES = st.sampled_from(["Ab", "ab", "AB", "b", "ba", "a", "abc", "Tree",
                          "tree", "Trees", "Node"])


@given(st.lists(st.tuples(_DIRS, _NAMES), max_size=12),
       st.lists(st.tuples(_DIRS, _NAMES), max_size=12),
       st.sampled_from([1.0, 0.75, 0.5]))
@settings(max_examples=300, deadline=None)
def test_path_distance_only_where_shared_pairs_as_every_distance(
        names_a, names_b, threshold):
    # stems recur across directories, and a path may come twice
    files_a = [f"{d}{n}.java" for d, n in names_a]
    files_b = [f"{d}{n}.cs" for d, n in names_b]
    assert match_stems(files_a, files_b, threshold) == \
        _oracle_match(files_a, files_b, threshold)


def test_pair_files_walks_roots(tmp_path):
    (tmp_path / "java").mkdir()
    (tmp_path / "cs").mkdir()
    (tmp_path / "java" / "Lexer.java").write_text("class Lexer {}")
    (tmp_path / "java" / "README.txt").write_text("not source")
    (tmp_path / "cs" / "Lexer.cs").write_text("class Lexer {}")
    manifest = ProjectManifest(name="demo",
                               lang_a_root=tmp_path / "java",
                               lang_b_root=tmp_path / "cs",
                               lang_a="java", lang_b="csharp")
    pairs = pair_files(manifest)
    assert [(p.path_a, p.path_b) for p in pairs] == [("Lexer.java", "Lexer.cs")]


def test_manifest_validation(tmp_path):
    (tmp_path / "java").mkdir()
    with pytest.raises(FileNotFoundError):
        ProjectManifest(name="x", lang_a_root=tmp_path / "java",
                        lang_b_root=tmp_path / "missing",
                        lang_a="java", lang_b="csharp").validate()
    with pytest.raises(ValueError):
        ProjectManifest(name="x", lang_a_root=tmp_path / "java",
                        lang_b_root=tmp_path / "java",
                        lang_a="java", lang_b="java").validate()


def test_pair_manifest_round_trip(tmp_path):
    pairs = [FilePair("a/Lexer.java", "b/Lexer.cs", "lexer", 1.0),
             FilePair("a/Tok.java", "b/Toke.cs", "tok", 0.75)]
    out = tmp_path / "pairs.tsv"
    write_pair_manifest(pairs, out, comments=["tool test"])
    assert read_pair_manifest(out) == pairs


def test_pair_manifest_rejects_bad_rows(tmp_path):
    out = tmp_path / "pairs.tsv"
    out.write_text("a\tb\n")
    with pytest.raises(ValueError):
        read_pair_manifest(out)
