"""Element composition tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codemap.embed import Vocabulary
from codemap.hier import (CoverageZero, build_idf, compose_corpus,
                          compose_element, element_tokens,
                          read_element_embeddings, read_skips,
                          write_element_embeddings, write_skips)
from codemap.syntax import EnrichedToken, EnrichedTokenStream, parse, \
    build_symbols, normalize, extract_elements

VOCAB = Vocabulary(["a:x", "a:y", "a:z", "b:x"])
VECS = np.array([[1.0, 0.0],
                 [0.0, 1.0],
                 [2.0, 2.0],
                 [-1.0, 3.0]])


def test_uniform_mean():
    vec, coverage = compose_element(["a:x", "a:y"], VOCAB, VECS)
    assert np.allclose(vec, [0.5, 0.5])
    assert coverage == 1.0


def test_uniform_counts_duplicates():
    vec, _ = compose_element(["a:x", "a:x", "a:y"], VOCAB, VECS)
    assert np.allclose(vec, [2.0 / 3.0, 1.0 / 3.0])


def test_oov_skipped_and_coverage_reported():
    vec, coverage = compose_element(["a:x", "a:missing"], VOCAB, VECS)
    assert np.allclose(vec, [1.0, 0.0])
    assert coverage == 0.5


def test_coverage_zero_carries_id():
    with pytest.raises(CoverageZero) as err:
        compose_element(["a:gone"], VOCAB, VECS, element_id="m:3")
    assert err.value.element_id == "m:3"
    with pytest.raises(CoverageZero):
        compose_element([], VOCAB, VECS)


def test_tfidf_hand_oracle():
    # weights 3 and 1 over (1,0) and (0,1) -> (0.75, 0.25)
    idf = {"a:x": 3.0, "a:y": 1.0}
    vec, _ = compose_element(["a:x", "a:y"], VOCAB, VECS,
                             weighting="tfidf", idf=idf)
    assert np.allclose(vec, [0.75, 0.25])


def test_tfidf_counts_multiply_idf():
    # tf 2 * idf 1 vs tf 1 * idf 2: equal weights -> midpoint
    idf = {"a:x": 1.0, "a:y": 2.0}
    vec, _ = compose_element(["a:x", "a:x", "a:y"], VOCAB, VECS,
                             weighting="tfidf", idf=idf)
    assert np.allclose(vec, [0.5, 0.5])


def test_tfidf_zero_weights_fall_back_to_uniform():
    idf = {"a:x": 0.0, "a:y": 0.0}
    vec, coverage = compose_element(["a:x", "a:y"], VOCAB, VECS,
                                    weighting="tfidf", idf=idf)
    assert np.allclose(vec, [0.5, 0.5])
    assert coverage == 1.0


def test_tfidf_requires_idf():
    with pytest.raises(ValueError):
        compose_element(["a:x"], VOCAB, VECS, weighting="tfidf")
    with pytest.raises(ValueError):
        compose_element(["a:x"], VOCAB, VECS, weighting="median")


def test_build_idf():
    idf = build_idf([["a:x", "a:y"], ["a:x"], ["a:x", "a:z"]])
    assert idf["a:x"] == pytest.approx(0.0)
    assert idf["a:y"] == pytest.approx(math.log(3.0))
    assert idf["a:z"] == pytest.approx(math.log(3.0))
    with pytest.raises(ValueError):
        build_idf([])


def test_equal_idf_matches_uniform():
    idf = {t: 2.5 for t in VOCAB.tokens}
    tokens = ["a:x", "a:x", "a:z", "a:y", "a:missing"]
    weighted, _ = compose_element(tokens, VOCAB, VECS, "tfidf", idf)
    uniform, _ = compose_element(tokens, VOCAB, VECS)
    assert np.allclose(weighted, uniform, atol=1e-12)


TOKEN_LISTS = st.lists(
    st.sampled_from(["a:x", "a:y", "a:z", "b:x", "a:oov"]),
    min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(TOKEN_LISTS, st.permutations(range(12)))
def test_composition_properties(tokens, perm):
    """Mean containment, norm bound, permutation invariance."""
    try:
        vec, coverage = compose_element(tokens, VOCAB, VECS)
    except CoverageZero:
        assert not any(t in VOCAB for t in tokens)
        return
    present = [t for t in tokens if t in VOCAB]
    rows = VECS[[VOCAB.id_of(t) for t in present]]
    assert np.all(vec >= rows.min(axis=0) - 1e-9)
    assert np.all(vec <= rows.max(axis=0) + 1e-9)
    assert np.linalg.norm(vec) <= np.linalg.norm(rows, axis=1).max() + 1e-9
    assert 0.0 < coverage <= 1.0

    shuffled = [tokens[p] for p in perm if p < len(tokens)]
    vec2, coverage2 = compose_element(shuffled, VOCAB, VECS)
    assert np.allclose(vec, vec2, atol=1e-9)
    assert coverage == coverage2


def test_method_embeds_flat_not_statement_means():
    """A method is the mean of its tokens, not of its statement means."""
    source = """class A {
        void f() {
            int i;
            i = i + i + i + i;
        }
    }
    """
    tree = parse(source, "java")
    stream = normalize(tree, build_symbols(tree), file="A.java")
    elements = extract_elements(tree, stream)
    method = [e for e in elements if e.granularity == "method"][0]
    statements = [e for e in elements if e.granularity == "statement"]
    assert len(statements) == 2

    tokens = element_tokens(method, stream, "a")
    vocab = Vocabulary(sorted(set(tokens)))
    rng = np.random.default_rng(3)
    vecs = rng.normal(size=(len(vocab), 4))

    flat, _ = compose_element(tokens, vocab, vecs)
    stmt_means = [compose_element(element_tokens(s, stream, "a"),
                                  vocab, vecs)[0] for s in statements]
    assert not np.allclose(flat, np.mean(stmt_means, axis=0), atol=1e-6)
    present = [t for t in tokens if t in vocab]
    manual = vecs[[vocab.id_of(t) for t in present]].mean(axis=0)
    assert np.allclose(flat, manual)


def test_compose_corpus_orders_and_skips():
    elements = [("e0", ["a:x"]), ("e1", ["a:none"]), ("e2", ["a:y", "a:z"])]
    ids, matrix, coverages, skipped = compose_corpus(elements, VOCAB, VECS)
    assert ids == ["e0", "e2"]
    assert skipped == ["e1"]
    assert matrix.shape == (2, 2)
    assert np.allclose(matrix[1], [1.0, 1.5])
    assert coverages == [1.0, 1.0]


def test_compose_corpus_empty():
    ids, matrix, coverages, skipped = compose_corpus([], VOCAB, VECS)
    assert ids == [] and skipped == [] and coverages == []
    assert matrix.shape == (0, 2)


def test_element_embedding_round_trip(tmp_path):
    elements = [("a:F.java:method:0", ["a:x", "a:y"]),
                ("b:F.cs:statement:1", ["b:x", "a:missing"])]
    ids, matrix, coverages, _ = compose_corpus(elements, VOCAB, VECS)
    out = tmp_path / "vecs.txt"
    write_element_embeddings(out, ids, matrix, coverages, "uniform",
                             comments=["demo"])
    got_ids, got_matrix, got_cov, weighting = read_element_embeddings(out)
    assert got_ids == ids
    assert weighting == "uniform"
    assert np.allclose(got_matrix, matrix, rtol=1e-8)
    assert got_cov == pytest.approx(coverages)


def test_element_embedding_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2 diamond\n")
    with pytest.raises(ValueError, match=":1"):
        read_element_embeddings(bad)
    bad.write_text("1 2 uniform\ne0 0.5 1.0\ne1 0.5 1.0 1.0\n")
    with pytest.raises(ValueError, match=":2"):
        read_element_embeddings(bad)
    bad.write_text("2 2 uniform\ne0 0.5 1.0 1.0\n")
    with pytest.raises(ValueError, match="promises"):
        read_element_embeddings(bad)


def test_skip_report_round_trip(tmp_path):
    out = tmp_path / "skips.txt"
    write_skips(out, ["e3", "e7"], comments=["skipped elements"])
    assert read_skips(out) == ["e3", "e7"]
    write_skips(out, [])
    assert read_skips(out) == []
