"""Element composition tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codemap import hier
from codemap.embed import Vocabulary
from codemap.hier import (WEIGHTINGS, build_idf, compose_corpus,
                          read_element_embeddings, read_skips,
                          write_element_embeddings, write_skips)
from codemap.syntax import build_symbols, extract_elements, normalize, parse

VOCAB = Vocabulary(["a:x", "a:y", "a:z", "b:x"])
VECS = np.array([[1.0, 0.0],
                 [0.0, 1.0],
                 [2.0, 2.0],
                 [-1.0, 3.0]])


def flatten(elements, vocab=VOCAB):
    """(element ids, flat vocabulary ids, offsets) of (id, tokens) pairs,
    as compose_corpus takes them."""
    token_ids = [vocab.ids.get(token, -1) for _, tokens in elements
                 for token in tokens]
    offsets = np.cumsum([0] + [len(tokens) for _, tokens in elements])
    return [element_id for element_id, _ in elements], token_ids, offsets


def idf_of(weights, vocab=VOCAB):
    """Per vocabulary id, the weight of its token, 0 if absent."""
    return [weights.get(token, 0.0) for token in vocab.tokens]


def test_uniform_mean():
    _, matrix, coverages, _ = compose_corpus(
        *flatten([("e", ["a:x", "a:y"])]), VECS)
    assert np.allclose(matrix[0], [0.5, 0.5])
    assert coverages == [1.0]


def test_uniform_counts_duplicates():
    _, matrix, _, _ = compose_corpus(
        *flatten([("e", ["a:x", "a:x", "a:y"])]), VECS)
    assert np.allclose(matrix[0], [2.0 / 3.0, 1.0 / 3.0])


def test_oov_skipped_and_coverage_reported():
    _, matrix, coverages, _ = compose_corpus(
        *flatten([("e", ["a:x", "a:missing"])]), VECS)
    assert np.allclose(matrix[0], [1.0, 0.0])
    assert coverages == [0.5]


def test_coverage_zero_carries_id():
    ids, matrix, coverages, skipped = compose_corpus(
        *flatten([("m:3", ["a:gone"]), ("m:4", [])]), VECS)
    assert skipped == ["m:3", "m:4"]
    assert ids == [] and coverages == [] and matrix.shape == (0, 2)


def test_tfidf_hand_oracle():
    # weights 3 and 1 over (1,0) and (0,1) -> (0.75, 0.25)
    idf = idf_of({"a:x": 3.0, "a:y": 1.0})
    _, matrix, _, _ = compose_corpus(*flatten([("e", ["a:x", "a:y"])]),
                                     VECS, weighting="tfidf", idf=idf)
    assert np.allclose(matrix[0], [0.75, 0.25])


def test_tfidf_counts_multiply_idf():
    # tf 2 * idf 1 vs tf 1 * idf 2: equal weights -> midpoint
    idf = idf_of({"a:x": 1.0, "a:y": 2.0})
    _, matrix, _, _ = compose_corpus(
        *flatten([("e", ["a:x", "a:x", "a:y"])]), VECS, weighting="tfidf",
        idf=idf)
    assert np.allclose(matrix[0], [0.5, 0.5])


def test_tfidf_zero_weights_fall_back_to_uniform():
    idf = idf_of({"a:x": 0.0, "a:y": 0.0})
    _, matrix, coverages, _ = compose_corpus(
        *flatten([("e", ["a:x", "a:y"])]), VECS, weighting="tfidf", idf=idf)
    assert np.allclose(matrix[0], [0.5, 0.5])
    assert coverages == [1.0]


def test_tfidf_requires_idf():
    with pytest.raises(ValueError):
        compose_corpus(*flatten([("e", ["a:x"])]), VECS, weighting="tfidf")
    with pytest.raises(ValueError):
        compose_corpus(*flatten([("e", ["a:x"])]), VECS, weighting="median")


def test_build_idf():
    _, token_ids, offsets = flatten([("d0", ["a:x", "a:y"]),
                                     ("d1", ["a:x", "a:x", "a:oov"]),
                                     ("d2", ["a:x", "a:z"])])
    idf = build_idf(token_ids, offsets, len(VOCAB))
    assert idf[VOCAB.ids["a:x"]] == pytest.approx(0.0)
    assert idf[VOCAB.ids["a:y"]] == pytest.approx(math.log(3.0))
    assert idf[VOCAB.ids["a:z"]] == pytest.approx(math.log(3.0))
    with pytest.raises(ValueError):
        build_idf([], [0], len(VOCAB))


def test_equal_idf_matches_uniform():
    idf = [2.5] * len(VOCAB)
    element = flatten([("e", ["a:x", "a:x", "a:z", "a:y", "a:missing"])])
    _, weighted, _, _ = compose_corpus(*element, VECS, "tfidf", idf)
    _, uniform, _, _ = compose_corpus(*element, VECS)
    assert np.allclose(weighted, uniform, atol=1e-12)


TOKEN_LISTS = st.lists(
    st.sampled_from(["a:x", "a:y", "a:z", "b:x", "a:oov"]),
    min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(TOKEN_LISTS, st.permutations(range(12)))
def test_composition_properties(tokens, perm):
    """Mean containment, norm bound, permutation invariance."""
    shuffled = [tokens[p] for p in perm if p < len(tokens)]
    ids, matrix, coverages, skipped = compose_corpus(
        *flatten([("e", tokens), ("shuffled", shuffled)]), VECS)
    if skipped:
        assert skipped == ["e", "shuffled"]
        assert not any(t in VOCAB for t in tokens)
        return
    (vec, vec2), (coverage, coverage2) = matrix, coverages
    present = [t for t in tokens if t in VOCAB]
    rows = VECS[[VOCAB.ids[t] for t in present]]
    assert np.all(vec >= rows.min(axis=0) - 1e-9)
    assert np.all(vec <= rows.max(axis=0) + 1e-9)
    assert np.linalg.norm(vec) <= np.linalg.norm(rows, axis=1).max() + 1e-9
    assert 0.0 < coverage <= 1.0

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
    stream = normalize(tree, build_symbols(tree))
    spans = {}  # granularity -> the (first, last) token range of each
    for granularity, _, _, first, last, _ in extract_elements(tree, stream):
        spans.setdefault(granularity, []).append(range(first, last + 1))
    (method,), statements = spans["method"], spans["statement"]
    assert len(statements) == 2

    texts = [f"a:{token}" for token in stream.tokens]
    vocab = Vocabulary(sorted(set(texts)))
    rng = np.random.default_rng(3)
    vecs = rng.normal(size=(len(vocab), 4))

    _, matrix, _, _ = compose_corpus(*flatten(
        [(f"e{n}", [texts[k] for k in span])
         for n, span in enumerate([method] + statements)], vocab), vecs)
    flat, stmt_means = matrix[0], matrix[1:]
    assert not np.allclose(flat, np.mean(stmt_means, axis=0), atol=1e-6)
    manual = vecs[[vocab.ids[texts[k]] for k in method]].mean(axis=0)
    assert np.allclose(flat, manual)


def test_compose_corpus_orders_and_skips():
    elements = [("e0", ["a:x"]), ("e1", ["a:none"]), ("e2", ["a:y", "a:z"])]
    ids, matrix, coverages, skipped = compose_corpus(*flatten(elements),
                                                     VECS)
    assert ids == ["e0", "e2"]
    assert skipped == ["e1"]
    assert matrix.shape == (2, 2)
    assert np.allclose(matrix[1], [1.0, 1.5])
    assert coverages == [1.0, 1.0]


def test_compose_corpus_empty():
    ids, matrix, coverages, skipped = compose_corpus(*flatten([]), VECS)
    assert ids == [] and skipped == [] and coverages == []
    assert matrix.shape == (0, 2)


def oracle_compose_element(tokens, vocab, vectors, weighting, idf):
    """Per-element composition written against the definition, one
    token string at a time: the code the corpus kernel replaced.  None
    for an element of coverage zero."""
    present = [t for t in tokens if t in vocab]
    if not present:
        return None
    coverage = len(present) / len(tokens)
    if weighting == "uniform":
        rows = vectors[[vocab.ids[t] for t in present]]
        return rows.mean(axis=0), coverage
    counts = {}
    for t in present:
        counts[t] = counts.get(t, 0) + 1
    weights = np.array([counts[t] * idf.get(t, 0.0) for t in counts])
    rows = vectors[[vocab.ids[t] for t in counts]]
    total = weights.sum()
    if total <= 0.0:
        weights = np.array([float(counts[t]) for t in counts])
        total = weights.sum()
    return (weights @ rows) / total, coverage


@pytest.mark.parametrize("block", [None, 1])
def test_corpus_kernel_equals_the_per_element_oracle(block, monkeypatch):
    if block is not None:  # one token occurrence per block
        monkeypatch.setattr(hier, "BLOCK", block)
    rng = np.random.default_rng(11)
    tokens = [f"a:t{k}" for k in range(30)]
    vocab = Vocabulary(tokens)
    vectors = rng.normal(size=(len(vocab), 7))
    universe = tokens + [f"a:oov{k}" for k in range(8)]
    elements = [[universe[j] for j in rng.integers(0, len(universe),
                                                   rng.integers(1, 25))]
                for _ in range(400)]
    # the first ten tokens have idf 0, so an element of only those (and
    # out-of-vocabulary tokens) has weights summing to zero
    zero_idf = [tokens[1], tokens[4], tokens[1], "a:oov2"]
    elements += [[], ["a:oov0", "a:oov3", "a:oov0"], zero_idf]
    idf = {t: 0.0 if k < 10 else float(rng.exponential())
           for k, t in enumerate(tokens)}
    element_ids, token_ids, offsets = flatten(
        [(f"e{k}", element) for k, element in enumerate(elements)], vocab)
    for weighting in WEIGHTINGS:
        ids, matrix, coverages, skipped = compose_corpus(
            element_ids, token_ids, offsets, vectors, weighting,
            [idf[t] for t in vocab.tokens])
        want = {}
        for element_id, element in zip(element_ids, elements):
            composed = oracle_compose_element(element, vocab, vectors,
                                              weighting, idf)
            if composed is not None:
                want[element_id] = composed
        assert ids == list(want)
        assert skipped == [e for e in element_ids if e not in want]
        assert {"e400", "e401"} <= set(skipped) and "e402" in ids
        assert coverages == [coverage for _, coverage in want.values()]
        expected = np.array([vec for vec, _ in want.values()])
        if weighting == "uniform":
            assert np.array_equal(matrix, expected)
        else:
            np.testing.assert_allclose(matrix, expected, rtol=1e-12,
                                       atol=0.0)


def test_element_embedding_round_trip(tmp_path):
    elements = [("a:F.java:method:0", ["a:x", "a:y"]),
                ("b:F.cs:statement:1", ["b:x", "a:missing"])]
    ids, matrix, coverages, _ = compose_corpus(*flatten(elements), VECS)
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
