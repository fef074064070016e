"""Composition of code-element vectors from token embeddings.

An element (expression, statement or method) is embedded as a weighted
mean over its flat token multiset: either uniform, or tf-idf where each
distinct token contributes its count times its inverse document
frequency.  Tokens missing from the vocabulary are skipped; an element
whose tokens are all missing has no embedding and raises CoverageZero.
"""

from __future__ import annotations

import math

import numpy as np

from . import artifacts

WEIGHTINGS = ("uniform", "tfidf")


class CoverageZero(ValueError):
    """No token of the element is in the embedding vocabulary."""

    def __init__(self, element_id):
        super().__init__(f"element {element_id!r} has no in-vocabulary "
                         "tokens")
        self.element_id = element_id


def element_tokens(element, stream, tag):
    """Tagged token texts of one element drawn from its stream."""
    texts = [stream.tokens[k].text for k in element.token_indices]
    return [f"{tag}:{t}" for t in texts]


def build_idf(documents):
    """Inverse document frequencies, one document per element.

    idf(t) = ln(n_docs / df(t)).  Tokens absent from every document are
    simply absent from the result.
    """
    documents = list(documents)
    if not documents:
        raise ValueError("no documents")
    df: dict[str, int] = {}
    for doc in documents:
        for token in set(doc):
            df[token] = df.get(token, 0) + 1
    n = len(documents)
    return {token: math.log(n / count) for token, count in df.items()}


def compose_element(tokens, vocab, vectors, weighting="uniform", idf=None,
                    element_id=""):
    """Embed one element; returns (vector, coverage).

    Coverage is the fraction of token occurrences found in the
    vocabulary.  tf-idf weights are tf * idf per distinct token; if the
    weights sum to zero (all idf zero or missing) the in-vocabulary
    tokens fall back to a uniform mean, so coverage alone decides
    whether an element is representable.
    """
    if weighting not in WEIGHTINGS:
        raise ValueError(f"unknown weighting {weighting!r}")
    if weighting == "tfidf" and idf is None:
        raise ValueError("tfidf weighting needs idf values")
    tokens = list(tokens)
    if not tokens:
        raise CoverageZero(element_id)
    present = [t for t in tokens if t in vocab]
    if not present:
        raise CoverageZero(element_id)
    coverage = len(present) / len(tokens)

    if weighting == "uniform":
        rows = vectors[[vocab.id_of(t) for t in present]]
        return rows.mean(axis=0), coverage

    counts: dict[str, int] = {}
    for t in present:
        counts[t] = counts.get(t, 0) + 1
    weights = np.array([counts[t] * idf.get(t, 0.0) for t in counts])
    rows = vectors[[vocab.id_of(t) for t in counts]]
    total = weights.sum()
    if total <= 0.0:
        weights = np.array([float(counts[t]) for t in counts])
        total = weights.sum()
    return (weights @ rows) / total, coverage


def compose_corpus(elements, vocab, vectors, weighting="uniform", idf=None):
    """Embed (element_id, tokens) pairs; skips uncoverable elements.

    Returns (ids, matrix, coverages, skipped_ids) with rows in input
    order minus the skipped elements.
    """
    ids, rows, coverages, skipped = [], [], [], []
    for element_id, tokens in elements:
        try:
            vec, coverage = compose_element(tokens, vocab, vectors,
                                            weighting, idf, element_id)
        except CoverageZero:
            skipped.append(element_id)
            continue
        ids.append(element_id)
        rows.append(vec)
        coverages.append(coverage)
    dim = vectors.shape[1]
    matrix = np.array(rows) if rows else np.zeros((0, dim))
    return ids, matrix, coverages, skipped


def write_element_embeddings(path, ids, matrix, coverages, weighting,
                             comments=()):
    """Text format: header `<n> <d> <weighting>`, then one row per
    element: id, d coordinates, coverage."""
    if not (len(ids) == matrix.shape[0] == len(coverages)):
        raise ValueError("ids, matrix and coverages disagree on length")
    artifacts.write_vectors(path, ids, matrix, comments, weighting,
                            coverages)


def read_element_embeddings(path):
    """Inverse of write_element_embeddings; returns
    (ids, matrix, coverages, weighting)."""
    return artifacts.read_vectors(path, WEIGHTINGS, extra=True)


def write_skips(path, skipped, comments=()):
    """One skipped element id per line."""
    artifacts.write_lines(path, skipped, comments)


def read_skips(path):
    return [element_id for _, (element_id,) in artifacts.records(path, 1)]
