"""Composition of code-element vectors from token embeddings.

An element (expression, statement or method) is embedded as a weighted
mean over its flat token multiset: either uniform, or tf-idf where each
occurrence weighs its token's inverse document frequency.  Tokens
missing from the vocabulary are skipped; an element whose tokens are all
missing has no embedding.
"""

from __future__ import annotations

import math

import numpy as np

from . import artifacts

WEIGHTINGS = ("uniform", "tfidf")
BLOCK = 1 << 15  # floats in one block of weighted token rows


class CoverageZero(ValueError):
    """No token of the element is in the embedding vocabulary."""

    def __init__(self, element_id):
        super().__init__(f"element {element_id!r} has no in-vocabulary "
                         "tokens")
        self.element_id = element_id


def _in_vocabulary(token_ids, offsets):
    """Element lengths, then the element and the vocabulary id of every
    in-vocabulary token occurrence, in token order."""
    token_ids = np.asarray(token_ids, dtype=np.intp)
    lengths = np.diff(offsets)
    known = token_ids >= 0
    owners = np.repeat(np.arange(len(lengths)), lengths)
    return lengths, owners[known], token_ids[known]


def build_idf(token_ids, offsets, size):
    """Inverse document frequencies of the `size` vocabulary ids, one
    document per element, laid out as for compose_corpus: idf(t) =
    ln(n_docs / df(t)), 0 for an id in no document.  It takes `math.log`
    because `np.log` can differ from it in the last bit.
    """
    lengths, owners, token_ids = _in_vocabulary(token_ids, offsets)
    if not len(lengths):
        raise ValueError("no documents")
    cells = np.unique(owners * size + token_ids)
    df = np.bincount(cells % size, minlength=size).tolist()
    return np.array([math.log(len(lengths) / count) if count else 0.0
                     for count in df])


def compose_corpus(element_ids, token_ids, offsets, vectors,
                   weighting="uniform", idf=None):
    """Embed elements given as vocabulary ids, -1 for a missing token:
    element k owns token_ids[offsets[k]:offsets[k + 1]].

    An occurrence weighs 1 (uniform) or idf[id] (tfidf), and 1 again in
    an element whose weights sum to zero, so coverage alone decides
    whether an element is representable.  Weighted rows are added in
    token order, as many at a time as fit in BLOCK floats (one at
    least), so a uniform row equals `mean(axis=0)` of its token vectors
    bit for bit and the memory used stays bounded.  Returns (ids,
    matrix, coverages, skipped_ids), rows in input order minus the
    skipped elements, those of coverage zero.
    """
    if weighting not in WEIGHTINGS:
        raise ValueError(f"unknown weighting {weighting!r}")
    if weighting == "tfidf" and idf is None:
        raise ValueError("tfidf weighting needs idf values")
    lengths, owners, token_ids = _in_vocabulary(token_ids, offsets)
    present = np.bincount(owners, minlength=len(lengths))
    weights = np.asarray(idf, dtype=np.float64)[token_ids] \
        if weighting == "tfidf" else np.ones(len(token_ids))
    totals = np.bincount(owners, weights, minlength=len(lengths))
    unweighted = totals <= 0.0
    weights[unweighted[owners]] = 1.0
    totals[unweighted] = present[unweighted]
    sums = np.zeros((len(lengths), vectors.shape[1]))
    step = max(1, BLOCK // vectors.shape[1])
    for lo in range(0, len(token_ids), step):
        np.add.at(sums, owners[lo:lo + step], weights[lo:lo + step, None]
                  * vectors[token_ids[lo:lo + step]])
    covered = present > 0
    matrix = sums[covered] / totals[covered][:, None]
    coverages = (present[covered] / lengths[covered]).tolist()
    ids = [element_ids[k] for k in np.flatnonzero(covered).tolist()]
    skipped = [element_ids[k] for k in np.flatnonzero(~covered).tolist()]
    return ids, matrix, coverages, skipped


def compose_element(tokens, vocab, vectors, weighting="uniform", idf=None,
                    element_id=""):
    """Embed one element of tagged tokens with compose_corpus; returns
    (vector, coverage).  `idf` maps tokens to weights, 0 if absent."""
    token_ids = [vocab.ids.get(token, -1) for token in tokens]
    if idf is not None:
        idf = [idf.get(token, 0.0) for token in vocab.tokens]
    ids, matrix, coverages, _ = compose_corpus(
        [element_id], token_ids, [0, len(token_ids)], vectors, weighting,
        idf)
    if not ids:
        raise CoverageZero(element_id)
    return matrix[0], coverages[0]


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
