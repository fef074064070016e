"""Composition of code-element vectors from token embeddings.

An element (expression, statement or method) is embedded as a weighted
mean over its flat token multiset: either uniform, or tf-idf where each
occurrence weighs its token's inverse document frequency.  Tokens
missing from the vocabulary are skipped; an element whose tokens are all
missing has no embedding.  The whole corpus is summed by token
position: one vectorized addition per position and block of elements,
so the Python loop runs once per position of the longest element.
"""

from __future__ import annotations

import math

import numpy as np

from . import artifacts

WEIGHTINGS = ("uniform", "tfidf")
BLOCK = 1 << 15  # floats in one block of weighted token rows


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
    whether an element is representable.  Elements are summed by token
    position: with the elements laid out longest first, the p-th
    weighted in-vocabulary token row of every element that has one is
    added at once, as many rows at a time as fit in BLOCK floats (one
    at least).  Each element still adds its rows in token order from
    0.0, so a uniform row equals `mean(axis=0)` of its token vectors bit
    for bit, and the memory used stays bounded.  Returns (ids, matrix,
    coverages, skipped_ids), rows in input order minus the skipped
    elements, those of coverage zero.
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
    # row r of sums is element order[r]; the first reaching[p] rows are
    # the elements with a token at position p
    order = np.argsort(-present, kind="stable")
    firsts = (np.cumsum(present) - present)[order]
    reaching = np.cumsum(np.bincount(present)[:0:-1])[::-1].tolist()
    sums = np.zeros((len(lengths), vectors.shape[1]))
    step = max(1, BLOCK // vectors.shape[1])
    for position, live in enumerate(reaching):
        for lo in range(0, live, step):
            at = firsts[lo:min(lo + step, live)] + position
            sums[lo:lo + len(at)] += weights[at, None] \
                * vectors[token_ids[at]]
    covered = present > 0
    sorted_row = np.empty_like(order)
    sorted_row[order] = np.arange(len(order))
    matrix = sums[sorted_row[covered]]
    matrix /= totals[covered][:, None]
    coverages = (present[covered] / lengths[covered]).tolist()
    ids = [element_ids[k] for k in np.flatnonzero(covered).tolist()]
    skipped = [element_ids[k] for k in np.flatnonzero(~covered).tolist()]
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
