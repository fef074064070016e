"""Cross-language nearest-neighbour retrieval and ranking metrics.

Queries carry a side ("a2b" maps a-side elements onto b-side candidates,
"b2a" the reverse); candidates are filtered by their id prefix.  Ranked
lists are scored with average precision truncated at k, where the
denominator is min(|relevant|, k) so a fully retrieved short truth set
scores 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import artifacts

SIDES = ("a2b", "b2a")
SCORE_BLOCK = 1 << 16  # floats in one block of query-candidate scores


class Query(NamedTuple):
    id: str
    vector: np.ndarray
    side: str
    k: int


def element_side(element_id):
    """Leading `a:` or `b:` tag of an element or token id."""
    side = element_id.partition(":")[0]
    if side not in ("a", "b"):
        raise ValueError(f"id {element_id!r} carries no a:/b: side tag")
    return side


def distinct_rows(matrix):
    """(unique rows, index of each row's unique row): the one notion of
    identical vectors, for queries and candidates alike.  Asking for
    the inverse also keeps np.unique from importing numpy.ma (≈1 MB)."""
    return np.unique(matrix, axis=0, return_inverse=True)


def rank_batch(query_vecs, ids, matrix, k):
    """Top-k candidates by cosine for every query row, ties broken by id,
    and the number of distinct candidate vectors they were ranked against.

    Zero-norm candidate rows have no cosine and are left out.  Identical
    candidate vectors, and identical queries, share one computed score, so
    their order never depends on where BLAS put them.  Scores are
    computed for as many query rows at a time as fit in SCORE_BLOCK
    floats (one row at least); every score equal to the k-th is kept for
    the tie-break.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    queries, query_of = distinct_rows(np.asarray(query_vecs, dtype=float))
    query_norms = np.linalg.norm(queries, axis=1)
    if np.any(query_norms == 0.0):
        raise ValueError("cosine undefined for zero vector")
    if len(ids) != matrix.shape[0]:
        raise ValueError("ids and matrix disagree on length")
    norms = np.linalg.norm(matrix, axis=1)
    keep = np.flatnonzero(norms > 0.0)
    kept_ids = [ids[row] for row in keep.tolist()]
    n = len(kept_ids)
    if n == 0:
        return [[] for _ in query_of], 0
    id_rank = np.empty(n, dtype=np.intp)
    id_rank[sorted(range(n), key=kept_ids.__getitem__)] = np.arange(n)
    vectors, vector_of = distinct_rows(matrix[keep])
    vector_norms = np.linalg.norm(vectors, axis=1)
    top = min(k, n)
    ranked = []
    block_rows = max(1, SCORE_BLOCK // n)
    for start in range(0, len(queries), block_rows):
        block = slice(start, start + block_rows)
        sims = ((queries[block] @ vectors.T)
                / (vector_norms * query_norms[block, None]))[:, vector_of]
        kth = np.partition(sims, n - top, axis=1)[:, n - top]
        hit_row, hit = np.nonzero(sims >= kth[:, None])
        hit_sims = sims[hit_row, hit]
        order = np.lexsort((id_rank[hit], -hit_sims, hit_row))
        counts = np.bincount(hit_row, minlength=len(sims))
        for first in (np.cumsum(counts) - counts).tolist():
            best = order[first:first + top]
            ranked.append(list(zip([kept_ids[j] for j in hit[best].tolist()],
                                   hit_sims[best].tolist())))
    return [list(ranked[q]) for q in query_of.tolist()], len(vectors)


def run_queries(queries, ids, matrix):
    """Rank queries that share one side and one k against the candidates
    on the other side, in one rank_batch call; returns the rankings by
    query id and the number of distinct candidate vectors."""
    groups = {(query.side, query.k) for query in queries}
    if not groups:
        return {}, 0
    if len(groups) > 1:
        raise ValueError(f"queries mix sides or k: {sorted(groups)}")
    (side, k), = groups
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    rows = [row for row, element_id in enumerate(ids)
            if element_side(element_id) != side[0]]
    ranked, distinct = rank_batch([query.vector for query in queries],
                                  [ids[row] for row in rows], matrix[rows], k)
    return dict(zip([query.id for query in queries], ranked)), distinct


def average_precision(ranked_ids, relevant, k):
    """AP@k = sum of P@r over relevant ranks r <= k, divided by
    min(|relevant|, k)."""
    if not relevant:
        raise ValueError("relevant set is empty")
    if k < 1:
        raise ValueError("k must be at least 1")
    hits = 0
    total = 0.0
    for rank, item in enumerate(ranked_ids[:k], start=1):
        if item in relevant:
            hits += 1
            total += hits / rank
    return total / min(len(relevant), k)


@dataclass
class MappingReport:
    """Aggregated retrieval quality over a query set."""
    map_at_k: dict[int, float]
    precision_at_1: float
    n_queries: int
    skipped: list[str] = field(default_factory=list)


def evaluate_map(rankings, truth, ks=(1, 5, 10)):
    """Mean AP@k over the queries present in both rankings and truth.

    Queries without ground truth are reported as skipped, not scored.
    """
    if not ks or any(k < 1 for k in ks):
        raise ValueError("ks must be positive")
    scored = sorted(set(rankings) & set(truth))
    skipped = sorted(set(rankings) - set(truth))
    if not scored:
        raise ValueError("no query has ground truth")
    for qid in scored:
        if not truth[qid]:
            raise ValueError(f"query {qid!r} has an empty relevant set")
    map_at_k = {}
    for k in ks:
        values = [average_precision([i for i, _ in rankings[qid]],
                                    truth[qid], k) for qid in scored]
        map_at_k[k] = sum(values) / len(values)
    # P@1 is AP@1
    p1 = sum(average_precision([i for i, _ in rankings[qid]], truth[qid], 1)
             for qid in scored) / len(scored)
    return MappingReport(map_at_k=map_at_k, precision_at_1=p1,
                         n_queries=len(scored), skipped=skipped)


def diff_reference(rankings, reference):
    """Compare top-1 mappings with a reference source->target map.

    Returns dict with `new` (source absent from the reference),
    `agreeing` and `conflicting` lists; conflicts carry both targets.
    """
    new, agreeing, conflicting = [], [], []
    for source in sorted(rankings):
        ranked = rankings[source]
        if not ranked:
            continue
        top = ranked[0][0]
        if source not in reference:
            new.append((source, top))
        elif reference[source] == top:
            agreeing.append((source, top))
        else:
            conflicting.append((source, top, reference[source]))
    return {"new": new, "agreeing": agreeing, "conflicting": conflicting}


# ---------------------------------------------------------------------------
# file formats


def write_rankings(path, rankings, comments=()):
    """TSV: query-id, rank (1-based), target-id, cosine."""
    artifacts.write_lines(path, (
        f"{qid}\t{rank}\t{target}\t{score:.9g}"
        for qid in sorted(rankings)
        for rank, (target, score) in enumerate(rankings[qid], start=1)),
        comments)


def read_rankings(path):
    rankings: dict[str, list] = {}
    for lineno, (qid, rank, target, score) in artifacts.records(path, 4):
        ranked = rankings.setdefault(qid, [])
        if artifacts.field(path, lineno, int, rank) != len(ranked) + 1:
            raise ValueError(f"{path}:{lineno}: rank {rank} out of "
                             f"order for query {qid!r}")
        ranked.append((target, artifacts.field(path, lineno, float, score)))
    return rankings


def write_truth(path, truth, comments=()):
    """TSV: query-id, relevant-id; one relevant item per line."""
    artifacts.write_lines(path, (f"{qid}\t{item}" for qid in sorted(truth)
                                 for item in sorted(truth[qid])), comments)


def read_truth(path):
    truth: dict[str, set] = {}
    for _, (qid, item) in artifacts.records(path, 2):
        truth.setdefault(qid, set()).add(item)
    if not truth:
        raise ValueError(f"{path}: no ground-truth rows")
    return truth


def write_report(path, report, comments=()):
    """TSV of aggregate metrics: metric name, value."""
    artifacts.write_lines(path, (
        *(f"map@{k}\t{report.map_at_k[k]:.9g}"
          for k in sorted(report.map_at_k)),
        f"p@1\t{report.precision_at_1:.9g}",
        f"queries\t{report.n_queries}",
        f"skipped\t{len(report.skipped)}",
        *(f"skipped-query\t{qid}" for qid in report.skipped)), comments)


def read_report(path):
    map_at_k: dict[int, float] = {}
    p1 = None
    n_queries = 0
    skipped = []
    for lineno, (key, value) in artifacts.records(path, 2):
        if key.startswith("map@"):
            k = artifacts.field(path, lineno, int, key[4:])
            map_at_k[k] = artifacts.field(path, lineno, float, value)
        elif key == "p@1":
            p1 = artifacts.field(path, lineno, float, value)
        elif key == "queries":
            n_queries = artifacts.field(path, lineno, int, value)
        elif key == "skipped-query":
            skipped.append(value)
        elif key != "skipped":
            raise ValueError(f"{path}:{lineno}: unknown metric {key!r}")
    if p1 is None or not map_at_k:
        raise ValueError(f"{path}: incomplete report")
    return MappingReport(map_at_k=map_at_k, precision_at_1=p1,
                         n_queries=n_queries, skipped=skipped)


def read_reference(path):
    """TSV mapping source-id to its expected top-1 target-id."""
    reference: dict[str, str] = {}
    for lineno, (source, target) in artifacts.records(path, 2):
        if source in reference:
            raise ValueError(f"{path}:{lineno}: duplicate source "
                             f"{source!r}")
        reference[source] = target
    return reference


def write_diff(path, diff, comments=()):
    """TSV: status, source, current target, reference target or `-`."""
    artifacts.write_lines(path, (
        *(f"new\t{source}\t{top}\t-" for source, top in diff["new"]),
        *(f"agreeing\t{source}\t{top}\t{top}"
          for source, top in diff["agreeing"]),
        *(f"conflicting\t{source}\t{top}\t{expected}"
          for source, top, expected in diff["conflicting"])), comments)
