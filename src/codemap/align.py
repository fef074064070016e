"""IBM Model 1 word alignment with bidirectional symmetrization.

Streams from paired files form a bitext; EM learns a lexical translation
table with a NULL source token, Viterbi linking takes per-target argmaxes,
and intersecting the two directions yields high-precision links.  Model 1
has no distortion component: structural keywords recur in near-parallel
order across the two languages, which is anchor enough here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import artifacts

NULL = "<NULL>"

# a pair is (tokens_a, tokens_b, pair_id)
Pair = tuple[list[str], list[str], str]
# nested translation table: t[source][target] = p(target | source)
TranslationTable = dict[str, dict[str, float]]

PROB_FLOOR = 1e-12
TABLE_WRITE_MIN_PROB = 1e-6


@dataclass(frozen=True)
class AlignmentLinkSet:
    pair_id: str
    links: frozenset  # of (i, j) index pairs

    def __post_init__(self):
        if len({(i, j) for i, j in self.links}) != len(self.links):
            raise ValueError("duplicate links")


def build_bitext(pairs: list[Pair], max_len: int = 2000,
                 boundary_token: str = "func_decl") -> list[Pair]:
    """Drop empty-sided pairs and chunk over-long ones.

    The E-step is O(|a|*|b|) per pair, so sides longer than max_len are
    split at method boundaries (positions of `boundary_token`) and the
    sub-streams zipped by order.  Leftover segments on the longer side are
    folded into the last sub-pair rather than dropped, so that chunk can
    exceed max_len when the two sides are very unbalanced.
    """
    if max_len < 1:
        raise ValueError("max_len must be positive")
    out: list[Pair] = []
    for tokens_a, tokens_b, pair_id in pairs:
        if not tokens_a or not tokens_b:
            continue
        if len(tokens_a) <= max_len and len(tokens_b) <= max_len:
            out.append((tokens_a, tokens_b, pair_id))
            continue
        segs_a = _split(tokens_a, max_len, boundary_token)
        segs_b = _split(tokens_b, max_len, boundary_token)
        k = min(len(segs_a), len(segs_b))
        merged_a = segs_a[:k - 1] + [sum(segs_a[k - 1:], [])]
        merged_b = segs_b[:k - 1] + [sum(segs_b[k - 1:], [])]
        for index, (seg_a, seg_b) in enumerate(zip(merged_a, merged_b)):
            if seg_a and seg_b:
                out.append((seg_a, seg_b, f"{pair_id}#{index}"))
    return out


def _split(tokens: list[str], max_len: int, boundary_token: str) -> list[list[str]]:
    bounds = [i for i, t in enumerate(tokens) if t == boundary_token]
    segments: list[list[str]] = []
    start = 0
    while len(tokens) - start > max_len:
        candidates = [b for b in bounds if start < b <= start + max_len]
        cut = candidates[-1] if candidates else start + max_len
        segments.append(tokens[start:cut])
        start = cut
    segments.append(tokens[start:])
    return segments


def uniform_init(bitext: list[Pair]) -> TranslationTable:
    cooc: dict[str, dict[str, None]] = {NULL: {}}
    for tokens_a, tokens_b, _ in bitext:
        targets = dict.fromkeys(tokens_b)
        cooc[NULL].update(targets)
        for token in tokens_a:
            cooc.setdefault(token, {}).update(targets)
    table: TranslationTable = {}
    for source, targets in cooc.items():
        p = 1.0 / len(targets) if targets else 0.0
        table[source] = {target: p for target in targets}
    return table


def _e_step(bitext: list[Pair], table: TranslationTable):
    """One E-step over the bitext; returns (counts, totals, log-lik)."""
    counts: dict[str, dict[str, float]] = {}
    totals: dict[str, float] = {}
    loglik = 0.0
    for tokens_a, tokens_b, _ in bitext:
        sources = [NULL] + tokens_a
        norm = math.log(len(sources))
        for target in tokens_b:
            probs = [table.get(source, {}).get(target, 0.0)
                     for source in sources]
            denom = sum(probs)
            loglik += math.log(max(denom, PROB_FLOOR)) - norm
            if denom <= 0.0:
                continue
            for source, p in zip(sources, probs):
                if p == 0.0:
                    continue
                share = p / denom
                row = counts.setdefault(source, {})
                row[target] = row.get(target, 0.0) + share
                totals[source] = totals.get(source, 0.0) + share
    return counts, totals, loglik


def train_model1(bitext: list[Pair], iterations: int = 10,
                 log_likelihoods: list | None = None) -> TranslationTable:
    """EM-train a translation table from uniform initialization.

    `log_likelihoods`, when given, receives the corpus log-likelihood under
    the table *entering* each iteration, so monotonicity is observable.
    """
    if not bitext:
        raise ValueError("empty bitext")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    table = uniform_init(bitext)
    for _ in range(iterations):
        counts, totals, loglik = _e_step(bitext, table)
        if log_likelihoods is not None:
            log_likelihoods.append(loglik)
        table = {source: {target: value / totals[source]
                          for target, value in row.items()}
                 for source, row in counts.items()}
    return table


def corpus_log_likelihood(table: TranslationTable,
                          bitext: list[Pair]) -> float:
    """Sum over pairs and targets of log p(b_j | a), NULL included."""
    return _e_step(bitext, table)[2]


def viterbi_align(table: TranslationTable, tokens_a: list[str],
                  tokens_b: list[str], pair_id: str = "") -> AlignmentLinkSet:
    """Per-target argmax links; NULL and earlier sources win ties."""
    links = set()
    null_row = table.get(NULL, {})
    for j, target in enumerate(tokens_b):
        best = null_row.get(target, 0.0)
        best_i = None
        for i, source in enumerate(tokens_a):
            p = table.get(source, {}).get(target, 0.0)
            if p > best:
                best = p
                best_i = i
        if best_i is not None:
            links.add((best_i, j))
    return AlignmentLinkSet(pair_id, frozenset(links))


def symmetrize(forward: AlignmentLinkSet, backward: AlignmentLinkSet,
               mode: str = "intersection") -> AlignmentLinkSet:
    """Combine directions; backward links arrive as (j, i) and transpose."""
    if forward.pair_id != backward.pair_id:
        raise ValueError(f"pair-id mismatch: {forward.pair_id!r} vs "
                         f"{backward.pair_id!r}")
    transposed = {(i, j) for j, i in backward.links}
    if mode == "intersection":
        links = set(forward.links) & transposed
    elif mode == "union":
        links = set(forward.links) | transposed
    else:
        raise ValueError(f"unknown symmetrization mode: {mode}")
    return AlignmentLinkSet(forward.pair_id, frozenset(links))


def align_bitext(bitext: list[Pair], iterations: int = 10,
                 mode: str = "intersection",
                 ) -> tuple[list[AlignmentLinkSet], TranslationTable]:
    """Train both directions and emit symmetrized links per pair.

    Returns the link sets (in bitext order) and the forward (a -> b)
    translation table.
    """
    forward_table = train_model1(bitext, iterations)
    reversed_bitext = [(b, a, pid) for a, b, pid in bitext]
    backward_table = train_model1(reversed_bitext, iterations)
    out = []
    for tokens_a, tokens_b, pair_id in bitext:
        fwd = viterbi_align(forward_table, tokens_a, tokens_b, pair_id)
        bwd = viterbi_align(backward_table, tokens_b, tokens_a, pair_id)
        out.append(symmetrize(fwd, bwd, mode))
    return out, forward_table


# ---------------------------------------------------------------------------
# file formats


def write_alignments(link_sets, path, comments=()) -> None:
    """Pharaoh format: `pair-id<TAB>i-j i-j ...`, links sorted by (i, j)."""
    artifacts.write_lines(path, (
        f"{link_set.pair_id}\t"
        + " ".join(f"{i}-{j}" for i, j in sorted(link_set.links))
        for link_set in link_sets), comments)


def _link(item: str) -> tuple[int, int]:
    i, sep, j = item.partition("-")
    if not sep:
        raise ValueError(f"bad link {item!r}")
    return int(i), int(j)


def read_alignments(path) -> list[AlignmentLinkSet]:
    out = []
    for lineno, (pair_id, rest) in artifacts.records(path, 2):
        if not pair_id:
            raise ValueError(f"{path}:{lineno}: missing pair id")
        links = frozenset(artifacts.field(path, lineno, _link, item)
                          for item in rest.split())
        out.append(AlignmentLinkSet(pair_id, links))
    return out


def write_table(table: TranslationTable, path, comments=(),
                min_prob: float = TABLE_WRITE_MIN_PROB) -> None:
    """Translation-table TSV, negligible rows omitted."""
    artifacts.write_lines(path, (
        f"{source}\t{target}\t{prob!r}"
        for source in sorted(table)
        for target, prob in sorted(table[source].items())
        if prob >= min_prob), comments)


def read_table(path) -> TranslationTable:
    table: TranslationTable = {}
    for lineno, (source, target, prob) in artifacts.records(path, 3):
        table.setdefault(source, {})[target] = artifacts.field(
            path, lineno, float, prob)
    return table
