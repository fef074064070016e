"""IBM Model 1 word alignment with bidirectional symmetrization.

Paired token streams form a bitext, indexed once as integer ids
(`Bitext`) for alignment and training alike.  EM learns a lexical
translation table with a NULL source, `viterbi_align` takes per-target
argmaxes, and `symmetrize` intersects both directions once per bitext for
high-precision links.  Model 1 has no distortion: keywords recur in
near-parallel order across languages.

Each direction's `Model1Table` numbers its (source, target) cells from
those ids; EM and Viterbi run in batches of whole segments, at most
BATCH_OCCURRENCES occurrences unless one segment is longer.  Occurrences
keep the order of a loop over pairs, targets and sources, and
`np.bincount`/`np.add.at` add in input order: counts, totals and
denominators equal a dict-of-dicts E-step's left-to-right sums under
Python 3.11 (3.12 compensates `sum`), bit for bit; per-batch sums differ.

`batches()` plans the walk that indexing, `e_step` and `viterbi_align`
share, and each reads a batch's `t[cell[lo:hi]]` the same way.
`train_model1` builds each occurrence's source id once per training, so
an iteration only gathers `t`, divides and adds.  That index is int32 and
lives only for the training, so it is gone before the other direction's
table is built: on the bitext-align workload (721,540 occurrences per
direction), intp copies of the cells, sources and segments raised peak
RSS from 73 to 82 MB held for the training and to 99 MB kept on the
table.  `write_table` selects, sorts and formats only the cells it keeps.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import artifacts

NULL = "<NULL>"

# a pair is (tokens_a, tokens_b, pair_id)
Pair = tuple[list[str], list[str], str]

PROB_FLOOR = 1e-12
TABLE_WRITE_MIN_PROB = 1e-6
# build_bitext splits an over-long side before this token, a method's start
BOUNDARY_TOKEN = "func_decl"
BATCH_OCCURRENCES = 1 << 16


@dataclass(frozen=True)
class AlignmentLinkSet:
    pair_id: str
    links: frozenset  # of (i, j) index pairs


class StaleLinks(ValueError):
    """Alignment links that do not fit the bitext's chunks."""


def build_bitext(pairs: list[Pair], max_len: int = 2000) -> list[Pair]:
    """Drop empty-sided pairs and chunk over-long ones.

    The E-step is O(|a|*|b|) per pair, so sides longer than max_len are
    split at method boundaries (positions of BOUNDARY_TOKEN) and the
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
        segs_a = _split(tokens_a, max_len)
        segs_b = _split(tokens_b, max_len)
        k = min(len(segs_a), len(segs_b))
        merged_a = segs_a[:k - 1] + [sum(segs_a[k - 1:], [])]
        merged_b = segs_b[:k - 1] + [sum(segs_b[k - 1:], [])]
        for index, (seg_a, seg_b) in enumerate(zip(merged_a, merged_b)):
            if seg_a and seg_b:
                out.append((seg_a, seg_b, f"{pair_id}#{index}"))
    return out


def _split(tokens: list[str], max_len: int) -> list[list[str]]:
    bounds = [i for i, t in enumerate(tokens) if t == BOUNDARY_TOKEN]
    segments: list[list[str]] = []
    start = 0
    while len(tokens) - start > max_len:
        candidates = [b for b in bounds if start < b <= start + max_len]
        cut = candidates[-1] if candidates else start + max_len
        segments.append(tokens[start:cut])
        start = cut
    segments.append(tokens[start:])
    return segments


class Bitext(tuple):
    """The chunked bitext, a tuple of (tokens_a, tokens_b, pair_id), with
    its one integer index, the only place token strings become ids:
    `tokens` is the tagged vocabulary (`a:`/`b:`) in (-count, token)
    order with its `counts`, `ids` each side's token ids flat over the
    pairs and `offsets` each side's pair boundaries in them.
    `transposed()` is the b -> a direction over the same index."""

    def __init__(self, pairs: list[Pair]):
        self.pair_ids = [pair_id for _, _, pair_id in self]
        self.tags, tokens, flat = ("a:", "b:"), [], []
        for side, tag in enumerate(self.tags):
            ids = {}
            flat += [ids.setdefault(token, len(ids)) + len(tokens)
                     for pair in self for token in pair[side]]
            tokens += [tag + token for token in ids]
        counts = np.bincount(flat, minlength=len(tokens))
        order = sorted(range(len(tokens)),
                       key=lambda k: (-counts[k], tokens[k]))
        self.tokens, self.counts = [tokens[k] for k in order], counts[order]
        rank = np.empty(len(tokens), np.int32)
        rank[order] = np.arange(len(tokens))
        self.offsets = tuple(np.cumsum([0] + [len(pair[side]) for pair
                                              in self]) for side in (0, 1))
        self.ids = tuple(np.split(rank[flat], [self.offsets[0][-1]]))

    @classmethod
    def of(cls, bitext) -> "Bitext":
        return bitext if isinstance(bitext, cls) else cls(bitext)

    def transposed(self) -> "Bitext":
        """The swapped triples over this index, which is not rebuilt."""
        view = tuple.__new__(Bitext, [(b, a, pid) for a, b, pid in self])
        view.__dict__.update(self.__dict__, tags=self.tags[::-1],
                             ids=self.ids[::-1], offsets=self.offsets[::-1])
        return view

    def links(self, link_sets) -> list[tuple]:
        """Per side of an a -> b index, the linked positions and their
        partners on the other side, flat positions into `ids` sorted by
        own then other.  A link set that names no pair, or a link outside
        its pair, was aligned on another chunking."""
        pair_of = {pair_id: k for k, pair_id in enumerate(self.pair_ids)}
        for link_set in link_sets:
            if link_set.pair_id not in pair_of:
                raise StaleLinks(f"pair {link_set.pair_id}: no such chunk "
                                 f"in the bitext; rerun align")
        pair, i, j = np.array([(pair_of[link_set.pair_id], i, j)
                               for link_set in link_sets
                               for i, j in link_set.links],
                              dtype=np.int64).reshape(-1, 3).T
        len_a, len_b = (np.diff(offsets)[pair] for offsets in self.offsets)
        bad = np.flatnonzero((np.minimum(i, j) < 0) | (i >= len_a)
                             | (j >= len_b))
        if len(bad):
            k = bad[0]
            raise StaleLinks(f"pair {self.pair_ids[pair[k]]}: link "
                             f"{i[k]}-{j[k]} outside its {len_a[k]}x"
                             f"{len_b[k]} chunk; rerun align")
        i, j = i + self.offsets[0][pair], j + self.offsets[1][pair]
        out = []
        for own, other in ((i, j), (j, i)):
            order = np.lexsort((other, own))
            out.append((own[order], other[order]))
        return out


class Model1Table(Mapping):
    """A direction's table, read as `table[source][target]` (rows are
    built on access).  Sources are the bitext's ids plus one, NULL is
    source 0.  Each occurrence (pair, target position, source position
    with NULL first) has an int32 `cell`, the id of a distinct
    (source, target); a target position's occurrences form a segment.  `t`
    is each cell's probability, uniform over a source's cells before EM."""

    def __init__(self, bitext):
        bitext = Bitext.of(bitext)
        (src_ids, tgt_ids), (src_off, tgt_off) = bitext.ids, bitext.offsets
        self.targets = [token[2:] for token in bitext.tokens]
        self.sources = [NULL] + self.targets
        self.source_ids = {NULL: 0} | {
            name: k + 1 for k, name in enumerate(self.targets)
            if bitext.tokens[k].startswith(bitext.tags[0])}
        # each pair's sources, NULL first, from source_off on
        source_off = src_off + np.arange(len(src_off))
        sources = np.insert(src_ids.astype(np.int64) + 1, src_off[:-1], 0)
        lengths = np.diff(tgt_off)
        sizes = np.repeat(np.diff(source_off), lengths)
        self.seg_offsets = np.cumsum([0, *sizes])
        # occurrence k of segment s is sources[k + shift[s]]; batches keep
        # the temporaries small next to the keys and the argsort below
        shift = np.repeat(source_off[:-1], lengths) - self.seg_offsets[:-1]
        keys = np.empty(self.seg_offsets[-1], np.int64)
        for first, lo, hi, _, seg in self.batches():
            seg += first
            keys[lo:hi] = (sources[np.arange(lo, hi) + shift[seg]] << 32
                           | tgt_ids[seg])
        # cell ids from one argsort: np.unique's inverse holds more copies
        order = np.argsort(keys)
        keys = keys[order]
        new = np.ones(len(keys), bool)
        new[1:] = keys[1:] != keys[:-1]
        self.cell = np.empty(len(keys), np.int32)
        self.cell[order] = np.cumsum(new, dtype=np.int32) - 1
        cells = keys[new]
        self.cell_src = (cells >> 32).astype(np.int32)
        self.cell_tgt = (cells & 0xFFFFFFFF).astype(np.int32)
        self.rows = np.searchsorted(self.cell_src,
                                    np.arange(len(self.sources) + 1))
        self.t = 1.0 / np.diff(self.rows)[self.cell_src]

    def __getitem__(self, source):
        lo, hi = self.rows[self.source_ids[source]:][:2]
        if lo == hi:
            raise KeyError(source)
        targets = [self.targets[k] for k in self.cell_tgt[lo:hi].tolist()]
        return dict(zip(targets, self.t[lo:hi].tolist()))

    def __iter__(self):
        return (self.sources[s] for s in np.flatnonzero(np.diff(self.rows)))

    def __len__(self):
        return int(np.count_nonzero(np.diff(self.rows)))

    def batches(self):
        """Whole segments, in order, at most BATCH_OCCURRENCES occurrences
        unless one segment is longer: per batch its first segment, its
        occurrences [lo, hi), its segment sizes and each occurrence's
        segment within the batch."""
        offsets, first = self.seg_offsets, 0
        while first < len(offsets) - 1:
            end = max(first + 1, int(np.searchsorted(
                offsets, offsets[first] + BATCH_OCCURRENCES, "right")) - 1)
            sizes = np.diff(offsets[first:end + 1])
            yield (first, offsets[first], offsets[end], sizes,
                   np.repeat(np.arange(end - first), sizes))
            first = end

    def e_step(self, src):
        """The expected counts per cell and totals per source under `t`,
        and the corpus log-likelihood (the one sum taken in another
        order); `src` is each occurrence's source id."""
        counts, totals = np.zeros(len(self.t)), np.zeros(len(self.sources))
        loglik = 0.0
        for _, lo, hi, sizes, seg in self.batches():
            cells = self.cell[lo:hi]
            share = self.t[cells]
            denom = np.bincount(seg, weights=share, minlength=len(sizes))
            loglik += float(np.sum(np.log(np.maximum(denom, PROB_FLOOR))
                                   - np.log(sizes)))
            # a zero denominator has only zero shares
            denom[denom == 0.0] = 1.0
            share /= denom[seg]
            np.add.at(counts, cells, share)
            np.add.at(totals, src[lo:hi], share)
        return counts, totals, loglik


def train_model1(bitext: list[Pair], iterations: int = 10,
                 log_likelihoods: list | None = None) -> Model1Table:
    """EM-train a translation table from uniform initialization.

    `log_likelihoods`, when given, receives the corpus log-likelihood under
    the table *entering* each iteration, so monotonicity is observable.
    """
    if not bitext:
        raise ValueError("empty bitext")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    table = Model1Table(bitext)
    # each occurrence's source id, for this training only
    src = np.empty(len(table.cell), np.int32)
    for _, lo, hi, _, _ in table.batches():
        src[lo:hi] = table.cell_src[table.cell[lo:hi]]
    for _ in range(iterations):
        counts, totals, loglik = table.e_step(src)
        if log_likelihoods is not None:
            log_likelihoods.append(loglik)
        table.t = np.divide(counts, totals[table.cell_src],
                            out=np.zeros_like(counts), where=counts > 0.0)
    return table


def viterbi_align(table: Model1Table) -> np.ndarray:
    """For each target position of the table's bitext, flat, the source
    position within its pair of the first maximum of its segment, -1
    where that is NULL: NULL and earlier sources win ties."""
    best = np.empty(len(table.seg_offsets) - 1, np.int64)
    for first, lo, hi, sizes, seg in table.batches():
        p = table.t[table.cell[lo:hi]]
        starts = table.seg_offsets[first:first + len(sizes)] - lo
        top = np.maximum.reduceat(p, starts)[seg]
        offsets = np.arange(len(p)) - starts[seg]
        best[first:first + len(sizes)] = np.minimum.reduceat(
            np.where(p == top, offsets, len(p)), starts) - 1
    return best


def _links(best, other, own_off, other_off):
    """A direction's links (pair, own, partner), and which `other` makes."""
    flat = np.flatnonzero(best >= 0)
    pair = np.searchsorted(own_off, flat, "right") - 1
    own, partner = flat - own_off[pair], best[flat]
    return pair, own, partner, other[other_off[pair] + partner] == own


def symmetrize(bitext: Bitext, forward: np.ndarray, backward: np.ndarray,
               mode: str = "intersection") -> list[AlignmentLinkSet]:
    """Per pair of `bitext`, in order, the links (i, j) that both
    directions make (intersection) or that either makes (union), from
    `viterbi_align` of the a -> b and the b -> a table."""
    if mode not in ("intersection", "union"):
        raise ValueError(f"unknown symmetrization mode: {mode}")
    off_a, off_b = bitext.offsets
    pair, j, i, mutual = _links(forward, backward, off_b, off_a)
    if mode == "intersection":
        pair, i, j = pair[mutual], i[mutual], j[mutual]
    else:
        pair_b, i_b, j_b, mutual = _links(backward, forward, off_a, off_b)
        pair, i, j = (np.concatenate([f, b[~mutual]]) for f, b in
                      ((pair, pair_b), (i, i_b), (j, j_b)))
    order = np.argsort(pair, kind="stable")
    bounds = np.searchsorted(pair[order], np.arange(len(bitext) + 1))
    i, j, bounds = i[order].tolist(), j[order].tolist(), bounds.tolist()
    return [AlignmentLinkSet(pair_id, frozenset(zip(i[lo:hi], j[lo:hi])))
            for pair_id, lo, hi in zip(bitext.pair_ids, bounds, bounds[1:])]


def align_bitext(bitext: list[Pair], iterations: int = 10,
                 mode: str = "intersection", log_likelihoods=None,
                 ) -> tuple[list[AlignmentLinkSet], Model1Table]:
    """Train both directions and emit symmetrized links per pair.

    Returns the link sets (in bitext order) and the forward (a -> b)
    translation table; `log_likelihoods` receives the forward EM history.
    """
    bitext = Bitext.of(bitext)
    forward = train_model1(bitext, iterations, log_likelihoods)
    backward = train_model1(bitext.transposed(), iterations)
    return symmetrize(bitext, viterbi_align(forward), viterbi_align(backward),
                      mode), forward


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
    out, seen = [], set()
    for lineno, (pair_id, rest) in artifacts.records(path, 2):
        if not pair_id:
            raise ValueError(f"{path}:{lineno}: missing pair id")
        if pair_id in seen:
            raise ValueError(f"{path}:{lineno}: duplicate pair")
        seen.add(pair_id)
        links = [artifacts.field(path, lineno, _link, item)
                 for item in rest.split()]
        if len(set(links)) != len(links):
            raise ValueError(f"{path}:{lineno}: duplicate link")
        out.append(AlignmentLinkSet(pair_id, frozenset(links)))
    return out


def write_table(table: Model1Table, path, comments=()) -> None:
    """Translation-table TSV sorted by (source, target), rows below
    TABLE_WRITE_MIN_PROB omitted."""
    kept = np.flatnonzero(table.t >= TABLE_WRITE_MIN_PROB)
    rows = sorted(zip([table.sources[s]
                       for s in table.cell_src[kept].tolist()],
                      [table.targets[k] for k in table.cell_tgt[kept].tolist()],
                      table.t[kept].tolist()))
    artifacts.write_lines(path, (f"{source}\t{target}\t{prob!r}"
                                 for source, target, prob in rows), comments)


def read_table(path) -> dict[str, dict[str, float]]:
    table = {}
    for lineno, (source, target, prob) in artifacts.records(path, 3):
        table.setdefault(source, {})[target] = artifacts.field(
            path, lineno, float, prob)
    return table
