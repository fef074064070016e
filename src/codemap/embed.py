"""Bilingual skip-gram (BiSkip) with negative sampling.

One shared embedding table holds both languages, tokens tagged `a:`/`b:`;
ids, counts, windows and link partners come from the bitext's integer
index (`align.Bitext`).  Each center predicts its same-language window
and, through its links, the window around each linked position on the
other side.  One SGD step (`sgns_step`, the one kernel) covers the
contexts and negatives of up to SIDE_BATCH consecutive centers of a pair
side, as three small matrix products on their distinct centers and
output rows; a side of at most SIDE_BATCH tokens is one step.  Within
a step every update reads the table as it was before the step, and
repeated centers and rows sum their gradients (the Hogwild-style
trade-off).  That trade-off, and the step's cost, grow with the number
of centers, so the gain over per-center steps depends on side length.

An epoch makes its random draws in three phases: with subsampling, one
keep draw per in-vocabulary occurrence, side a's then side b's, and one
window layout over what is kept (without subsampling the layout is built
once; one stable sort on the center orders its rows); every kept
center's reach, in one draw; and K uniforms per context, in context
order.  It then plans a block of pairs, up to PLAN_ROWS window rows, at
a time: the plan gathers the block's contexts, draws their uniforms and
counts each step's occurrences into (center, row) cells; the rows with
room for a context, the steps and their numbered centers, which no draw
changes, are planned once per layout.  Contexts and negatives never read
the table, so planning first changes nothing but the time (the batching
of Ji et al. 2016, arXiv 1604.04661); float draws concatenate, so where
a block ends changes no draw.  The plan does not sort: a negative's id
is read from a table of equal buckets of [0, 1), at least 16 per noise
CDF entry, with `searchsorted` only in the buckets that hold an entry
(`_NoiseLookup`), and the cells are numbered by masks over vocabulary
ids (`_numbered`), which are all below the vocabulary size.

Who draws and who steps: after `init_table`, `_Planner.messages` makes
every draw in the order above, one plan per block, and the step loop
reads the plans through `forked.results`.  Wherever a child can run
beside this process (`forked.available()`), a forked child owns the
generator and plans while this process runs only the step loop, one
dense kernel call per step that updates the rows it gathered in place;
the two overlap on two CPUs.  The fork costs about what planning ten
demo blocks does, and the demo plans 560, so a training of a few blocks
pays it too rather than keep a second path.  Where no child can run
(no `os.fork`, or one CPU), each plan is drawn here as it is read.  The
plans are the same either way.  A plan's cell counts go in the narrowest
unsigned type that holds its largest: uint8 on the demo (35).
`sgns_pair_loss`/`sgns_pair_grads`, checked against finite differences,
are one-center steps of the same kernel on a copy of the table.
Training with a fixed seed is bit-reproducible.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import artifacts, forked
from .align import Bitext

LR_FLOOR_FACTOR = 1e-4
SIGMOID_CLAMP = 30.0
NOISE_POWER = 0.75
# Most consecutive centers of a pair side in one SGD step.  The step
# reads the table as it was before it and sums a repeated center's
# gradients into one update, so a step over a few hundred code tokens
# diverges; a side of up to 32 tokens (the demo's chunks) is one step.
SIDE_BATCH = 32
# Most window rows (about 5 contexts each) planned at once: a block of
# pairs ends at the first pair that reaches it.  A whole-epoch plan is
# faster but holds every draw and cell of the epoch in memory.
PLAN_ROWS = 256
# Fewest equal buckets of [0, 1) in the noise lookup; a power of two, so
# a uniform's bucket is exact.
NOISE_BUCKETS = 2 ** 12


@dataclass(frozen=True)
class TrainConfig:
    dim: int = 100
    window: int = 5
    negatives: int = 5
    epochs: int = 10
    lr0: float = 0.025
    min_count: int = 1
    subsample: float = 1e-3
    seed: int = 1

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        if not 0 < self.lr0 < np.inf:
            raise ValueError("lr0 must be positive and finite")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if not 0 <= self.subsample < np.inf:
            raise ValueError("subsample must be >= 0 and finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


class Vocabulary:
    """Language-tagged tokens, ids in the given order, with a count^0.75
    noise law.  Counts default to 1 (uniform noise), as for a loaded
    table; an empty vocabulary is allowed, so saved empty tables load."""

    def __init__(self, tokens: list[str], counts: list[int] | None = None):
        self.tokens = list(tokens)
        self.ids = {token: k for k, token in enumerate(self.tokens)}
        if len(self.ids) != len(self.tokens):
            raise ValueError("duplicate tokens")
        self.counts = np.asarray(
            [1] * len(tokens) if counts is None else counts, np.float64)
        self.total_count = int(self.counts.sum())
        weights = self.counts ** NOISE_POWER
        self.noise_dist = weights / weights.sum() if len(tokens) else weights
        self.noise_cdf = np.cumsum(self.noise_dist)
        if len(tokens):
            self.noise_cdf[-1] = 1.0

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.ids


def vocab_from_bitext(bitext, min_count: int = 1) -> Vocabulary:
    """The bitext index's tagged tokens seen at least min_count times, in
    its (-count, token) order, so vocabulary ids are index ids."""
    bitext = Bitext.of(bitext)
    kept = int(np.count_nonzero(bitext.counts >= min_count))
    if not kept:
        raise ValueError("no tokens survive min_count")
    return Vocabulary(bitext.tokens[:kept], bitext.counts[:kept].tolist())


@dataclass
class EmbeddingTable:
    input_vecs: np.ndarray   # |V| x d
    output_vecs: np.ndarray  # |V| x d

    def __post_init__(self):
        if self.input_vecs.shape != self.output_vecs.shape:
            raise ValueError("input/output shape mismatch")


def init_table(vocab_size: int, cfg: TrainConfig,
               rng: np.random.Generator) -> EmbeddingTable:
    """Standard word2vec init: small uniform inputs, zero outputs."""
    span = 0.5 / cfg.dim
    input_vecs = rng.uniform(-span, span, size=(vocab_size, cfg.dim))
    output_vecs = np.zeros((vocab_size, cfg.dim), dtype=np.float64)
    return EmbeddingTable(input_vecs, output_vecs)


def _numbered(step, ids, steps, size):
    """The distinct ids of each step, sorted, flat; each step's offset
    into them (steps + 1); and each entry's index into them.  Entry i is
    id `ids[i]`, below `size`, of step `step[i]`.  The ids are first
    renumbered among the call's distinct ones, so the (step, id) mask is
    steps x distinct, not steps x size."""
    seen = np.zeros(size, bool)
    seen[ids] = True
    distinct = np.flatnonzero(seen)
    local = np.empty(size, np.intp)
    local[distinct] = np.arange(len(distinct))
    marked = np.zeros((steps, len(distinct)), bool)
    cell = step * len(distinct) + local[ids]
    marked.ravel()[cell] = True
    flat = np.flatnonzero(marked)
    rank = np.empty(marked.size, np.intp)
    rank[flat] = np.arange(len(flat))
    offsets = np.zeros(steps + 1, np.intp)
    np.cumsum(np.count_nonzero(marked, axis=1), out=offsets[1:])
    return distinct[flat % len(distinct)], offsets, rank[cell]


def _cells(size, center_step, centers, center_of, rows, counts):
    """Occurrences counted into (center, row) cells, per step.

    `centers` is `_numbered(center_step, ids, steps, size)` over the
    centers' vocabulary ids, below `size`; center k is of step
    `center_step[k]`.  Occurrence (i, j) pairs center `center_of[i]`
    with row `rows[i, j]`: a context if j is 0 and a negative otherwise,
    counted `counts[i, j]` times (a count of 0 still numbers its row).
    Returns, flat with per-step offsets, each step's distinct centers C
    and rows R, sorted, and its |C| x |R| integer cell counts, `total`
    over all occurrences and `pos` over contexts: (C, C offsets, R, R
    offsets, total, pos, cell offsets).
    """
    centers, center_offsets, center_at = centers
    steps = len(center_offsets) - 1
    step, width = center_step[center_of], rows.shape[1]
    rows, row_offsets, row_at = _numbered(np.repeat(step, width),
                                          rows.ravel(), steps, size)
    widths = np.diff(row_offsets)
    cell_offsets = np.zeros(steps + 1, np.intp)
    np.cumsum(np.diff(center_offsets) * widths, out=cell_offsets[1:])
    # cell: the step's offset, plus the center's slot times the step's
    # width, plus the row's slot
    cells = np.repeat(cell_offsets[step] - row_offsets[step] + (
        center_at - center_offsets[center_step])[center_of] * widths[step],
                      width) + row_at
    size = int(cell_offsets[-1])
    return (centers, center_offsets, rows, row_offsets,
            np.bincount(cells[counts.ravel()], minlength=size),
            np.bincount(cells[::width], minlength=size), cell_offsets)


def sgns_step(C, R, total, pos, table: EmbeddingTable, lr: float) -> float:
    """The SGNS kernel: one SGD step on a step's cells; returns the loss
    before it.

    Cell (c, r) holds `total[c, r]` occurrences of input row C[c] with
    output row R[r], `pos[c, r]` of them contexts and the rest negatives;
    the loss is -sum log sig(+-u_r . v_c) over occurrences.  With
    V = input[C], U = output[R] and the summed errors
    E = total * sig(V U^T) - pos, rows C move by -lr E U and rows R by
    -lr E^T V.  In training the step is up to SIDE_BATCH centers of one
    pair side.  Hogwild-style, every update reads the table as it was
    before the step, and repeated centers and rows sum their gradients.
    C and R are distinct, so the gathered rows are updated and written
    back, with no second gather.
    """
    V, U = table.input_vecs[C], table.output_vecs[R]
    scores = V @ U.T
    np.maximum(scores, -SIGMOID_CLAMP, out=scores)
    np.minimum(scores, SIGMOID_CLAMP, out=scores)
    sig = np.negative(scores)
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    # -log sig(-s) = s - log sig(s)
    terms = np.subtract(total, pos, dtype=np.float64)
    terms *= scores
    logs = np.log(sig)
    logs *= total
    terms -= logs
    # the summed errors E, in place
    sig *= total
    sig -= pos
    grad_in, grad_out = sig @ U, sig.T @ V
    grad_in *= lr
    V -= grad_in
    table.input_vecs[C] = V
    grad_out *= lr
    U -= grad_out
    table.output_vecs[R] = U
    return float(terms.sum())


def _pair_step(center: int, context: int, negatives, table: EmbeddingTable):
    """sgns_step at learning rate 1 for one center and one context on a
    copy of the table: (loss, stepped copy, output rows)."""
    R, row_of = np.unique(np.array([context, *negatives], np.intp),
                          return_inverse=True)
    total = np.bincount(row_of)[None]
    pos = (R == context)[None].astype(np.float64)
    stepped = EmbeddingTable(table.input_vecs.copy(),
                             table.output_vecs.copy())
    loss = sgns_step(np.array([center]), R, total, pos, stepped, 1.0)
    return loss, stepped, R


def sgns_pair_loss(center: int, context: int, negatives,
                   table: EmbeddingTable) -> float:
    """-log sig(u_ctx . v) - sum_neg log sig(-u_neg . v): the loss
    sgns_step reads for one center and a single context."""
    return _pair_step(center, context, negatives, table)[0]


def sgns_pair_grads(center: int, context: int, negatives,
                    table: EmbeddingTable) -> dict:
    """Analytic gradients of sgns_pair_loss per touched (matrix, id) slot.

    Keys are ("in", id) or ("out", id); duplicate negatives accumulate,
    matching the loss summation.  Each is how far sgns_step, the trainer's
    kernel, moves that row at learning rate 1: the gradient up to rounding.
    """
    _, stepped, R = _pair_step(center, context, negatives, table)
    grads = {("in", center): table.input_vecs[center]
             - stepped.input_vecs[center]}
    grads.update({("out", row): table.output_vecs[row]
                  - stepped.output_vecs[row] for row in R.tolist()})
    return grads


class _NoiseLookup:
    """`np.searchsorted(cdf, u, side="right")` for uniforms u in [0, 1)
    by a bucket table.  Over bucket [b/B, (b+1)/B) the search is one id
    unless a CDF entry falls inside it; draws in such a loose bucket fall
    back to the search.  B is the smallest power of two of at least 16
    buckets per CDF entry, and NOISE_BUCKETS at least, so at most one
    bucket in 16 is loose: 2% of them for the demo's 83 ids (4,096
    buckets), 6% for 31,090 ids (2**19 buckets, 4.7 MB)."""

    def __init__(self, cdf):
        self.buckets = max(NOISE_BUCKETS,
                           1 << (16 * len(cdf) - 1).bit_length())
        edges = np.arange(self.buckets + 1) / self.buckets
        self.cdf = cdf
        self.ids = np.searchsorted(cdf, edges[:-1], side="right")
        self.loose = self.ids != np.searchsorted(cdf, edges[1:], side="left")

    def __call__(self, uniforms):
        bucket = (uniforms * self.buckets).astype(np.intp)
        ids = self.ids[bucket]
        loose = self.loose[bucket]
        ids[loose] = np.searchsorted(self.cdf, uniforms[loose], side="right")
        return ids


def _keep_probability(count: float, total: int, subsample: float) -> float:
    # word2vec formula: (sqrt(f/t) + 1) * t/f for frequency f = count/total
    frequency = count / total
    ratio = subsample / frequency
    return min(1.0, (frequency / subsample) ** 0.5 * ratio + ratio)


class _Layout(NamedTuple):
    """Window rows of all pairs, in training order: per pair, side a's kept
    centers, then side b's.  A center has one row for its own side, then
    one per kept link of its, for the other side around the partner; the
    partner, when kept, is the surrogate center and not a context of its
    own window.  A reach r gives a row windows of min(r, caps) kept ids,
    ending at anchor 0 and starting at anchor 1."""
    ids: np.ndarray      # kept vocabulary ids, per pair side a's then b's
    offsets: list        # rows of each (pair, side) entry, 2 * pairs + 1
    center_offsets: np.ndarray  # each entry's kept centers, into ids
    center: np.ndarray   # per row, its center, into ids
    anchors: np.ndarray  # rows x 2, into ids
    caps: np.ndarray     # rows x 2, the room to the ends of the row's side


def _layout(kept, links) -> _Layout:
    """The layout of all pairs from, per side, their kept tokens'
    (positions, vocabulary ids, pair offsets) and their links' (own,
    other) positions, sorted by (own, other): own rows, then link rows,
    ordered by one stable sort on their center."""
    (_, ids_a, offsets_a), (_, ids_b, offsets_b) = kept
    pairs = len(offsets_a) - 1
    center_offsets = np.zeros(2 * pairs + 1, np.intp)
    np.cumsum(np.column_stack((np.diff(offsets_a), np.diff(offsets_b))),
              out=center_offsets[1:])
    ids = np.empty(len(ids_a) + len(ids_b), np.int32)
    # side a's kept token k of pair p is ids[k + shifts[0][p]], side b's
    # ids[k + shifts[1][p]]
    shifts = offsets_b[:-1], offsets_a[1:]
    own_rows, link_rows = [], []
    for side, ((own_pos, own_ids, own_offsets), (other_pos, _, other_offsets),
               (own, other)) in enumerate(zip(kept, kept[::-1], links)):
        centers = np.arange(len(own_ids))
        pair = np.repeat(np.arange(pairs), np.diff(own_offsets))
        at = centers + shifts[side][pair]
        ids[at] = own_ids
        index = centers - own_offsets[pair]
        own_rows.append((at, np.column_stack((at, at + 1)), np.column_stack(
            (index, own_offsets[pair + 1] - 1 - centers))))
        # the links whose own position is kept, and that center
        slot = np.searchsorted(own_pos, own)
        used = slot < len(own_pos)
        used[used] = own_pos[slot[used]] == own[used]
        linked, other = slot[used], other[used]
        link_pair = pair[linked]
        before = np.searchsorted(other_pos, other)
        after = np.searchsorted(other_pos, other, "right")
        ends = other_offsets[link_pair], other_offsets[link_pair + 1]
        shift = shifts[1 - side][link_pair]
        link_rows.append((at[linked],
                          np.column_stack((before + shift, after + shift)),
                          np.column_stack((before - ends[0], ends[1] - after))))
    center, anchors, caps = (np.concatenate(column)
                             for column in zip(*own_rows, *link_rows))
    order = np.argsort(center, kind="stable")
    # int32 halves what a layout kept across epochs holds
    center, anchors, caps = (column[order].astype(np.int32)
                             for column in (center, anchors, caps))
    return _Layout(ids, np.searchsorted(center, center_offsets).tolist(),
                   center_offsets, center, anchors, caps)


class _Block(NamedTuple):
    """What the plans of a block of pairs share while the layout stays:
    its window rows with room for a context (a reach is at least 1, so
    exactly those rows get contexts), their anchors and steps, the
    steps' centers numbered by `_numbered`, and each step's pair."""
    rows: np.ndarray     # into the layout
    anchors: np.ndarray  # per row, 2 each
    step: np.ndarray     # per row
    centers: tuple       # (C, C offsets, per row its index into C)
    pairs: np.ndarray    # per step


class _Planner:
    """Makes every random draw of training after `init_table`, in the
    three phases of the module docstring, and plans a block of up to
    PLAN_ROWS window rows at a time into one message for `_step_epoch`.

    A block's message is ((steps, |C|, |R|, cells), ints, counts), as
    `_cells` gives them: `ints` the int32 C, R, C offsets, R offsets,
    cell offsets and each step's pair, `counts` total then pos in the
    narrowest unsigned type that holds the block's largest count.  An
    epoch ends with its context count, a plain int."""

    def __init__(self, bitext: Bitext, links, vocab: Vocabulary,
                 cfg: TrainConfig):
        self.vocab, self.cfg = vocab, cfg
        self.noise = _NoiseLookup(vocab.noise_cdf)
        self.keep_probability = None if cfg.subsample == 0 else np.array([
            _keep_probability(count, vocab.total_count, cfg.subsample)
            for count in vocab.counts])
        vocab_of = np.array([vocab.ids.get(token, -1)
                             for token in bitext.tokens], np.intp)
        # per side, the in-vocabulary positions into its `ids`, their
        # vocabulary ids and pair offsets into both; fixed across epochs
        self.sides = []
        for ids, offsets in zip(bitext.ids, bitext.offsets):
            ids = vocab_of[ids]
            positions = np.flatnonzero(ids >= 0)
            self.sides.append((positions, ids[positions],
                               np.searchsorted(positions, offsets)))
        self.links = bitext.links(links)
        self.pairs = len(bitext)
        # without subsampling every epoch keeps the same tokens
        self.layout = None if self.keep_probability is not None else _layout(
            self.sides, self.links)

    def _epoch_layout(self, rng) -> _Layout:
        """The layout built once or, with subsampling, the layout of the
        occurrences that a keep draw each leaves, side a's then side b's."""
        if self.layout is not None:
            return self.layout
        kept = []
        for positions, ids, offsets in self.sides:
            keep = rng.random(len(ids)) <= self.keep_probability[ids]
            before = np.zeros(len(keep) + 1, np.intp)
            np.cumsum(keep, out=before[1:])
            kept.append((positions[keep], ids[keep], before[offsets]))
        return _layout(kept, self.links)

    def _block(self, layout: _Layout, first: int, last: int):
        """The part of the plans of pairs first..last-1 that no draw
        changes, one step per SIDE_BATCH consecutive centers of a pair
        side that have contexts; None if no row has room for a context."""
        offsets = layout.offsets[2 * first:2 * last + 1]
        entry = np.repeat(np.arange(2 * first, 2 * last), np.diff(offsets))
        live = np.flatnonzero(layout.caps[offsets[0]:offsets[-1]].any(1))
        if not len(live):
            return None
        rows, entry = live + offsets[0], entry[live]
        center = layout.center[rows]
        key = entry << 32 | (center - layout.center_offsets[entry]) \
            // SIDE_BATCH
        new = np.ones(len(rows), bool)
        new[1:] = key[1:] != key[:-1]
        step = np.cumsum(new) - 1
        return _Block(rows, layout.anchors[rows], step,
                      _numbered(step, layout.ids[center], int(step[-1]) + 1,
                                len(self.vocab)), entry[new] >> 1)

    def _plan(self, layout: _Layout, block: _Block, lengths, rng):
        """The block's message, from the layout's window lengths (rows x
        2).  It draws K uniforms per context, in context order.  The
        negatives come from the bucket lookup and the cells from
        `_cells`: nothing is sorted, and only draws in the lookup's loose
        buckets are searched."""
        lengths = lengths[block.rows]
        # one ragged gather: per row its left window, then its right one
        starts = block.anchors - lengths * (1, 0)
        segment = lengths.ravel()
        ends = np.cumsum(segment)
        contexts = layout.ids[np.repeat(starts.ravel() - ends + segment,
                                        segment) + np.arange(ends[-1])]
        center_of = np.repeat(np.arange(len(block.rows)), lengths.sum(1))
        # per context its row, then its negatives'.  A negative equal to
        # its own context counts 0: it is dropped, and its row is in the
        # step's rows anyway
        rows = np.column_stack((contexts, self.noise(
            rng.random((len(contexts), self.cfg.negatives)))))
        counts = rows != rows[:, :1]
        counts[:, 0] = True
        C, c_at, R, r_at, total, pos, at = _cells(
            len(self.vocab), block.step, block.centers, center_of, rows,
            counts)
        counts = np.min_scalar_type(int(total.max()))
        return ((len(block.pairs), len(C), len(R), len(total)),
                np.concatenate((C, R, c_at, r_at, at, block.pairs),
                               dtype=np.int32),
                np.concatenate((total, pos), dtype=counts, casting="unsafe"))

    def messages(self, rng: np.random.Generator):
        """Every epoch's block messages, then its end.  Blocks end at the
        first pair that brings them to PLAN_ROWS window rows; a block's
        fixed part (`_block`) is planned when it is first needed, once
        per layout."""
        planned = None
        for _ in range(self.cfg.epochs):
            layout = self._epoch_layout(rng)
            if layout is not planned:
                planned, blocks = layout, {}
            # int32 keeps the epoch's arrays at 4 bytes per center and 8
            # per row
            reaches = rng.integers(1, self.cfg.window + 1,
                                   size=len(layout.ids), dtype=np.int32)
            lengths = np.minimum(reaches[layout.center, None], layout.caps)
            rows = layout.offsets[::2]
            first = 0
            while first < self.pairs:
                last = min(bisect_left(rows, rows[first] + PLAN_ROWS),
                           self.pairs)
                if first not in blocks:
                    blocks[first] = self._block(layout, first, last)
                if blocks[first] is not None:
                    yield self._plan(layout, blocks[first], lengths, rng)
                first = last
            yield int(lengths.sum())


# a divergent step overflows; train_biskip's loss check is its report
@np.errstate(over="ignore", invalid="ignore")
def _step_epoch(messages, table: EmbeddingTable, lrs: list[float]):
    """Steps along one epoch's block messages (`_Planner`) at their
    pairs' learning rates, up to the epoch's end; returns the loss summed
    per pair, then over pairs, and the epoch's context count, its end
    message.  sgns_step runs once per planned step, on flat slices of the
    block's cells."""
    loss = pair_loss = 0.0
    last_pair = None
    for message in messages:
        if type(message) is int:
            return loss + pair_loss, message
        (steps, centers, rows, cells), ints, counts = message
        cuts = [0, *accumulate((centers, rows, 3 * steps + 3)), len(ints)]
        C, R, bounds, step_pairs = (
            ints[start:end] for start, end in zip(cuts, cuts[1:]))
        total, pos = counts[:cells], counts[cells:]
        # per step, where its centers, rows and cells start
        bounds = bounds.reshape(3, -1).T.tolist()
        for pair, (c0, r0, t0), (c1, r1, t1) in zip(
                step_pairs.tolist(), bounds, bounds[1:]):
            if pair != last_pair:
                loss += pair_loss
                pair_loss, last_pair = 0.0, pair
            shape = c1 - c0, r1 - r0
            pair_loss += sgns_step(
                C[c0:c1], R[r0:r1], total[t0:t1].reshape(shape),
                pos[t0:t1].reshape(shape), table, lrs[pair])


def train_biskip(bitext, links, cfg: TrainConfig,
                 vocab: Vocabulary | None = None,
                 losses: list | None = None) -> EmbeddingTable:
    """Train shared bilingual embeddings over an aligned bitext.

    `vocab` defaults to one built from the bitext itself with
    cfg.min_count.  Each SIDE_BATCH consecutive kept centers of a pair
    side take one SGD step (sgns_step) over their contexts: each
    center's same-language window and the window around every position
    it is linked to, each context with cfg.negatives noise samples.  The
    learning rate decays linearly from lr0 to lr0 * 1e-4 over all
    in-vocabulary token occurrences, frozen within each pair.  An epoch
    draws, in this order: with cfg.subsample > 0, a keep draw per
    in-vocabulary occurrence, side a's then side b's; every kept center's
    reach; and the negatives, context by context.  Each epoch appends to
    `losses`, if given, its mean loss per context (the context's term and
    its negatives', read before each step); the first epoch whose loss
    is not finite raises FloatingPointError.  A fixed seed gives
    bit-identical tables, whether the plans are drawn in a forked child
    or here.  Links must fit the chunks (`Bitext.links`).
    """
    bitext = Bitext.of(bitext)
    if vocab is None:
        vocab = vocab_from_bitext(bitext, cfg.min_count)
    rng = np.random.default_rng(cfg.seed)
    table = init_table(len(vocab), cfg, rng)
    if not bitext or cfg.epochs == 0:
        return table
    if not any(link_set.links for link_set in links):
        warnings.warn("no alignment links; training monolingually",
                      stacklevel=2)
    planner = _Planner(bitext, links, vocab, cfg)
    sizes = sum(np.diff(offsets) for _, _, offsets in planner.sides)
    total = int(sizes.sum())
    if total == 0:
        return table
    schedule_span = cfg.epochs * total
    starts = (np.cumsum(sizes) - sizes).tolist()
    with forked.results(lambda: planner.messages(rng), "the block planner",
                        True) as messages:
        for epoch in range(cfg.epochs):
            lrs = [max(cfg.lr0 * (1.0 - (epoch * total + start)
                                  / schedule_span),
                       cfg.lr0 * LR_FLOOR_FACTOR) for start in starts]
            loss, n_contexts = _step_epoch(messages, table, lrs)
            if losses is not None:
                losses.append(loss / max(n_contexts, 1))
            if not np.isfinite(loss):
                raise FloatingPointError("non-finite values after training")
    if not (np.isfinite(table.input_vecs).all()
            and np.isfinite(table.output_vecs).all()):
        raise FloatingPointError("non-finite values after training")
    return table


# ---------------------------------------------------------------------------
# text format


def save_embeddings(table: EmbeddingTable, vocab: Vocabulary, path,
                    comments=()) -> None:
    """Header `<|V|> <d>`, then `token v1 ... vd` rows (input vectors)."""
    artifacts.write_vectors(path, vocab.tokens, table.input_vecs, comments)


def load_embeddings(path) -> tuple[EmbeddingTable, Vocabulary]:
    """Inverse of save_embeddings; counts are lost, so the loaded
    vocabulary reports count 1 (uniform noise) for every token."""
    tokens, vectors, _, _ = artifacts.read_vectors(path)
    vocab = Vocabulary(tokens)
    table = EmbeddingTable(vectors, np.zeros_like(vectors))
    return table, vocab
