"""Bilingual skip-gram (BiSkip) with negative sampling.

One shared embedding table holds both languages, tokens tagged `a:`/`b:`;
ids, counts, windows and link partners come from the bitext's integer
index (`align.Bitext`).  Each center predicts its same-language window
and, through its links, the window around each linked position on the
other side.  One SGD step (`sgns_step`) covers the contexts and
negatives of up to SIDE_BATCH consecutive centers of a pair side, as
three small matrix products on their distinct centers and output rows
(`sgns_cells`); a side of at most SIDE_BATCH tokens is one step.  Within
a step every update reads the table as it was before the step, and
repeated centers and rows sum their gradients (the Hogwild-style
trade-off).  That trade-off, and the step's cost, grow with the number
of centers, so the gain over per-center steps depends on side length.

Training plans a block of consecutive pairs, then steps along it.  The
plan makes the block's random draws in the order a pair-by-pair trainer
makes them, gathers all its contexts and negatives at once and counts
each step's occurrences into (center, row) cells; the step loop then
runs only the dense kernel.  Contexts and negatives never read the
table, so planning first changes nothing but the time (the batching of
Ji et al. 2016, arXiv 1604.04661).  `sgns_pair_loss`/`sgns_pair_grads`,
checked against finite differences, are one-center views of the same
kernel.  Training with a fixed seed is bit-reproducible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import artifacts
from .align import Bitext

LR_FLOOR_FACTOR = 1e-4
SIGMOID_CLAMP = 30.0
NOISE_POWER = 0.75
# Most consecutive centers of a pair side in one SGD step.  The step
# reads the table as it was before it and sums a repeated center's
# gradients into one update, so a step over a few hundred code tokens
# diverges; a side of up to 32 tokens (the demo's chunks) is one step.
SIDE_BATCH = 32
# Most contexts planned at once: a block of pairs ends at the first pair
# that reaches it.  A whole-epoch plan is faster but holds every draw and
# cell of the epoch in memory.
PLAN_CONTEXTS = 1024


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
        if self.lr0 <= 0:
            raise ValueError("lr0 must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if self.subsample < 0:
            raise ValueError("subsample must be >= 0")


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

    def id_of(self, token: str) -> int | None:
        return self.ids.get(token)


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

    @property
    def dim(self) -> int:
        return self.input_vecs.shape[1]

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


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -SIGMOID_CLAMP, SIGMOID_CLAMP)))


def _numbered(keys, groups):
    """np.unique of `group << 32 | id` keys: the distinct ids, sorted
    within each group; each group's offset into them (groups + 1); and
    each key's slot within its group."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    offsets = np.searchsorted(distinct, np.arange(groups + 1) << 32)
    return distinct & 0xFFFFFFFF, offsets, inverse - offsets[keys >> 32]


def _cells(steps, center_keys, center_of, row_keys, labels, counts=None):
    """Occurrences counted into (center, row) cells, per step.

    Occurrence (i, j) pairs center `center_keys[center_of[i]]` with row
    `row_keys[i, j]`, both keyed `step << 32 | id`.  It is a context if
    `labels[i, j]` is 1 and a negative if 0, and counts `counts[i, j]`
    times (default once; a count of 0 still numbers its row).  Returns,
    flat with per-step offsets, each step's distinct centers C and rows
    R, sorted, and its |C| x |R| cell counts, `total` over all
    occurrences and `pos` over contexts: (C, C offsets, R, R offsets,
    total, pos, cell offsets).
    """
    centers, center_offsets, center_slot = _numbered(center_keys, steps)
    rows, row_offsets, row_slot = _numbered(row_keys.ravel(), steps)
    step, widths = center_keys[center_of] >> 32, np.diff(row_offsets)
    cell_offsets = np.zeros(steps + 1, np.intp)
    np.cumsum(np.diff(center_offsets) * widths, out=cell_offsets[1:])
    cells = ((cell_offsets[step] + center_slot[center_of] * widths[step])
             [:, None] + row_slot.reshape(row_keys.shape)).ravel()
    size = int(cell_offsets[-1])
    return (centers, center_offsets, rows, row_offsets,
            np.bincount(cells, None if counts is None else counts.ravel(),
                        size),
            np.bincount(cells, labels.ravel(), size), cell_offsets)


def occurrence_cells(centers, rows, labels):
    """One step's occurrences as cells: (C, R, total, pos), the distinct
    centers and rows and the |C| x |R| counts over all occurrences and
    over contexts (`labels` 1; negatives are 0)."""
    C, _, R, _, total, pos, _ = _cells(1, centers, np.arange(len(centers)),
                                       rows[:, None], labels[:, None])
    shape = len(C), len(R)
    return C, R, total.reshape(shape), pos.reshape(shape)


def sgns_cells(C, R, total, pos, table: EmbeddingTable):
    """The SGNS kernel: loss and gradients of one step's cells.

    Cell (c, r) holds `total[c, r]` occurrences of input row C[c] with
    output row R[r], `pos[c, r]` of them contexts and the rest negatives;
    the loss is -sum log sig(+-u_r . v_c) over occurrences.  The summed
    errors are E = total * sig(V U^T) - pos for V = input[C] and
    U = output[R].  Returns (E U, E^T V, loss): the gradients of rows C
    and R.
    """
    V, U = table.input_vecs[C], table.output_vecs[R]
    scores = np.clip(V @ U.T, -SIGMOID_CLAMP, SIGMOID_CLAMP)
    sig = 1.0 / (1.0 + np.exp(-scores))
    errors = total * sig - pos
    # -log sig(-s) = s - log sig(s)
    loss = float(((total - pos) * scores - total * np.log(sig)).sum())
    return errors @ U, errors.T @ V, loss


def sgns_step(C, R, total, pos, table: EmbeddingTable, lr: float) -> float:
    """One SGD step on sgns_cells' loss; returns the loss before it.  In
    training the step is up to SIDE_BATCH centers of one pair side.
    Hogwild-style, every update reads the table as it was before the
    step, and repeated centers and rows sum their gradients."""
    grad_in, grad_out, loss = sgns_cells(C, R, total, pos, table)
    table.input_vecs[C] -= lr * grad_in
    table.output_vecs[R] -= lr * grad_out
    return loss


def _pair_cells(center: int, context: int, negatives):
    rows = np.array([context, *negatives], dtype=np.intp)
    labels = np.zeros(len(rows))
    labels[0] = 1.0
    return occurrence_cells(np.full(len(rows), center, np.intp), rows, labels)


def sgns_pair_loss(center: int, context: int, negatives,
                   table: EmbeddingTable) -> float:
    """-log sig(u_ctx . v) - sum_neg log sig(-u_neg . v): sgns_cells for
    one center and a single context."""
    return sgns_cells(*_pair_cells(center, context, negatives), table)[2]


def sgns_pair_grads(center: int, context: int, negatives,
                    table: EmbeddingTable) -> dict:
    """Analytic gradients of sgns_pair_loss per touched (matrix, id) slot.

    Keys are ("in", id) or ("out", id); duplicate negatives accumulate,
    matching the loss summation.  A one-center view of sgns_cells, the
    kernel the trainer steps along.
    """
    cells = _pair_cells(center, context, negatives)
    grad_in, grad_out, _ = sgns_cells(*cells, table)
    grads = {("in", center): grad_in[0]}
    grads.update({("out", int(row)): grad
                  for row, grad in zip(cells[1], grad_out)})
    return grads


def _keep_probability(count: float, total: int, subsample: float) -> float:
    # word2vec formula: (sqrt(f/t) + 1) * t/f for frequency f = count/total
    frequency = count / total
    ratio = subsample / frequency
    return min(1.0, (frequency / subsample) ** 0.5 * ratio + ratio)


class _Layout(NamedTuple):
    """Window rows of consecutive pairs, in training order: per pair, side
    a's kept centers, then side b's.  A center has one row for its own
    side, then one per kept link of its, for the other side around the
    partner; the partner, when kept, is the surrogate center and not a
    context of its own window.  A reach r gives a row windows of
    min(r, caps) kept ids, ending at anchor 0 and starting at anchor 1."""
    ids: np.ndarray      # kept vocabulary ids, per pair side a's then b's
    offsets: list        # rows of each (pair, side) entry, 2 * pairs + 1
    centers: list        # kept centers of each entry
    center: np.ndarray   # per row, its center's index in its entry
    anchors: np.ndarray  # rows x 2, into ids
    caps: np.ndarray     # rows x 2, the room to the ends of the row's side
    vocab: np.ndarray    # per row, its center's vocabulary id

    def block(self, first: int, last: int) -> _Layout:
        """The rows of pairs first..last-1 (anchors still into ids)."""
        lo, hi = self.offsets[2 * first], self.offsets[2 * last]
        rows = slice(lo, hi)
        return _Layout(self.ids, [offset - lo for offset in
                                  self.offsets[2 * first:2 * last + 1]],
                       self.centers[2 * first:2 * last], self.center[rows],
                       self.anchors[rows], self.caps[rows], self.vocab[rows])

    @staticmethod
    def joined(layouts) -> _Layout:
        """Consecutive layouts as one."""
        bases = np.cumsum([0] + [len(layout.ids) for layout in layouts])
        offsets = [0]
        for layout in layouts:
            offsets += [offsets[-1] + offset for offset in layout.offsets[1:]]
        return _Layout(
            np.concatenate([layout.ids for layout in layouts]), offsets,
            [count for layout in layouts for count in layout.centers],
            np.concatenate([layout.center for layout in layouts]),
            np.concatenate([layout.anchors + base for layout, base in
                            zip(layouts, bases.tolist())]),
            np.concatenate([layout.caps for layout in layouts]),
            np.concatenate([layout.vocab for layout in layouts]))


def _layout(kept, links) -> _Layout:
    """The layout of consecutive pairs from, per side, their kept tokens'
    (positions, vocabulary ids, pair offsets) and their links' (own,
    other) positions, sorted by (own, other)."""
    (_, ids_a, offsets_a), (_, ids_b, offsets_b) = kept
    pairs = len(offsets_a) - 1
    found = []
    for (own_pos, _, own_offsets), (own, other) in zip(kept, links):
        pair = np.repeat(np.arange(pairs), np.diff(own_offsets))
        # the links whose own position is kept, and that center
        slot = np.searchsorted(own_pos, own)
        used = slot < len(own_pos)
        used[used] = own_pos[slot[used]] == own[used]
        linked = slot[used]
        found.append((pair, linked, other[used], pair[linked]))
    counts = np.column_stack((np.diff(offsets_a), np.diff(offsets_b)))
    offsets = np.zeros(counts.size + 1, np.intp)
    np.cumsum(counts + np.column_stack([
        np.bincount(link_pair, minlength=pairs)
        for _, _, _, link_pair in found]), out=offsets[1:])
    size = offsets[-1]
    # int32 halves what a layout kept across epochs holds
    center, vocab = np.empty(size, np.int32), np.empty(size, np.int32)
    anchors = np.empty((size, 2), np.int32)
    caps = np.empty((size, 2), np.int32)
    ids = np.empty(len(ids_a) + len(ids_b), np.int32)
    # side a's kept token k of pair p is ids[k + shifts[0][p]], side b's
    # ids[k + shifts[1][p]]
    shifts = offsets_b[:-1], offsets_a[1:]
    for side, ((_, own_ids, own_offsets), (other_pos, _, other_offsets), (
            pair, linked, other, link_pair)) in enumerate(
                zip(kept, kept[::-1], found)):
        centers = np.arange(len(own_ids))
        ids[centers + shifts[side][pair]] = own_ids
        index = centers - own_offsets[pair]
        # an entry holds each center's own row and then its links' rows,
        # so a row follows the entry's earlier centers and their links
        start = offsets[side:-1:2] - np.searchsorted(linked, own_offsets[:-1])
        own_at = start[pair] + index + np.searchsorted(linked, centers)
        link_at = start[link_pair] + index[linked] + 1 + np.arange(
            len(linked))
        before = np.searchsorted(other_pos, other)
        after = np.searchsorted(other_pos, other, "right")
        center[own_at], center[link_at] = index, index[linked]
        vocab[own_at], vocab[link_at] = own_ids, own_ids[linked]
        anchors[own_at] = (np.column_stack((centers, centers + 1))
                           + shifts[side][pair, None])
        anchors[link_at] = (np.column_stack((before, after))
                            + shifts[1 - side][link_pair, None])
        caps[own_at] = np.column_stack(
            (index, own_offsets[pair + 1] - 1 - centers))
        caps[link_at] = np.column_stack(
            (before - other_offsets[link_pair],
             other_offsets[link_pair + 1] - after))
    return _Layout(ids, offsets.tolist(), counts.ravel().tolist(), center,
                   anchors, caps, vocab)


class _Trainer:
    """Plans a block of consecutive pairs, then steps along it.

    The plan makes every random draw of the block's pairs in order and
    counts each step's occurrences into cells; contexts and negatives
    never read the table, so planning before stepping changes nothing
    but the time.  The step loop runs sgns_step once per step."""

    def __init__(self, bitext: Bitext, links, vocab: Vocabulary,
                 cfg: TrainConfig, table: EmbeddingTable):
        self.vocab, self.cfg, self.table = vocab, cfg, table
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
            self.sides, [(own, other) for own, other, _ in self.links])

    def _subsampled(self, pair: int, rng) -> _Layout:
        """The layout of one pair after subsampling, with one draw per
        in-vocabulary occurrence, side a then side b."""
        kept = []
        for positions, ids, offsets in self.sides:
            span = slice(offsets[pair], offsets[pair + 1])
            positions, ids = positions[span], ids[span]
            keep = rng.random(len(ids)) <= self.keep_probability[ids]
            kept.append((positions[keep], ids[keep],
                         np.array([0, np.count_nonzero(keep)])))
        return _layout(kept, [
            (own[offsets[pair]:offsets[pair + 1]],
             other[offsets[pair]:offsets[pair + 1]])
            for own, other, offsets in self.links])

    def _draw(self, layout: _Layout, pair: int, rng, lengths,
              uniforms) -> int:
        """Per side of the layout's `pair`, draw its reaches and, if it has
        contexts, K uniforms per context; appends the side's window
        lengths (rows x 2) and uniforms, and returns its contexts."""
        contexts = 0
        for entry in (2 * pair, 2 * pair + 1):
            rows = slice(layout.offsets[entry], layout.offsets[entry + 1])
            reaches = rng.integers(1, self.cfg.window + 1,
                                   size=layout.centers[entry])
            side = np.minimum(reaches[layout.center[rows], None],
                              layout.caps[rows])
            lengths.append(side)
            count = int(side.sum())
            if count:
                uniforms.append(rng.random((count, self.cfg.negatives)))
            contexts += count
        return contexts

    def _plan(self, layout: _Layout, lengths, uniforms):
        """Cells of a block's steps, one per SIDE_BATCH consecutive centers
        of a pair side that have contexts, and each step's pair index in
        the block."""
        lengths = np.concatenate(lengths)
        entry = np.repeat(np.arange(len(layout.offsets) - 1),
                          np.diff(layout.offsets))
        # one ragged gather: per row its left window, then its right one
        starts = layout.anchors - lengths * (1, 0)
        segment = lengths.ravel()
        ends = np.cumsum(segment)
        contexts = layout.ids[np.repeat(starts.ravel() - ends + segment,
                                        segment) + np.arange(ends[-1])]
        width = lengths.sum(1)
        live = np.flatnonzero(width)
        entry = entry[live]
        key = entry << 32 | layout.center[live] // SIDE_BATCH
        new = np.ones(len(live), bool)
        new[1:] = key[1:] != key[:-1]
        step = np.cumsum(new) - 1
        center_of = np.repeat(np.arange(len(live)), width[live])
        # per context its row, then its negatives'.  A negative equal to
        # its own context counts 0: it is dropped, and its row is in the
        # step's rows anyway
        rows = np.column_stack((contexts, np.searchsorted(
            self.vocab.noise_cdf, np.concatenate(uniforms), side="right")))
        counts = rows != rows[:, :1]
        counts[:, 0] = True
        labels = np.zeros(rows.shape)
        labels[:, 0] = 1.0
        cells = _cells(int(step[-1]) + 1,
                       step << 32 | layout.vocab[live], center_of,
                       step[center_of, None] << 32 | rows, labels, counts)
        return cells, entry[new] >> 1

    def train_epoch(self, rng: np.random.Generator, lrs: list[float]):
        """One pass over the pairs at their learning rates; returns the
        loss summed per pair, then over pairs, and the context count.
        Blocks end at the first pair that brings them to PLAN_CONTEXTS
        contexts."""
        loss, n_contexts, pair = 0.0, 0, 0
        while pair < self.pairs:
            first, lengths, uniforms, subsampled, planned = pair, [], [], [], 0
            while pair < self.pairs and planned < PLAN_CONTEXTS:
                if self.layout is None:
                    subsampled.append(self._subsampled(pair, rng))
                    planned += self._draw(subsampled[-1], 0, rng, lengths,
                                          uniforms)
                else:
                    planned += self._draw(self.layout, pair, rng, lengths,
                                          uniforms)
                pair += 1
            if planned:
                layout = (_Layout.joined(subsampled) if self.layout is None
                          else self.layout.block(first, pair))
                for pair_loss in self._steps(
                        *self._plan(layout, lengths, uniforms), lrs, first):
                    loss += pair_loss
            n_contexts += planned
        return loss, n_contexts

    def _steps(self, cells, step_pairs, lrs, first):
        """sgns_step along a plan's steps; returns each pair's summed loss."""
        C, c_offsets, R, r_offsets, total, pos, offsets = cells
        c_offsets, r_offsets = c_offsets.tolist(), r_offsets.tolist()
        offsets = offsets.tolist()
        losses, last = [], None
        for s, pair in enumerate((step_pairs + first).tolist()):
            c_span = slice(c_offsets[s], c_offsets[s + 1])
            r_span = slice(r_offsets[s], r_offsets[s + 1])
            span = slice(offsets[s], offsets[s + 1])
            shape = c_span.stop - c_span.start, r_span.stop - r_span.start
            if pair != last:
                losses.append(0.0)
                last = pair
            losses[-1] += sgns_step(
                C[c_span], R[r_span], total[span].reshape(shape),
                pos[span].reshape(shape), self.table, lrs[pair])
        return losses


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
    in-vocabulary token occurrences, frozen within each pair.  Each
    epoch appends to `losses`, if given, its mean loss per context (the
    context's term and its negatives', read before each step).  A fixed
    seed gives bit-identical tables.  Links must fit the chunks
    (`Bitext.links`).
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
    trainer = _Trainer(bitext, links, vocab, cfg, table)
    sizes = sum(np.diff(offsets) for _, _, offsets in trainer.sides)
    total = int(sizes.sum())
    if total == 0:
        return table
    schedule_span = cfg.epochs * total
    starts = (np.cumsum(sizes) - sizes).tolist()
    for epoch in range(cfg.epochs):
        lrs = [max(cfg.lr0 * (1.0 - (epoch * total + start) / schedule_span),
                   cfg.lr0 * LR_FLOOR_FACTOR) for start in starts]
        loss, n_contexts = trainer.train_epoch(rng, lrs)
        if losses is not None:
            losses.append(loss / max(n_contexts, 1))
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
