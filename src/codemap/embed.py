"""Bilingual skip-gram (BiSkip) with negative sampling.

One shared embedding table holds both languages, tokens tagged `a:`/`b:`;
ids, counts, windows and link partners come from the bitext's integer
index (`align.Bitext`).  Each center predicts its same-language window
and, through its links, the window around each linked position on the
other side.  One SGD step per center covers all those contexts and their
negatives (`sgns_center_step`); its gradient `sgns_grads` backs the
`sgns_pair_loss`/`sgns_pair_grads` checked against finite differences.
Training with a fixed seed is bit-reproducible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import artifacts
from .align import Bitext

LR_FLOOR_FACTOR = 1e-4
SIGMOID_CLAMP = 30.0
NOISE_POWER = 0.75


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
        self.counts = np.asarray(counts or [1] * len(tokens), np.float64)
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


def sgns_loss(center: int, ids, labels, table: EmbeddingTable) -> float:
    """-sum_i log sig(+-u_i . v) over output rows `ids` of one center.

    A label-1 id is a context (sign +), a label-0 id a negative (sign -);
    a repeated id contributes one term per occurrence.
    """
    scores = table.output_vecs[ids] @ table.input_vecs[center]
    return -float(np.log(sigmoid((2.0 * labels - 1.0) * scores)).sum())


def sgns_grads(center: int, ids, labels, table: EmbeddingTable):
    """Analytic gradient of sgns_loss.

    Returns (gradient of input row `center`, the distinct output rows
    touched, their gradients).  Every output row's gradient is the input
    vector scaled by the summed errors of its occurrences in `ids`.
    """
    v = table.input_vecs[center]
    outputs = table.output_vecs[ids]
    errors = sigmoid(outputs @ v) - labels
    rows, slot = np.unique(ids, return_inverse=True)
    return (errors @ outputs, rows,
            np.outer(np.bincount(slot, weights=errors), v))


def sgns_center_step(center: int, ids, labels, table: EmbeddingTable,
                     lr: float) -> None:
    """One SGD step on sgns_loss, over all contexts and negatives of a
    center at once; both matrices move from the pre-step table."""
    grad_in, rows, grad_out = sgns_grads(center, ids, labels, table)
    table.input_vecs[center] -= lr * grad_in
    table.output_vecs[rows] -= lr * grad_out


def _pair_batch(context: int, negatives):
    ids = np.array([context, *negatives], dtype=np.intp)
    labels = np.zeros(len(ids))
    labels[0] = 1.0
    return ids, labels


def sgns_pair_loss(center: int, context: int, negatives,
                   table: EmbeddingTable) -> float:
    """-log sig(u_ctx . v) - sum_neg log sig(-u_neg . v): sgns_loss for a
    single context."""
    return sgns_loss(center, *_pair_batch(context, negatives), table)


def sgns_pair_grads(center: int, context: int, negatives,
                    table: EmbeddingTable) -> dict:
    """Analytic gradients of sgns_pair_loss per touched (matrix, id) slot.

    Keys are ("in", id) or ("out", id); duplicate negatives accumulate,
    matching the loss summation.  A view of sgns_grads, the gradient the
    trainer steps along.
    """
    grad_in, rows, grad_out = sgns_grads(
        center, *_pair_batch(context, negatives), table)
    grads = {("in", center): grad_in}
    grads.update({("out", int(row)): grad
                  for row, grad in zip(rows, grad_out)})
    return grads


def _keep_probability(count: float, total: int, subsample: float) -> float:
    # word2vec formula: (sqrt(f/t) + 1) * t/f for frequency f = count/total
    frequency = count / total
    ratio = subsample / frequency
    return min(1.0, (frequency / subsample) ** 0.5 * ratio + ratio)


class _Trainer:
    def __init__(self, bitext: Bitext, links, vocab: Vocabulary,
                 cfg: TrainConfig, table: EmbeddingTable):
        self.vocab, self.cfg, self.table, self.lr = vocab, cfg, table, cfg.lr0
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

    def step(self, center: int, contexts: list[int],
             rng: np.random.Generator) -> None:
        """Sample K negatives per context and take one center step.

        A negative equal to its own context is dropped; duplicates are
        kept and accumulate, as in sgns_pair_loss.
        """
        if not contexts:
            return
        positives = np.array(contexts)
        draws = rng.random((len(contexts), self.cfg.negatives))
        negatives = np.searchsorted(self.vocab.noise_cdf, draws, side="right")
        negatives = negatives[negatives != positives[:, None]]
        ids = np.concatenate((positives, negatives))
        labels = np.zeros(len(ids))
        labels[:len(contexts)] = 1.0
        sgns_center_step(center, ids, labels, self.table, self.lr)

    def train_pair(self, pair: int, rng: np.random.Generator) -> None:
        """All four directions of one pair.  Subsampling draws once per
        in-vocabulary occurrence, side a then side b (none at 0)."""
        kept = []
        for positions, ids, offsets in self.sides:
            span = slice(offsets[pair], offsets[pair + 1])
            positions, ids = positions[span], ids[span]
            if self.keep_probability is not None:
                keep = rng.random(len(ids)) <= self.keep_probability[ids]
                positions, ids = positions[keep], ids[keep]
            kept.append((positions, ids.tolist()))
        for (own_pos, own_ids), (other_pos, other_ids), (
                own, other, offsets) in zip(kept, kept[::-1], self.links):
            span = slice(offsets[pair], offsets[pair + 1])
            own, other = own[span], other[span]
            first = np.searchsorted(own, own_pos).tolist()
            last = np.searchsorted(own, own_pos, "right").tolist()
            # a link partner's place among the other side's kept positions;
            # the partner, when kept, is the surrogate center and not a
            # context of its own window
            before = np.searchsorted(other_pos, other).tolist()
            after = np.searchsorted(other_pos, other, "right").tolist()
            for idx, center in enumerate(own_ids):
                reach = int(rng.integers(1, self.cfg.window + 1))
                contexts = (own_ids[max(0, idx - reach):idx]
                            + own_ids[idx + 1:idx + reach + 1])
                for k in range(first[idx], last[idx]):
                    contexts += other_ids[max(0, before[k] - reach):before[k]]
                    contexts += other_ids[after[k]:after[k] + reach]
                self.step(center, contexts, rng)


def train_biskip(bitext, links, cfg: TrainConfig,
                 vocab: Vocabulary | None = None) -> EmbeddingTable:
    """Train shared bilingual embeddings over an aligned bitext.

    `vocab` defaults to one built from the bitext itself with
    cfg.min_count.  Each kept center token takes one SGD step
    (sgns_center_step) over all its contexts at once: its same-language
    window and the window around every position it is linked to, each
    context with cfg.negatives noise samples.  The learning rate decays
    linearly from lr0 to lr0 * 1e-4 over all in-vocabulary token
    occurrences, frozen within each pair.  A fixed seed gives
    bit-identical tables.  Links must fit the chunks (`Bitext.links`).
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
    processed = 0
    for _ in range(cfg.epochs):
        for pair, size in enumerate(sizes.tolist()):
            trainer.lr = max(cfg.lr0 * (1.0 - processed / schedule_span),
                             cfg.lr0 * LR_FLOOR_FACTOR)
            trainer.train_pair(pair, rng)
            processed += size
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
