"""Bilingual skip-gram (BiSkip) with negative sampling.

One shared embedding table holds both languages, tokens tagged `a:`/`b:`.
Each center token predicts its same-language window, and, through its
alignment links, the window around the linked position on the other side,
giving four prediction directions over a single table.  Training takes one
SGD step per center over all of those contexts and their negatives
(`sgns_center_step`); the same gradient, `sgns_grads`, backs the
single-context `sgns_pair_loss`/`sgns_pair_grads` checked against finite
differences.  Training with a fixed seed is bit-reproducible.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

Pair = tuple[list[str], list[str], str]

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


@dataclass(frozen=True)
class VocabEntry:
    id: int
    count: int


class Vocabulary:
    """Language-tagged token vocabulary with a count^0.75 noise law."""

    def __init__(self, counts: dict[str, int], min_count: int = 1):
        surviving = {t: c for t, c in counts.items() if c >= min_count}
        if not surviving:
            raise ValueError("no tokens survive min_count")
        order = sorted(surviving, key=lambda t: (-surviving[t], t))
        self._init_from(order, [surviving[t] for t in order])

    @classmethod
    def from_ordered(cls, tokens: list[str],
                     counts: list[int] | None = None) -> "Vocabulary":
        """Build preserving token order (used when loading saved tables).

        Unlike the counting constructor this permits an empty vocabulary,
        so that saved empty tables load back.
        """
        if len(set(tokens)) != len(tokens):
            raise ValueError("duplicate tokens")
        vocab = cls.__new__(cls)
        vocab._init_from(list(tokens), counts or [1] * len(tokens))
        return vocab

    def _init_from(self, tokens: list[str], counts: list[int]) -> None:
        self.tokens = tokens
        self.entries = {t: VocabEntry(i, c)
                        for i, (t, c) in enumerate(zip(tokens, counts))}
        self.counts = np.asarray(counts, dtype=np.float64)
        self.total_count = int(self.counts.sum())
        weights = self.counts ** NOISE_POWER
        total_weight = weights.sum()
        self.noise_dist = weights / total_weight if len(tokens) else weights
        self.noise_cdf = np.cumsum(self.noise_dist)
        if len(tokens):
            self.noise_cdf[-1] = 1.0

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.entries

    def id_of(self, token: str) -> int | None:
        entry = self.entries.get(token)
        return entry.id if entry is not None else None


def build_vocab(streams, min_count: int = 1,
                lang_a: str | None = None) -> Vocabulary:
    """Count tokens over streams, tagging by language side.

    Streams whose language equals `lang_a` (default: the first stream's
    language) are tagged `a:`, all others `b:`.
    """
    if not streams:
        raise ValueError("no streams")
    if lang_a is None:
        lang_a = streams[0].language
    counts: dict[str, int] = {}
    for stream in streams:
        tag = "a:" if stream.language == lang_a else "b:"
        for token in stream.tokens:
            key = tag + token.text
            counts[key] = counts.get(key, 0) + 1
    return Vocabulary(counts, min_count)


def vocab_from_bitext(bitext: list[Pair], min_count: int = 1) -> Vocabulary:
    counts: dict[str, int] = {}
    for tokens_a, tokens_b, _ in bitext:
        for token in tokens_a:
            key = "a:" + token
            counts[key] = counts.get(key, 0) + 1
        for token in tokens_b:
            key = "b:" + token
            counts[key] = counts.get(key, 0) + 1
    return Vocabulary(counts, min_count)


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


def _subsample_side(tokens: list[str], tag: str, vocab: Vocabulary,
                    cfg: TrainConfig, rng: np.random.Generator):
    """Kept (original_position, vocab_id) pairs, in order.

    One rng draw per in-vocabulary occurrence keeps the stream of random
    numbers aligned across runs; subsample=0 skips drawing entirely.
    """
    kept_pos: list[int] = []
    kept_ids: list[int] = []
    scanned = 0
    for position, token in enumerate(tokens):
        vocab_id = vocab.id_of(tag + token)
        if vocab_id is None:
            continue
        scanned += 1
        if cfg.subsample > 0:
            p_keep = _keep_probability(vocab.counts[vocab_id],
                                       vocab.total_count, cfg.subsample)
            if rng.random() > p_keep:
                continue
        kept_pos.append(position)
        kept_ids.append(vocab_id)
    return kept_pos, kept_ids, scanned


def _link_map(links, transpose: bool) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for i, j in sorted(links):
        src, dst = (j, i) if transpose else (i, j)
        out.setdefault(src, []).append(dst)
    return out


class _Trainer:
    def __init__(self, vocab: Vocabulary, cfg: TrainConfig,
                 table: EmbeddingTable):
        self.vocab = vocab
        self.cfg = cfg
        self.table = table
        self.lr = cfg.lr0

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

    def train_pair(self, tokens_a, tokens_b, links,
                   rng: np.random.Generator):
        """All four directions for one pair; returns scanned token count."""
        cfg = self.cfg
        pos_a, ids_a, scanned_a = _subsample_side(tokens_a, "a:", self.vocab,
                                                  cfg, rng)
        pos_b, ids_b, scanned_b = _subsample_side(tokens_b, "b:", self.vocab,
                                                  cfg, rng)
        a_to_b = _link_map(links, transpose=False)
        b_to_a = _link_map(links, transpose=True)
        sides = ((pos_a, ids_a, pos_b, ids_b, a_to_b),
                 (pos_b, ids_b, pos_a, ids_a, b_to_a))
        for own_pos, own_ids, other_pos, other_ids, cross in sides:
            for idx, center in enumerate(own_ids):
                reach = int(rng.integers(1, cfg.window + 1))
                contexts = (own_ids[max(0, idx - reach):idx]
                            + own_ids[idx + 1:idx + reach + 1])
                for j in cross.get(own_pos[idx], ()):
                    q = bisect_left(other_pos, j)
                    # the link partner, when kept, is the surrogate center
                    # and not a context of its own window
                    skip = int(q < len(other_pos) and other_pos[q] == j)
                    contexts += other_ids[max(0, q - reach):q]
                    contexts += other_ids[q + skip:q + skip + reach]
                self.step(center, contexts, rng)
        return scanned_a + scanned_b


def train_biskip(bitext: list[Pair], links, cfg: TrainConfig,
                 vocab: Vocabulary | None = None) -> EmbeddingTable:
    """Train shared bilingual embeddings over an aligned bitext.

    `vocab` defaults to one built from the bitext itself with
    cfg.min_count.  Each kept center token takes one SGD step
    (sgns_center_step) over all its contexts at once: its same-language
    window and the window around every position it is linked to, each
    context with cfg.negatives noise samples.  The learning rate decays
    linearly from lr0 to lr0 * 1e-4 over all in-vocabulary token
    occurrences, frozen within each pair.  A fixed seed gives
    bit-identical tables.
    """
    if vocab is None:
        if not bitext:
            raise ValueError("empty bitext and no vocabulary")
        vocab = vocab_from_bitext(bitext, cfg.min_count)
    rng = np.random.default_rng(cfg.seed)
    table = init_table(len(vocab), cfg, rng)
    if not bitext or cfg.epochs == 0:
        return table
    if not any(link_set.links for link_set in links):
        warnings.warn("no alignment links; training monolingually",
                      stacklevel=2)
    links_by_pair = {link_set.pair_id: link_set.links for link_set in links}
    total = 0
    for tokens_a, tokens_b, _ in bitext:
        total += sum(1 for t in tokens_a if ("a:" + t) in vocab)
        total += sum(1 for t in tokens_b if ("b:" + t) in vocab)
    if total == 0:
        return table
    schedule_span = cfg.epochs * total
    trainer = _Trainer(vocab, cfg, table)
    processed = 0
    for _ in range(cfg.epochs):
        for tokens_a, tokens_b, pair_id in bitext:
            trainer.lr = max(cfg.lr0 * (1.0 - processed / schedule_span),
                             cfg.lr0 * LR_FLOOR_FACTOR)
            processed += trainer.train_pair(
                tokens_a, tokens_b, links_by_pair.get(pair_id, frozenset()),
                rng)
    if not (np.isfinite(table.input_vecs).all()
            and np.isfinite(table.output_vecs).all()):
        raise FloatingPointError("non-finite values after training")
    return table


# ---------------------------------------------------------------------------
# text format


def save_embeddings(table: EmbeddingTable, vocab: Vocabulary, path,
                    comments=()) -> None:
    """Header `<|V|> <d>`, then `token v1 ... vd` rows (input vectors)."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"{len(vocab)} {table.dim}")
    for row, token in enumerate(vocab.tokens):
        values = " ".join(f"{x:.9g}" for x in table.input_vecs[row])
        lines.append(f"{token} {values}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_embeddings(path) -> tuple[EmbeddingTable, Vocabulary]:
    """Inverse of save_embeddings; counts are lost, so the loaded
    vocabulary reports count 1 (uniform noise) for every token."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body = [(n, line) for n, line in enumerate(lines, start=1)
            if line and not line.startswith("#")]
    if not body:
        raise ValueError(f"{path}: missing header")
    header_no, header = body[0]
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"{path}:{header_no}: header must be `<|V|> <d>`")
    try:
        size, dim = int(parts[0]), int(parts[1])
    except ValueError as err:
        raise ValueError(f"{path}:{header_no}: bad header: {err}") from None
    rows = body[1:]
    if len(rows) != size:
        raise ValueError(f"{path}: header promises {size} rows, "
                         f"found {len(rows)}")
    tokens: list[str] = []
    vectors = np.zeros((size, dim), dtype=np.float64)
    for k, (lineno, line) in enumerate(rows):
        fields = line.split()
        if len(fields) != dim + 1:
            raise ValueError(f"{path}:{lineno}: expected token + {dim} "
                             f"values, got {len(fields)} fields")
        tokens.append(fields[0])
        try:
            vectors[k] = [float(x) for x in fields[1:]]
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: bad value: {err}") from None
    vocab = Vocabulary.from_ordered(tokens)
    table = EmbeddingTable(vectors, np.zeros_like(vectors))
    return table, vocab
