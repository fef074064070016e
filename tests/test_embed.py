"""Vocabulary, SGNS objective and BiSkip trainer tests."""

import math
import warnings
from bisect import bisect_left

import numpy as np
import pytest

from codemap.align import AlignmentLinkSet
from codemap.embed import (LR_FLOOR_FACTOR, EmbeddingTable, TrainConfig,
                           Vocabulary, _keep_probability, init_table,
                           load_embeddings, save_embeddings,
                           sgns_center_step, sgns_pair_grads, sgns_pair_loss,
                           sigmoid, train_biskip, vocab_from_bitext)
from conftest import make_toy_bitext


# ---------------------------------------------------------------------------
# vocabulary


def test_build_vocab_counts_and_tags():
    vocab = vocab_from_bitext([(["x", "x", "y"], [], "p")], min_count=1)
    assert vocab.counts[vocab.id_of("a:x")] == 2
    assert vocab.counts[vocab.id_of("a:y")] == 1
    assert len(vocab) == 2


def test_build_vocab_min_count_drops():
    vocab = vocab_from_bitext([(["x", "x", "y"], ["z"], "p")], min_count=2)
    assert list(vocab.tokens) == ["a:x"]


def test_build_vocab_second_language_tagged_b():
    vocab = vocab_from_bitext([(["x"], ["y"], "p")])
    assert "a:x" in vocab
    assert "b:y" in vocab


def test_noise_distribution_three_quarters_power():
    vocab = vocab_from_bitext([(["x", "x", "y"], [], "p")])
    expected_x = 2 ** 0.75 / (2 ** 0.75 + 1 ** 0.75)
    assert vocab.noise_dist[vocab.id_of("a:x")] == pytest.approx(expected_x)
    assert abs(vocab.noise_dist.sum() - 1.0) <= 1e-9


def test_empty_vocab_rejected():
    with pytest.raises(ValueError):
        vocab_from_bitext([(["x"], [], "p")], min_count=5)
    with pytest.raises(ValueError):
        vocab_from_bitext([])


def test_ids_dense_and_ordered_by_count():
    vocab = vocab_from_bitext([(["q", "q", "q"], ["z"], "p")])
    assert [vocab.id_of(t) for t in vocab.tokens] == list(range(len(vocab)))
    assert vocab.tokens[0] == "a:q"


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(dim=0)
    with pytest.raises(ValueError):
        TrainConfig(window=0)
    with pytest.raises(ValueError):
        TrainConfig(negatives=0)
    with pytest.raises(ValueError):
        TrainConfig(lr0=0.0)
    with pytest.raises(ValueError):
        TrainConfig(subsample=-1e-5)


# ---------------------------------------------------------------------------
# objective


def _tiny_table(rng, size=6, dim=4):
    return EmbeddingTable(rng.normal(size=(size, dim)),
                          rng.normal(size=(size, dim)))


def test_loss_at_zero_vectors():
    table = EmbeddingTable(np.zeros((3, 4)), np.zeros((3, 4)))
    assert sgns_pair_loss(0, 1, [2], table) == pytest.approx(2 * math.log(2))


def test_loss_saturates():
    table = EmbeddingTable(np.zeros((2, 2)), np.zeros((2, 2)))
    table.input_vecs[0] = [100.0, 0.0]
    table.output_vecs[1] = [100.0, 0.0]
    loss = sgns_pair_loss(0, 1, [], table)
    assert 0.0 <= loss < 1e-9


def test_loss_matches_scalar_recomputation():
    rng = np.random.default_rng(2)
    table = _tiny_table(rng)
    center, context, negatives = 0, 3, [1, 4, 4]

    def scalar_sigmoid(z):
        z = max(-30.0, min(30.0, z))
        return 1.0 / (1.0 + math.exp(-z))

    dot = sum(table.output_vecs[context][k] * table.input_vecs[center][k]
              for k in range(4))
    expected = -math.log(scalar_sigmoid(dot))
    for neg in negatives:
        dot_neg = sum(table.output_vecs[neg][k] * table.input_vecs[center][k]
                      for k in range(4))
        expected -= math.log(scalar_sigmoid(-dot_neg))
    assert sgns_pair_loss(center, context, negatives, table) == \
        pytest.approx(expected, rel=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    eps = 1e-5
    for _ in range(20):
        table = _tiny_table(rng)
        center = int(rng.integers(0, 6))
        context = int(rng.integers(0, 6))
        negatives = [int(k) for k in rng.integers(0, 6, size=3)]
        grads = sgns_pair_grads(center, context, negatives, table)
        for (which, idx), grad in grads.items():
            matrix = (table.input_vecs if which == "in"
                      else table.output_vecs)
            for k in range(matrix.shape[1]):
                original = matrix[idx, k]
                matrix[idx, k] = original + eps
                up = sgns_pair_loss(center, context, negatives, table)
                matrix[idx, k] = original - eps
                down = sgns_pair_loss(center, context, negatives, table)
                matrix[idx, k] = original
                numeric = (up - down) / (2 * eps)
                scale = max(abs(numeric), abs(grad[k]), 1e-8)
                assert abs(numeric - grad[k]) / scale < 1e-4


def test_center_step_is_minus_lr_times_summed_pair_grads():
    rng = np.random.default_rng(8)
    table = _tiny_table(rng)
    center, lr = 0, 0.05
    # context 3 is listed twice, and negative 2 equals the other context
    batches = [(3, [2, 5]), (3, [1, 1]), (2, [4, 3])]
    contexts = [context for context, _ in batches]
    negatives = [neg for _, negs in batches for neg in negs]
    ids = np.array(contexts + negatives)
    labels = np.array([1.0] * len(contexts) + [0.0] * len(negatives))

    expected = EmbeddingTable(table.input_vecs.copy(),
                              table.output_vecs.copy())
    for context, negs in batches:
        for (which, idx), grad in sgns_pair_grads(center, context, negs,
                                                  table).items():
            matrix = (expected.input_vecs if which == "in"
                      else expected.output_vecs)
            matrix[idx] -= lr * grad
    sgns_center_step(center, ids, labels, table, lr)
    assert np.allclose(table.input_vecs, expected.input_vecs,
                       rtol=1e-12, atol=1e-14)
    assert np.allclose(table.output_vecs, expected.output_vecs,
                       rtol=1e-12, atol=1e-14)


def test_sigmoid_clamped():
    assert sigmoid(1000.0) <= 1.0
    assert sigmoid(-1000.0) > 0.0
    assert sigmoid(0.0) == 0.5


# ---------------------------------------------------------------------------
# training

LINKED = [
    (["final", "int", "limit"], ["readonly", "int", "limit"], "p0"),
    (["final", "double", "rate"], ["readonly", "double", "rate"], "p1"),
    (["public", "final", "flag"], ["public", "readonly", "flag"], "p2"),
]
LINKS = [AlignmentLinkSet("p0", frozenset({(0, 0), (1, 1), (2, 2)})),
         AlignmentLinkSet("p1", frozenset({(0, 0), (1, 1), (2, 2)})),
         AlignmentLinkSet("p2", frozenset({(0, 0), (1, 1), (2, 2)}))]

CFG = TrainConfig(dim=16, window=2, negatives=3, epochs=30, subsample=0.0,
                  seed=9)


def test_training_deterministic():
    first = train_biskip(LINKED, LINKS, CFG)
    second = train_biskip(LINKED, LINKS, CFG)
    assert np.array_equal(first.input_vecs, second.input_vecs)
    assert np.array_equal(first.output_vecs, second.output_vecs)


def test_training_seed_changes_result():
    first = train_biskip(LINKED, LINKS, CFG)
    other = train_biskip(LINKED, LINKS,
                         TrainConfig(**{**CFG.__dict__, "seed": 10}))
    assert not np.array_equal(first.input_vecs, other.input_vecs)


def test_training_finite():
    table = train_biskip(LINKED, LINKS, CFG)
    assert np.isfinite(table.input_vecs).all()
    assert np.isfinite(table.output_vecs).all()


def test_empty_bitext_returns_initialization():
    vocab = vocab_from_bitext(LINKED)
    rng = np.random.default_rng(CFG.seed)
    expected = init_table(len(vocab), CFG, rng)
    got = train_biskip([], [], CFG, vocab=vocab)
    assert np.array_equal(got.input_vecs, expected.input_vecs)
    assert np.array_equal(got.output_vecs, expected.output_vecs)


def test_zero_epochs_returns_initialization():
    cfg = TrainConfig(**{**CFG.__dict__, "epochs": 0})
    vocab = vocab_from_bitext(LINKED)
    got = train_biskip(LINKED, LINKS, cfg, vocab=vocab)
    rng = np.random.default_rng(cfg.seed)
    expected = init_table(len(vocab), cfg, rng)
    assert np.array_equal(got.input_vecs, expected.input_vecs)


def test_no_links_warns_but_trains():
    with pytest.warns(UserWarning, match="monolingual"):
        table = train_biskip(LINKED, [], CFG)
    assert np.isfinite(table.input_vecs).all()


def test_linked_tokens_become_neighbors():
    table = train_biskip(LINKED, LINKS, CFG)
    vocab = vocab_from_bitext(LINKED)
    query = table.input_vecs[vocab.id_of("a:final")]
    b_tokens = [t for t in vocab.tokens if t.startswith("b:")]

    def cos(u, v):
        return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

    ranked = sorted(b_tokens, key=lambda t: -cos(
        query, table.input_vecs[vocab.id_of(t)]))
    assert ranked[0] == "b:readonly"


def test_center_without_contexts_leaves_table_unchanged():
    bitext = [(["solo"], ["alone"], "p0")]
    vocab = vocab_from_bitext(bitext)
    with pytest.warns(UserWarning, match="monolingual"):
        got = train_biskip(bitext, [AlignmentLinkSet("p0", frozenset())],
                           CFG, vocab=vocab)
    expected = init_table(len(vocab), CFG, np.random.default_rng(CFG.seed))
    assert np.array_equal(got.input_vecs, expected.input_vecs)
    assert np.array_equal(got.output_vecs, expected.output_vecs)

    sgns_center_step(0, np.array([], dtype=np.intp), np.zeros(0), got, 0.1)
    assert np.array_equal(got.input_vecs, expected.input_vecs)
    assert np.array_equal(got.output_vecs, expected.output_vecs)
    assert np.isfinite(got.input_vecs).all()


def test_subsampling_keeps_valid_probabilities():
    cfg = TrainConfig(dim=8, window=2, negatives=2, epochs=2,
                      subsample=1e-2, seed=1)
    bitext = [(["x"] * 50 + ["y"], ["z"] * 50 + ["w"], "p0")]
    links = [AlignmentLinkSet("p0", frozenset({(0, 0)}))]
    table = train_biskip(bitext, links, cfg)
    assert np.isfinite(table.input_vecs).all()


def test_links_that_do_not_fit_the_bitext_are_refused():
    outside = [AlignmentLinkSet("p0", frozenset({(0, 0), (3, 1)}))]
    with pytest.raises(ValueError, match="p0: link 3-1 outside its 3x3"):
        train_biskip(LINKED, outside, CFG)
    unknown = LINKS + [AlignmentLinkSet("p0#1", frozenset({(0, 0)}))]
    with pytest.raises(ValueError, match="p0#1: no such chunk"):
        train_biskip(LINKED, unknown, CFG)


def _oracle_link_map(links, transpose):
    out = {}
    for i, j in sorted(links):
        src, dst = (j, i) if transpose else (i, j)
        out.setdefault(src, []).append(dst)
    return out


def _oracle_side(tokens, tag, vocab, links, transpose):
    ids = [vocab.id_of(tag + token) for token in tokens]
    positions = [k for k, vocab_id in enumerate(ids) if vocab_id is not None]
    return (np.array(positions, dtype=np.intp),
            np.array([ids[k] for k in positions], dtype=np.intp),
            _oracle_link_map(links, transpose))


def _oracle_train(bitext, links, cfg, vocab):
    """The per-pair trainer over string lookups, link dicts and bisect
    that the index trainer replaced; it must be equalled bit for bit."""
    rng = np.random.default_rng(cfg.seed)
    table = init_table(len(vocab), cfg, rng)
    keep_probability = None
    if cfg.subsample > 0:
        keep_probability = np.array([
            _keep_probability(count, vocab.total_count, cfg.subsample)
            for count in vocab.counts])
    links_by_pair = {link_set.pair_id: link_set.links for link_set in links}
    pairs = []
    for tokens_a, tokens_b, pair_id in bitext:
        pair_links = links_by_pair.get(pair_id, frozenset())
        pairs.append((_oracle_side(tokens_a, "a:", vocab, pair_links, False),
                      _oracle_side(tokens_b, "b:", vocab, pair_links, True)))
    sizes = [len(side_a[1]) + len(side_b[1]) for side_a, side_b in pairs]
    schedule_span = cfg.epochs * sum(sizes)

    def subsample(side):
        positions, ids, cross = side
        if keep_probability is not None:
            kept = rng.random(len(ids)) <= keep_probability[ids]
            positions, ids = positions[kept], ids[kept]
        return positions.tolist(), ids.tolist(), cross

    def step(center, contexts, lr):
        if not contexts:
            return
        positives = np.array(contexts)
        draws = rng.random((len(contexts), cfg.negatives))
        negatives = np.searchsorted(vocab.noise_cdf, draws, side="right")
        negatives = negatives[negatives != positives[:, None]]
        ids = np.concatenate((positives, negatives))
        labels = np.zeros(len(ids))
        labels[:len(contexts)] = 1.0
        sgns_center_step(center, ids, labels, table, lr)

    processed = 0
    for _ in range(cfg.epochs):
        for pair, size in zip(pairs, sizes):
            lr = max(cfg.lr0 * (1.0 - processed / schedule_span),
                     cfg.lr0 * LR_FLOOR_FACTOR)
            side_a, side_b = (subsample(side) for side in pair)
            for (own_pos, own_ids, cross), (other_pos, other_ids, _) in (
                    (side_a, side_b), (side_b, side_a)):
                for idx, center in enumerate(own_ids):
                    reach = int(rng.integers(1, cfg.window + 1))
                    contexts = (own_ids[max(0, idx - reach):idx]
                                + own_ids[idx + 1:idx + reach + 1])
                    for j in cross.get(own_pos[idx], ()):
                        q = bisect_left(other_pos, j)
                        skip = int(q < len(other_pos) and other_pos[q] == j)
                        contexts += other_ids[max(0, q - reach):q]
                        contexts += other_ids[q + skip:q + skip + reach]
                    step(center, contexts, lr)
            processed += size
    return table


@pytest.mark.parametrize("subsample,min_count",
                         [(0.0, 1), (0.0, 2), (0.05, 1), (0.05, 2)])
def test_index_trainer_equals_the_string_oracle(subsample, min_count):
    rng = np.random.default_rng(int(subsample * 100) + min_count)
    cfg = TrainConfig(dim=4, window=2, negatives=2, epochs=2,
                      subsample=subsample, min_count=min_count, seed=5)
    for _ in range(15):
        bitext = make_toy_bitext(rng, max_vocab=8, max_pairs=12)
        links = []
        for tokens_a, tokens_b, pair_id in bitext:
            if rng.random() < 0.8:  # some pairs have no link set
                n = int(rng.integers(0, len(tokens_a) + len(tokens_b)))
                links.append(AlignmentLinkSet(pair_id, frozenset(
                    (int(rng.integers(len(tokens_a))),
                     int(rng.integers(len(tokens_b)))) for _ in range(n))))
        try:
            vocab = vocab_from_bitext(bitext, min_count)
        except ValueError:  # nothing survives min_count
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = train_biskip(bitext, links, cfg, vocab=vocab)
        expected = _oracle_train(bitext, links, cfg, vocab)
        assert np.array_equal(got.input_vecs, expected.input_vecs)
        assert np.array_equal(got.output_vecs, expected.output_vecs)


# ---------------------------------------------------------------------------
# save / load


def test_save_load_round_trip(tmp_path):
    table = train_biskip(LINKED, LINKS, CFG)
    vocab = vocab_from_bitext(LINKED)
    out = tmp_path / "embeddings.txt"
    save_embeddings(table, vocab, out, comments=["tool test"])
    loaded, loaded_vocab = load_embeddings(out)
    assert loaded_vocab.tokens == vocab.tokens
    assert loaded.dim == table.dim
    assert np.allclose(loaded.input_vecs, table.input_vecs, rtol=1e-8)


def test_round_trip_preserves_rankings(tmp_path):
    table = train_biskip(LINKED, LINKS, CFG)
    vocab = vocab_from_bitext(LINKED)

    def ranking(vecs, query_row):
        sims = vecs @ vecs[query_row]
        return list(np.argsort(-sims))

    out = tmp_path / "embeddings.txt"
    save_embeddings(table, vocab, out)
    loaded, _ = load_embeddings(out)
    for row in range(len(vocab)):
        assert ranking(loaded.input_vecs, row) == \
            ranking(table.input_vecs, row)


def test_save_small_table_line_count(tmp_path):
    vocab = Vocabulary(["a:x"])
    table = EmbeddingTable(np.ones((1, 2)), np.zeros((1, 2)))
    out = tmp_path / "one.txt"
    save_embeddings(table, vocab, out)
    assert out.read_text().splitlines() == ["1 2", "a:x 1 1"]


def test_save_empty_table(tmp_path):
    vocab = Vocabulary([])
    table = EmbeddingTable(np.zeros((0, 3)), np.zeros((0, 3)))
    out = tmp_path / "empty.txt"
    save_embeddings(table, vocab, out)
    assert out.read_text() == "0 3\n"
    loaded, loaded_vocab = load_embeddings(out)
    assert loaded.input_vecs.shape == (0, 3)
    assert len(loaded_vocab) == 0


def test_load_rejects_malformed(tmp_path):
    bad_header = tmp_path / "bad1.txt"
    bad_header.write_text("nonsense\n")
    with pytest.raises(ValueError, match=":1"):
        load_embeddings(bad_header)

    bad_row = tmp_path / "bad2.txt"
    bad_row.write_text("1 3\ntok 1.0 2.0\n")
    with pytest.raises(ValueError, match=":2"):
        load_embeddings(bad_row)

    missing_rows = tmp_path / "bad3.txt"
    missing_rows.write_text("2 2\ntok 1.0 2.0\n")
    with pytest.raises(ValueError, match="promises"):
        load_embeddings(missing_rows)
