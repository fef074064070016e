"""Vocabulary, SGNS objective and BiSkip trainer tests."""

import math
import warnings
from bisect import bisect_left

import numpy as np
import pytest

from codemap import embed
from codemap.align import AlignmentLinkSet
from codemap.embed import (LR_FLOOR_FACTOR, EmbeddingTable, TrainConfig,
                           Vocabulary, _keep_probability, init_table,
                           load_embeddings, occurrence_cells, save_embeddings,
                           sgns_pair_grads, sgns_pair_loss, sgns_step,
                           sigmoid, train_biskip, vocab_from_bitext)
from conftest import make_bijective_corpus, make_toy_bitext


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


def test_vocabulary_takes_counts_as_an_array():
    vocab = Vocabulary(["a:x", "a:y"], np.array([2, 3]))
    assert vocab.counts.tolist() == [2.0, 3.0]
    assert vocab.total_count == 5
    assert vocab.noise_dist[1] == pytest.approx(3 ** 0.75
                                                / (2 ** 0.75 + 3 ** 0.75))


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


def _side_step(batches, table, lr):
    """One sgns_step on the cells of (center, context, negatives)
    batches."""
    centers, rows, labels = [], [], []
    for center, context, negatives in batches:
        centers += [center] * (1 + len(negatives))
        rows += [context, *negatives]
        labels += [1.0] + [0.0] * len(negatives)
    return sgns_step(*occurrence_cells(
        np.array(centers, dtype=np.intp), np.array(rows, dtype=np.intp),
        np.array(labels)), table, lr)


def test_side_step_is_minus_lr_times_summed_pair_grads():
    rng = np.random.default_rng(8)
    table = _tiny_table(rng)
    lr = 0.05
    # centers 0 and 4 repeat and share output rows; context 3 is listed
    # twice for center 0, and negative 2 equals another context
    batches = [(0, 3, [2, 5]), (0, 3, [1, 1]), (4, 2, [4, 3]), (0, 2, [0]),
               (4, 3, [5, 5])]
    expected = EmbeddingTable(table.input_vecs.copy(),
                              table.output_vecs.copy())
    expected_loss = 0.0
    for center, context, negs in batches:
        expected_loss += sgns_pair_loss(center, context, negs, table)
        for (which, idx), grad in sgns_pair_grads(center, context, negs,
                                                  table).items():
            matrix = (expected.input_vecs if which == "in"
                      else expected.output_vecs)
            matrix[idx] -= lr * grad
    loss = _side_step(batches, table, lr)
    assert loss == pytest.approx(expected_loss, rel=1e-12)
    assert np.allclose(table.input_vecs, expected.input_vecs,
                       rtol=1e-12, atol=1e-14)
    assert np.allclose(table.output_vecs, expected.output_vecs,
                       rtol=1e-12, atol=1e-14)


def test_side_without_collisions_equals_sequential_center_steps():
    rng = np.random.default_rng(13)
    lr = 0.1
    for _ in range(20):
        table = _tiny_table(rng, size=12)
        # distinct centers; every output row belongs to one center only
        centers = rng.permutation(12)[:3].tolist()
        rows = rng.permutation(12)
        cuts = sorted(rng.choice(np.arange(1, 12), 2, replace=False))
        batches = []
        for center, own_rows in zip(centers, np.split(rows, cuts)):
            context, *negatives = own_rows.tolist()
            batches.append((center, context, negatives))
        sequential = EmbeddingTable(table.input_vecs.copy(),
                                    table.output_vecs.copy())
        for batch in batches:
            _side_step([batch], sequential, lr)
        _side_step(batches, table, lr)
        # equal up to the order the matrix products sum in
        assert np.allclose(table.input_vecs, sequential.input_vecs,
                           rtol=1e-12, atol=1e-15)
        assert np.allclose(table.output_vecs, sequential.output_vecs,
                           rtol=1e-12, atol=1e-15)


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


def test_epoch_losses_are_reported_and_fall():
    bitext, _, links = make_bijective_corpus(n_pairs=60)
    cfg = TrainConfig(dim=16, epochs=5, subsample=0.0, seed=3)
    losses = []
    train_biskip(bitext, links, cfg, losses=losses)
    assert len(losses) == cfg.epochs
    # zero output vectors score sig(0) = 1/2: log 2 per term, at most
    # 1 + K terms per context
    assert 0.0 < losses[0] <= (1 + cfg.negatives) * math.log(2)
    assert losses[-1] < 0.75 * losses[0]


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

    assert _side_step([], got, 0.1) == 0.0
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
    """The trainer over string lookups, link dicts and bisect, drawing in
    the trainer's order: per pair, subsampling of side a then side b, then
    per side its reaches and its negatives.  Each batch of SIDE_BATCH
    consecutive centers of a side is summed occurrence by occurrence from
    the table as it was before the batch.  Returns the table and every
    non-empty batch's (lr, occurrences)."""
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

    def step(occurrences, lr):
        grad_in = np.zeros_like(table.input_vecs)
        grad_out = np.zeros_like(table.output_vecs)
        for center, row, label in occurrences:
            error = sigmoid(table.output_vecs[row]
                            @ table.input_vecs[center]) - label
            grad_in[center] += error * table.output_vecs[row]
            grad_out[row] += error * table.input_vecs[center]
        table.input_vecs -= lr * grad_in
        table.output_vecs -= lr * grad_out

    steps = []
    processed = 0
    for _ in range(cfg.epochs):
        for pair, size in zip(pairs, sizes):
            lr = max(cfg.lr0 * (1.0 - processed / schedule_span),
                     cfg.lr0 * LR_FLOOR_FACTOR)
            side_a, side_b = (subsample(side) for side in pair)
            for (own_pos, own_ids, cross), (other_pos, other_ids, _) in (
                    (side_a, side_b), (side_b, side_a)):
                reaches = rng.integers(1, cfg.window + 1, size=len(own_ids))
                windows = []
                for idx, (center, reach) in enumerate(zip(own_ids,
                                                          reaches.tolist())):
                    contexts = (own_ids[max(0, idx - reach):idx]
                                + own_ids[idx + 1:idx + reach + 1])
                    for j in cross.get(own_pos[idx], ()):
                        q = bisect_left(other_pos, j)
                        skip = int(q < len(other_pos) and other_pos[q] == j)
                        contexts += other_ids[max(0, q - reach):q]
                        contexts += other_ids[q + skip:q + skip + reach]
                    windows += [(idx // embed.SIDE_BATCH, center, context)
                                for context in contexts]
                if not windows:
                    continue
                draws = rng.random((len(windows), cfg.negatives))
                negatives = np.searchsorted(vocab.noise_cdf, draws,
                                            side="right").tolist()
                batches = {}
                for (batch, center, context), negs in zip(windows, negatives):
                    occurrences = batches.setdefault(batch, [])
                    occurrences.append((center, context, 1.0))
                    occurrences += [(center, neg, 0.0) for neg in negs
                                    if neg != context]
                for occurrences in batches.values():
                    steps.append((lr, occurrences))
                    step(occurrences, lr)
            processed += size
    return table, steps


def _cell_counts(size, centers, rows, labels):
    """(total, pos): occurrences per (center, row) cell, all and contexts."""
    total, pos = np.zeros((size, size)), np.zeros((size, size))
    np.add.at(total, (centers, rows), 1.0)
    np.add.at(pos, (centers, rows), labels)
    return total, pos


@pytest.mark.parametrize("subsample,min_count",
                         [(0.0, 1), (0.0, 2), (0.05, 1), (0.05, 2)])
def test_index_trainer_equals_the_string_oracle(subsample, min_count,
                                                monkeypatch):
    _assert_trainer_equals_oracle(subsample, min_count, monkeypatch)


def test_long_sides_step_in_batches_of_centers(monkeypatch):
    # toy sides have up to 7 tokens; batches of 2 centers split them
    monkeypatch.setattr(embed, "SIDE_BATCH", 2)
    _assert_trainer_equals_oracle(0.0, 1, monkeypatch)


def test_long_sides_train_stably():
    # one step over a whole 600-token side summed each frequent token's
    # dozens of updates and diverged
    bitext, _, links = make_bijective_corpus(n_pairs=2, min_len=600,
                                             max_len=600)
    cfg = TrainConfig(dim=16, epochs=3, subsample=0.0, seed=3)
    losses = []
    table = train_biskip(bitext, links, cfg, losses=losses)
    assert losses[-1] < losses[0]
    assert np.linalg.norm(table.input_vecs, axis=1).max() < 10.0


@pytest.mark.parametrize("subsample,side_batch",
                         [(0.0, 32), (0.05, 32), (3e-3, 32), (0.0, 2)])
def test_plan_bound_changes_nothing(subsample, side_batch, monkeypatch):
    # bound 1 plans every pair alone, 10**9 a whole epoch at once; 0.05
    # keeps every token of this corpus but still draws, 3e-3 drops some
    monkeypatch.setattr(embed, "SIDE_BATCH", side_batch)
    bitext, _, links = make_bijective_corpus(n_pairs=120)
    cfg = TrainConfig(dim=8, epochs=3, subsample=subsample, seed=4)
    runs = []
    for bound in (embed.PLAN_CONTEXTS, 1, 10 ** 9):
        monkeypatch.setattr(embed, "PLAN_CONTEXTS", bound)
        losses = []
        table = train_biskip(bitext, links, cfg, losses=losses)
        runs.append((table, losses))
    (default, default_losses), *others = runs
    for table, losses in others:
        assert np.array_equal(table.input_vecs, default.input_vecs)
        assert np.array_equal(table.output_vecs, default.output_vecs)
        assert np.array_equal(losses, default_losses)


def _assert_trainer_equals_oracle(subsample, min_count, monkeypatch):
    steps = []

    def recording_step(C, R, total, pos, table, lr):
        steps.append((lr, C, R, total, pos))
        return step(C, R, total, pos, table, lr)
    step = embed.sgns_step
    monkeypatch.setattr(embed, "sgns_step", recording_step)

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
        steps.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = train_biskip(bitext, links, cfg, vocab=vocab)
        expected, oracle_steps = _oracle_train(bitext, links, cfg, vocab)
        # the same draws give every step the same cells, exactly
        assert len(steps) == len(oracle_steps)
        for (lr, C, R, total, pos), (oracle_lr, occurrences) in zip(
                steps, oracle_steps):
            assert lr == oracle_lr
            # C and R are the step's distinct centers and rows, sorted,
            # and each has an occurrence
            assert (np.diff(C) > 0).all() and (np.diff(R) > 0).all()
            assert (total.sum(1) > 0).all() and (total.sum(0) > 0).all()
            dense_total, dense_pos = np.zeros((2, len(vocab), len(vocab)))
            dense_total[np.ix_(C, R)] = total
            dense_pos[np.ix_(C, R)] = pos
            oracle = np.array(occurrences).T
            for counts, oracle_counts in zip(
                    (dense_total, dense_pos),
                    _cell_counts(len(vocab), oracle[0].astype(np.intp),
                                 oracle[1].astype(np.intp), oracle[2])):
                assert np.array_equal(counts, oracle_counts)
        # the tables differ only in the order each gradient is summed
        np.testing.assert_allclose(got.input_vecs, expected.input_vecs,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(got.output_vecs, expected.output_vecs,
                                   rtol=1e-9, atol=1e-12)


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
