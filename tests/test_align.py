"""Model 1 EM, Viterbi linking and symmetrization tests."""

import math
from collections import Counter

import numpy as np
import pytest

from codemap import align, artifacts
from codemap.align import (NULL, AlignmentLinkSet, Bitext, Model1Table,
                           align_bitext, build_bitext, read_alignments,
                           read_table, symmetrize, train_model1,
                           viterbi_align, write_alignments, write_table)
from conftest import make_toy_bitext


def _table(bitext, probs):
    """The index of `bitext` with t[source][target] read from `probs`, a
    dict of dicts or another table, 0 where it has no such cell."""
    table = Model1Table(bitext)
    table.t = np.array([
        probs.get(table.sources[s], {}).get(table.targets[k], 0.0)
        for s, k in zip(table.cell_src.tolist(), table.cell_tgt.tolist())])
    return table


def test_single_pair_forces_certainty():
    table = train_model1([(["a"], ["x"], "p0")], iterations=1)
    assert table["a"]["x"] == pytest.approx(1.0)


def test_second_pair_disambiguates():
    bitext = [(["a", "b"], ["x", "y"], "p0"), (["a"], ["x"], "p1")]
    table = train_model1(bitext, iterations=5)
    assert table["a"]["x"] > table["a"]["y"]


def test_uniform_init_over_cooccurring_targets():
    bitext = [(["a"], ["x", "y"], "p0"), (["b"], ["z"], "p1")]
    table = Model1Table(bitext)
    assert table["a"] == {"x": 0.5, "y": 0.5}
    assert table["b"] == {"z": 1.0}
    assert set(table[NULL]) == {"x", "y", "z"}


def test_empty_bitext_rejected():
    with pytest.raises(ValueError):
        train_model1([], iterations=1)
    with pytest.raises(ValueError):
        train_model1([(["a"], ["x"], "p")], iterations=0)


def test_loglik_nondecreasing_and_rows_stochastic():
    rng = np.random.default_rng(11)
    for _ in range(10):
        bitext = make_toy_bitext(rng)
        history = []
        table = train_model1(bitext, iterations=10,
                             log_likelihoods=history)
        assert len(history) == 10
        for before, after in zip(history, history[1:]):
            assert after >= before - 1e-9
        for source, row in table.items():
            assert abs(sum(row.values()) - 1.0) <= 1e-9
            assert all(p >= 0.0 for p in row.values())


def test_history_matches_standalone_loglik():
    rng = np.random.default_rng(3)
    bitext = make_toy_bitext(rng)
    history = []
    train_model1(bitext, iterations=3, log_likelihoods=history)
    # the uniform table, re-indexed from its rows like any other table
    uniform = _table(bitext, Model1Table(bitext))
    standalone = uniform.e_step(uniform.cell_src[uniform.cell])[2]
    assert history[0] == pytest.approx(standalone, abs=1e-9)


def test_viterbi_diagonal_on_identical_streams():
    # singleton pairs force an identity-dominant table; the full pair is
    # then linked along its diagonal
    bitext = [(["u"], ["u"], "p0"), (["v"], ["v"], "p1"),
              (["w"], ["w"], "p2"),
              (["u", "v", "w"], ["u", "v", "w"], "p3")]
    table = train_model1(bitext, iterations=10)
    # p3's targets follow the three singleton targets
    assert viterbi_align(table)[3:].tolist() == [0, 1, 2]


def test_viterbi_empty_target():
    assert viterbi_align(Model1Table([(["a"], [], "p")])).tolist() == []


def test_viterbi_unseen_token_unlinked():
    trained = train_model1([(["a"], ["x"], "p0")], iterations=2)
    table = _table([(["a"], ["zzz"], "p1")], trained)
    assert viterbi_align(table).tolist() == [-1]


def test_viterbi_tie_prefers_smallest_index():
    table = _table([(["a", "a"], ["x"], "p")], {NULL: {}, "a": {"x": 0.9}})
    assert viterbi_align(table).tolist() == [0]


def test_viterbi_tie_with_null_leaves_target_unlinked():
    table = _table([(["a"], ["x"], "p")], {NULL: {"x": 0.5}, "a": {"x": 0.5}})
    assert viterbi_align(table).tolist() == [-1]
    # one pair: NULL and "a" both reach p(x) = 1 after an iteration
    trained = train_model1([(["a"], ["x"], "p")], iterations=1)
    assert trained[NULL]["x"] == trained["a"]["x"] == 1.0
    assert viterbi_align(trained).tolist() == [-1]


def test_viterbi_all_zero_target_unlinked():
    table = _table([(["a", "a"], ["x", "y"], "p")],
                   {NULL: {"x": 0.0}, "a": {"x": 0.0, "y": 1.0}})
    assert viterbi_align(table).tolist() == [-1, 0]


def _oracle_model1(bitext, iterations):
    """Nested-dict Model 1 EM, the reference the index kernels must equal
    bit for bit: (table, log-likelihood history)."""
    cooc = {NULL: {}}
    for tokens_a, tokens_b, _ in bitext:
        for source in [NULL] + tokens_a:
            cooc.setdefault(source, {}).update(dict.fromkeys(tokens_b))
    table = {s: {t: 1.0 / len(row) for t in row} for s, row in cooc.items()}
    history = []
    for _ in range(iterations):
        counts, totals, loglik = {}, {}, 0.0
        for tokens_a, tokens_b, _ in bitext:
            sources = [NULL] + tokens_a
            for target in tokens_b:
                probs = [table.get(s, {}).get(target, 0.0) for s in sources]
                denom = sum(probs)
                loglik += math.log(max(denom, 1e-12)) - math.log(len(sources))
                if denom <= 0.0:
                    continue
                for source, p in zip(sources, probs):
                    if p == 0.0:
                        continue
                    share = p / denom
                    row = counts.setdefault(source, {})
                    row[target] = row.get(target, 0.0) + share
                    totals[source] = totals.get(source, 0.0) + share
        history.append(loglik)
        table = {s: {t: v / totals[s] for t, v in row.items()}
                 for s, row in counts.items()}
    return table, history


def _pair_links(best, offsets, k):
    """Pair k's links (partner, own) in a flat `viterbi_align` array over
    positions with these pair offsets."""
    lo, hi = offsets[k:k + 2]
    return {(i, own) for own, i in enumerate(best[lo:hi].tolist()) if i >= 0}


def _oracle_viterbi(table, tokens_a, tokens_b):
    links = set()
    for j, target in enumerate(tokens_b):
        best, best_i = table.get(NULL, {}).get(target, 0.0), None
        for i, source in enumerate(tokens_a):
            if table.get(source, {}).get(target, 0.0) > best:
                best, best_i = table[source][target], i
        if best_i is not None:
            links.add((best_i, j))
    return frozenset(links)


@pytest.mark.parametrize("batch", [None, 3])
def test_index_kernels_equal_the_dict_oracle(batch, monkeypatch):
    if batch is not None:
        # every segment (target position) becomes a batch of its own
        monkeypatch.setattr(align, "BATCH_OCCURRENCES", batch)
    rng = np.random.default_rng(29)
    for _ in range(50):
        bitext = make_toy_bitext(rng, max_vocab=5)
        expected, expected_history = _oracle_model1(bitext, 6)
        backward, _ = _oracle_model1([(b, a, p) for a, b, p in bitext], 6)
        history = []
        table = train_model1(bitext, 6, log_likelihoods=history)
        if batch is not None:
            segments = len(table.seg_offsets) - 1
            assert len(list(table.batches())) == segments
        assert dict(table) == expected
        assert history == pytest.approx(expected_history, abs=1e-9)
        index = Bitext(bitext)
        forward = viterbi_align(table)
        reverse = viterbi_align(train_model1(index.transposed(), 6))
        merged = {"intersection": [], "union": []}
        for k, (tokens_a, tokens_b, pair_id) in enumerate(bitext):
            fwd = _oracle_viterbi(expected, tokens_a, tokens_b)
            assert _pair_links(forward, index.offsets[1], k) == fwd
            bwd = {(i, j) for j, i in
                   _oracle_viterbi(backward, tokens_b, tokens_a)}
            merged["intersection"].append(AlignmentLinkSet(pair_id,
                                                           fwd & bwd))
            merged["union"].append(AlignmentLinkSet(pair_id, fwd | bwd))
        for mode, link_sets in merged.items():
            assert symmetrize(index, forward, reverse, mode) == link_sets
        assert align_bitext(bitext, 6)[0] == merged["intersection"]


def test_batches_change_no_cell_ids_or_sums(monkeypatch):
    # counts and totals add every occurrence in order, whatever the batch
    rng = np.random.default_rng(31)
    for _ in range(20):
        bitext = make_toy_bitext(rng, max_vocab=5)
        default = Model1Table(bitext)
        default.t = rng.random(len(default.t))
        with monkeypatch.context() as patch:
            patch.setattr(align, "BATCH_OCCURRENCES", 3)
            small = Model1Table(bitext)
            small.t = default.t
            small_sums = small.e_step(small.cell_src[small.cell])[:2]
        for name in ("cell", "cell_src", "cell_tgt"):
            assert np.array_equal(getattr(small, name), getattr(default, name))
        for got, expected in zip(small_sums, default.e_step(
                default.cell_src[default.cell])):
            assert np.array_equal(got, expected)


def test_bitext_index_decodes_to_its_pairs():
    rng = np.random.default_rng(13)
    for _ in range(20):
        # the same string on both sides, and an empty side
        pairs = make_toy_bitext(rng) + [(["s0", "t0"], ["t0", "s0"], "both"),
                                        (["s1"], [], "empty")]
        bitext = Bitext(pairs)
        transposed = bitext.transposed()
        assert list(transposed) == [(b, a, p) for a, b, p in pairs]
        for view, tags in ((bitext, ("a:", "b:")), (transposed, ("b:", "a:"))):
            assert view.tokens is bitext.tokens
            for side, tag in enumerate(tags):
                ids, offsets = view.ids[side], view.offsets[side]
                for k, pair in enumerate(view):
                    assert [view.tokens[i] for i in
                            ids[offsets[k]:offsets[k + 1]].tolist()] == \
                        [tag + token for token in pair[side]]
        counts = (Counter("a:" + token for a, _, _ in pairs for token in a)
                  + Counter("b:" + token for _, b, _ in pairs for token in b))
        assert dict(zip(bitext.tokens, bitext.counts.tolist())) == counts
        assert bitext.tokens == sorted(counts, key=lambda t: (-counts[t], t))


def test_symmetrize_idempotent_and_set_ops():
    bitext = Bitext([(["a", "b", "c"], ["x", "y", "z"], "p")])
    fwd = np.array([0, 1, -1])  # per target: links (0, 0) and (1, 1)
    links = frozenset({(0, 0), (1, 1)})
    bwd_same = np.array([0, 1, -1])  # per source
    for mode in ("intersection", "union"):
        assert symmetrize(bitext, fwd, bwd_same, mode) == \
            [AlignmentLinkSet("p", links)]

    bwd_disjoint = np.array([-1, -1, 2])
    assert symmetrize(bitext, fwd, bwd_disjoint,
                      "intersection")[0].links == frozenset()
    assert symmetrize(bitext, fwd, bwd_disjoint, "union")[0].links == \
        frozenset({(0, 0), (1, 1), (2, 2)})


def test_symmetrize_transposes_backward():
    bitext = Bitext([(["a"], ["x"], "p0"),
                     (["a", "b", "c", "d"], ["x", "y"], "p1")])
    fwd = np.array([0, -1, 3])  # p1's target 1 -> source 3
    bwd = np.array([-1, -1, -1, -1, 1])  # (j, i) orientation
    assert symmetrize(bitext, fwd, bwd, "intersection") == [
        AlignmentLinkSet("p0", frozenset()),
        AlignmentLinkSet("p1", frozenset({(3, 1)}))]
    assert symmetrize(bitext, fwd, bwd, "union")[0].links == \
        frozenset({(0, 0)})


def test_symmetrize_rejects_an_unknown_mode():
    bitext = Bitext([(["a"], ["x"], "p1")])
    with pytest.raises(ValueError):
        symmetrize(bitext, np.array([0]), np.array([0]), "xor")


def test_intersection_is_subset_of_both():
    rng = np.random.default_rng(17)
    bitext = Bitext(make_toy_bitext(rng))
    link_sets, _ = align_bitext(bitext, iterations=5)
    forward = viterbi_align(train_model1(bitext, 5))
    backward = viterbi_align(train_model1(bitext.transposed(), 5))
    for k, merged in enumerate(link_sets):
        assert merged.links <= _pair_links(forward, bitext.offsets[1], k)
        assert merged.links <= {(i, j) for j, i in
                                _pair_links(backward, bitext.offsets[0], k)}


def test_build_bitext_drops_empty_sides():
    pairs = [(["a"], [], "p0"), ([], ["x"], "p1"), (["a"], ["x"], "p2")]
    assert build_bitext(pairs) == [(["a"], ["x"], "p2")]


def test_build_bitext_chunks_long_pairs():
    tokens_a = (["func_decl"] + ["a"] * 30) * 4
    tokens_b = (["func_decl"] + ["x"] * 30) * 4
    chunks = build_bitext([(tokens_a, tokens_b, "big")], max_len=70)
    assert len(chunks) > 1
    assert all(pid.startswith("big#") for _, _, pid in chunks)
    assert sum(len(a) for a, _, _ in chunks) == len(tokens_a)
    assert sum(len(b) for _, b, _ in chunks) == len(tokens_b)
    # every chunk but the merged tail respects the bound
    assert all(len(a) <= 70 for a, _, _ in chunks[:-1])


def test_build_bitext_hard_cut_without_boundaries():
    tokens = ["a"] * 150
    chunks = build_bitext([(tokens, tokens, "p")], max_len=70)
    assert [len(a) for a, _, _ in chunks] == [70, 70, 10]


def test_loglik_improves_on_structured_data():
    bitext = [(["a", "b"], ["x", "y"], "p0"), (["b", "a"], ["y", "x"], "p1"),
              (["a"], ["x"], "p2"), (["b"], ["y"], "p3")]
    history = []
    train_model1(bitext, iterations=8, log_likelihoods=history)
    assert history[-1] > history[0]
    assert not math.isnan(history[-1])


def test_alignment_file_round_trip(tmp_path):
    link_sets = [AlignmentLinkSet("p0", frozenset({(0, 0), (2, 1)})),
                 AlignmentLinkSet("p1", frozenset())]
    out = tmp_path / "alignments.pharaoh"
    write_alignments(link_sets, out, comments=["tool test"])
    assert read_alignments(out) == link_sets


def test_table_file_round_trip(tmp_path):
    table = {"a": {"x": 0.75, "y": 0.25}, NULL: {"x": 1.0}}
    out = tmp_path / "ttable.tsv"
    write_table(_table([(["a"], ["x", "y"], "p")], table), out,
                comments=["tool test"])
    loaded = read_table(out)
    assert loaded["a"]["x"] == 0.75
    assert loaded[NULL]["x"] == 1.0


def test_table_write_omits_negligible_rows(tmp_path):
    table = {"a": {"x": 1.0 - 1e-9, "y": 1e-9}}
    out = tmp_path / "ttable.tsv"
    write_table(_table([(["a"], ["x", "y"], "p")], table), out)
    loaded = read_table(out)
    assert "y" not in loaded["a"]


def _mapping_rows(table):
    """The table writer's rows as a walk over the Mapping: the reference."""
    return (f"{source}\t{target}\t{prob!r}"
            for source in sorted(table)
            for target, prob in sorted(table[source].items())
            if prob >= align.TABLE_WRITE_MIN_PROB)


def _cell(table, source, target):
    lo, hi = table.rows[table.source_ids[source]:][:2]
    return lo + table.cell_tgt[lo:hi].tolist().index(
        table.targets.index(target))


def test_table_writer_equals_the_mapping_walk(tmp_path):
    rng = np.random.default_rng(37)
    edge = align.TABLE_WRITE_MIN_PROB
    below = np.nextafter(edge, 0.0)
    got, expected = tmp_path / "got.tsv", tmp_path / "expected.tsv"
    for _ in range(30):
        bitext = make_toy_bitext(rng) + [(["s0", "s1"], ["t0", "t1"], "e")]
        table = train_model1(bitext, 3)
        # kept at the bound, dropped just below it, a source with no row
        table.t[_cell(table, "s0", "t0")] = edge
        table.t[_cell(table, "s0", "t1")] = below
        s1 = table.source_ids["s1"]
        table.t[table.rows[s1]:table.rows[s1 + 1]] = below
        write_table(table, got, comments=["tool test"])
        artifacts.write_lines(expected, _mapping_rows(dict(table)),
                              ["tool test"])
        assert got.read_bytes() == expected.read_bytes()
        loaded = read_table(got)
        assert loaded["s0"]["t0"] == edge and "t1" not in loaded["s0"]
        assert "s1" not in loaded and NULL in loaded
