"""Retrieval and metric tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codemap import retrieve
from codemap.retrieve import (MappingReport, Query, average_precision,
                              diff_reference, element_side, evaluate_map,
                              rank_batch, read_rankings, read_reference,
                              read_report, read_truth, run_queries,
                              write_diff, write_rankings, write_report,
                              write_truth)


def oracle_average_precision(ranked, relevant, k):
    """Slow reference AP@k written against the definition directly."""
    precisions = []
    for r in range(1, min(k, len(ranked)) + 1):
        if ranked[r - 1] in relevant:
            top = ranked[:r]
            precisions.append(len([x for x in top if x in relevant]) / r)
    return sum(precisions) / min(len(relevant), k)


# ---------------------------------------------------------------------------
# cosine and ranking


def test_rank_neighbors_orders_by_similarity():
    ids = ["b:far", "b:near", "b:mid"]
    matrix = np.array([[-1.0, 0.0], [1.0, 0.1], [0.5, 0.8]])
    ranked = rank_batch([[1.0, 0.0]], ids, matrix, k=3)[0][0]
    assert [i for i, _ in ranked] == ["b:near", "b:mid", "b:far"]
    assert ranked[0][1] > ranked[1][1] > ranked[2][1]


def test_rank_neighbors_tie_breaks_lexicographically():
    ids = ["b:z", "b:a"]
    matrix = np.array([[2.0, 0.0], [1.0, 0.0]])  # same direction
    ranked, distinct = rank_batch([[1.0, 0.0]], ids, matrix, k=2)
    assert [i for i, _ in ranked[0]] == ["b:a", "b:z"]
    assert distinct == 2


def test_rank_neighbors_truncates_and_skips_zero_rows():
    ids = ["b:x", "b:zero", "b:y"]
    matrix = np.array([[1.0, 0.0], [0.0, 0.0], [0.9, 0.1]])
    ranked = rank_batch([[1.0, 0.0]], ids, matrix, k=2)[0][0]
    assert len(ranked) == 2
    assert "b:zero" not in [i for i, _ in ranked]
    assert rank_batch([[1.0, 0.0]], [], np.zeros((0, 2)), k=5) == ([[]], 0)


def test_rank_neighbors_validation():
    with pytest.raises(ValueError):
        rank_batch([[0.0, 0.0]], ["b:x"], np.ones((1, 2)), k=1)
    with pytest.raises(ValueError):
        rank_batch([[1.0, 0.0]], ["b:x"], np.ones((2, 2)), k=1)
    with pytest.raises(ValueError):
        rank_batch([[1.0, 0.0]], ["b:x"], np.ones((1, 2)), k=0)


def test_query_validation():
    ids, matrix = ["a:q", "b:x"], np.ones((2, 2))
    with pytest.raises(ValueError, match="side must be one of"):
        run_queries([Query("a:q", (1.0, 0.0), "sideways", 1)], ids, matrix)
    with pytest.raises(ValueError, match="k must be at least 1"):
        run_queries([Query("a:q", (1.0, 0.0), "a2b", 0)], ids, matrix)
    with pytest.raises(ValueError, match="zero vector"):
        run_queries([Query("a:q", (0.0, 0.0), "a2b", 1)], ids, matrix)


def test_run_queries_refuses_a_mix_of_sides_or_k():
    ids = ["a:one", "b:one"]
    matrix = np.array([[1.0, 0.0], [0.0, 1.0]])
    for other in (Query("b:one", (0.0, 1.0), "b2a", 1),
                  Query("a:one", (1.0, 0.0), "a2b", 2)):
        with pytest.raises(ValueError, match="queries mix sides or k"):
            run_queries([Query("a:one", (1.0, 0.0), "a2b", 1), other],
                        ids, matrix)
    assert run_queries([], ids, matrix) == ({}, 0)


def test_element_side():
    assert element_side("a:F.java:method:0") == "a"
    assert element_side("b:x") == "b"
    with pytest.raises(ValueError):
        element_side("c:x")
    with pytest.raises(ValueError):
        element_side("plain")


def test_run_queries_filters_by_side():
    ids = ["a:one", "b:one", "b:two"]
    matrix = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    rankings, distinct = run_queries([Query("a:one", (1.0, 0.0), "a2b", 5)],
                                     ids, matrix)
    names = [i for i, _ in rankings["a:one"]]
    assert names == ["b:one", "b:two"]
    assert distinct == 2
    rankings, distinct = run_queries([Query("b:two", (0.0, 1.0), "b2a", 5)],
                                     ids, matrix)
    assert [i for i, _ in rankings["b:two"]] == ["a:one"]
    assert distinct == 1


def oracle_rank_neighbors(query_vec, ids, matrix, k):
    """The per-query ranking that the batched kernel replaced."""
    query_vec = np.asarray(query_vec, dtype=float)
    query_norm = np.linalg.norm(query_vec)
    if len(ids) == 0:
        return []
    norms = np.linalg.norm(matrix, axis=1)
    keep = norms > 0.0
    sims = (matrix[keep] @ query_vec) / (norms[keep] * query_norm)
    kept_ids = [i for i, ok in zip(ids, keep) if ok]
    order = sorted(range(len(kept_ids)),
                   key=lambda j: (-sims[j], kept_ids[j]))
    return [(kept_ids[j], float(sims[j])) for j in order[:k]]


def oracle_run_queries(queries, ids, matrix):
    by_side = {"a": [], "b": []}
    for row, element_id in enumerate(ids):
        by_side[element_side(element_id)].append(row)
    rankings = {}
    for query in queries:
        target = "b" if query.side == "a2b" else "a"
        rows = by_side[target]
        sub = matrix[rows] if rows else matrix[:0]
        sub_ids = [ids[r] for r in rows]
        rankings[query.id] = oracle_rank_neighbors(query.vector, sub_ids,
                                                   sub, query.k)
    return rankings


def random_retrieval_case(rng):
    """Ids, matrix and queries with planted duplicate, parallel and zero
    rows on both sides.  Entries are small integers, so every dot product
    and squared norm is exact and any BLAS kernel yields the oracle's
    floats bit for bit."""
    dim = int(rng.integers(1, 4))
    base = rng.integers(-2, 3, size=(int(rng.integers(2, 12)), dim))
    picks = rng.integers(0, len(base), size=int(rng.integers(4, 40)))
    scale = rng.choice([1, 1, 1, 2, 3], size=len(picks))
    matrix = (base[picks] * scale[:, None]).astype(float)
    matrix[rng.random(len(matrix)) < 0.1] = 0.0
    names = rng.permutation(len(matrix))
    ids = [f"{rng.choice(['a', 'b'])}:e{name:02d}" for name in names]
    queries = []
    for row in rng.permutation(len(matrix))[:12]:
        if matrix[row].any():
            side = "a2b" if ids[row].startswith("a:") else "b2a"
            k = int(rng.choice([1, 2, 3, len(matrix) + 2]))
            queries.append(Query(ids[row], tuple(matrix[row]), side, k))
    return ids, matrix, queries


@pytest.mark.parametrize("block", [None, 1])
def test_batched_ranking_equals_per_query_oracle(block, monkeypatch):
    if block is not None:  # one query row per score block
        monkeypatch.setattr(retrieve, "SCORE_BLOCK", block)
    rng = np.random.default_rng(5)
    for _ in range(300):
        ids, matrix, queries = random_retrieval_case(rng)
        groups = {}
        for query in queries:
            groups.setdefault((query.side, query.k), []).append(query)
        for group in groups.values():
            assert run_queries(group, ids, matrix)[0] == \
                oracle_run_queries(group, ids, matrix)
        for query in queries[:3]:
            assert rank_batch([query.vector], ids, matrix,
                              query.k)[0][0] == \
                oracle_rank_neighbors(query.vector, ids, matrix, query.k)


def test_tie_group_straddling_k_is_ordered_by_id():
    ids = ["b:d", "b:a", "b:c", "b:e", "b:b"]
    matrix = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 0.0],
                       [3.0, 0.0]])
    ranked = rank_batch([[1.0, 0.0]], ids, matrix, k=3)[0][0]
    assert ranked == [("b:a", 1.0), ("b:b", 1.0), ("b:d", 1.0)]
    assert ranked == oracle_rank_neighbors([1.0, 0.0], ids, matrix, k=3)


def test_distinct_rows_equal_np_unique():
    rng = np.random.default_rng(8)
    for _ in range(300):
        # few values, signed zeros among them, so rows repeat and equal
        # rows can differ in the sign of a zero
        values = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 3.0])
        base = rng.choice(values, size=(int(rng.integers(1, 8)),
                                        int(rng.integers(1, 4))))
        matrix = base[rng.integers(0, len(base), int(rng.integers(1, 30)))]
        rows, inverse = retrieve.distinct_rows(matrix)
        want_rows, want_inverse = np.unique(matrix, axis=0,
                                            return_inverse=True)
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(inverse, want_inverse)
        assert np.array_equal(rows[inverse], matrix)
    for matrix in (np.array([[2.0, -0.0, 1.0]]), np.zeros((0, 3))):
        rows, inverse = retrieve.distinct_rows(matrix)
        want_rows, want_inverse = np.unique(matrix, axis=0,
                                            return_inverse=True)
        assert rows.shape == want_rows.shape and np.array_equal(
            rows, want_rows)
        assert inverse.shape == want_inverse.shape and np.array_equal(
            inverse, want_inverse)


def test_kth_best_counts_each_vector_by_its_size():
    rng = np.random.default_rng(9)
    for _ in range(300):
        m = int(rng.integers(1, 12))
        sims = rng.integers(-3, 4, size=(int(rng.integers(1, 6)), m)) / 3.0
        sizes = rng.integers(1, 5, size=m)
        top = int(rng.integers(1, sizes.sum() + 1))
        expanded = np.sort(np.repeat(sims, sizes, axis=1), axis=1)
        assert np.array_equal(retrieve._kth_best(sims, sizes, top),
                              expanded[:, -top])


# each case: candidates whose distinct vectors repeat, queries, and the ks
# that exercise it; entries are small integers, so the scores are exact
DISTINCT_CASES = {
    # one direction at three magnitudes: a tie group of 7 candidates over
    # three distinct vectors, larger than any k tried
    "tie_group_larger_than_k": (
        [[1, 0], [2, 0], [1, 0], [3, 0], [2, 0], [1, 0], [1, 0], [0, 1],
         [-1, 1], [0, 2]],
        [[1, 0], [1, 1], [0, 1]], (1, 2, 3, 6)),
    # 3 distinct vectors over 9 candidates, k from 4 to 8
    "k_between_distinct_and_total": (
        [[1, 2], [2, 1], [1, 2], [-1, 0], [2, 1], [1, 2], [-1, 0], [1, 2],
         [2, 1]],
        [[1, 2], [2, 1], [-1, 0], [1, 1], [0, 1]], (4, 5, 7, 8)),
    "single_distinct_vector": (
        [[1, -1]] * 6, [[1, -1], [-1, 1], [0, 1]], (1, 3, 6, 9)),
}


@pytest.mark.parametrize("block", [None, 1])
@pytest.mark.parametrize("case", DISTINCT_CASES)
def test_top_k_over_distinct_vectors_equals_oracle(case, block,
                                                   monkeypatch):
    if block is not None:  # one query row per score block
        monkeypatch.setattr(retrieve, "SCORE_BLOCK", block)
    candidates, queries, ks = DISTINCT_CASES[case]
    matrix = np.array(candidates, dtype=float)
    # ids out of row order, so the tie-break is not the row order
    ids = [f"b:e{name:02d}" for name in
           np.random.default_rng(4).permutation(len(matrix))]
    for k in ks:
        ranked, distinct = rank_batch(queries, ids, matrix, k)
        assert distinct == len(np.unique(matrix, axis=0))
        assert ranked == [oracle_rank_neighbors(query, ids, matrix, k)
                          for query in queries]
        assert all(len(row) == min(k, len(ids)) for row in ranked)


# ---------------------------------------------------------------------------
# metrics


def test_average_precision_hand_cases():
    # relevant at ranks 1 and 3, k=3, |relevant|=2: (1/1 + 2/3)/2
    assert average_precision(["r1", "x", "r2"], {"r1", "r2"}, 3) == \
        pytest.approx((1.0 + 2.0 / 3.0) / 2.0)
    # nothing relevant retrieved
    assert average_precision(["x", "y"], {"r"}, 5) == 0.0
    # denominator is min(|relevant|, k): 3 relevant, k=1, hit at 1
    assert average_precision(["r1"], {"r1", "r2", "r3"}, 1) == 1.0
    # short list, k beyond it
    assert average_precision(["r1"], {"r1", "r2"}, 10) == \
        pytest.approx(0.5)


def test_average_precision_validation():
    with pytest.raises(ValueError):
        average_precision(["x"], set(), 5)
    with pytest.raises(ValueError):
        average_precision(["x"], {"x"}, 0)


def test_precision_at():
    # P@1 is AP@1
    assert average_precision(["r", "x"], {"r"}, 1) == 1.0
    assert average_precision(["x", "r"], {"r"}, 1) == 0.0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 30), max_size=25, unique=True),
       st.sets(st.integers(0, 30), min_size=1, max_size=10),
       st.integers(1, 12))
def test_average_precision_matches_oracle(ranked, relevant, k):
    got = average_precision(ranked, relevant, k)
    want = oracle_average_precision(ranked, relevant, k)
    assert abs(got - want) <= 1e-12
    assert 0.0 <= got <= 1.0


def test_evaluate_map_aggregates():
    rankings = {"a:q1": [("b:r", 0.9), ("b:x", 0.5)],
                "a:q2": [("b:x", 0.9), ("b:r2", 0.5)],
                "a:q3": [("b:y", 0.4)]}
    truth = {"a:q1": {"b:r"}, "a:q2": {"b:r2"}}
    report = evaluate_map(rankings, truth, ks=(1, 2))
    assert report.n_queries == 2
    assert report.skipped == ["a:q3"]
    assert report.map_at_k[1] == pytest.approx(0.5)
    assert report.map_at_k[2] == pytest.approx((1.0 + 0.5) / 2.0)
    assert report.precision_at_1 == pytest.approx(0.5)


def test_evaluate_map_validation():
    with pytest.raises(ValueError):
        evaluate_map({"a:q": [("b:x", 1.0)]}, {"a:other": {"b:x"}})
    with pytest.raises(ValueError):
        evaluate_map({"a:q": [("b:x", 1.0)]}, {"a:q": set()})
    with pytest.raises(ValueError):
        evaluate_map({"a:q": [("b:x", 1.0)]}, {"a:q": {"b:x"}}, ks=())


def test_diff_reference_classifies():
    rankings = {"a:new": [("b:n", 0.9)],
                "a:same": [("b:s", 0.9)],
                "a:diff": [("b:got", 0.9)],
                "a:empty": []}
    reference = {"a:same": "b:s", "a:diff": "b:want", "a:gone": "b:g"}
    diff = diff_reference(rankings, reference)
    assert diff["new"] == [("a:new", "b:n")]
    assert diff["agreeing"] == [("a:same", "b:s")]
    assert diff["conflicting"] == [("a:diff", "b:got", "b:want")]


# ---------------------------------------------------------------------------
# file round trips


def test_rankings_round_trip(tmp_path):
    rankings = {"a:q1": [("b:r", 0.875), ("b:x", -0.25)],
                "a:q2": [("b:y", 1.0)]}
    out = tmp_path / "mapping.tsv"
    write_rankings(out, rankings, comments=["demo"])
    assert read_rankings(out) == rankings


def test_rankings_reject_bad_rows(tmp_path):
    out = tmp_path / "mapping.tsv"
    out.write_text("a:q\t1\tb:x\n")
    with pytest.raises(ValueError, match=":1"):
        read_rankings(out)
    out.write_text("a:q\t2\tb:x\t0.5\n")
    with pytest.raises(ValueError, match="out of order"):
        read_rankings(out)


def test_truth_round_trip(tmp_path):
    truth = {"a:q1": {"b:r", "b:s"}, "a:q2": {"b:t"}}
    out = tmp_path / "truth.tsv"
    write_truth(out, truth)
    assert read_truth(out) == truth
    out.write_text("# only comments\n")
    with pytest.raises(ValueError):
        read_truth(out)


def test_report_round_trip(tmp_path):
    report = MappingReport(map_at_k={1: 0.5, 5: 0.75, 10: 0.8},
                           precision_at_1=0.5, n_queries=4,
                           skipped=["a:q9"])
    out = tmp_path / "report.tsv"
    write_report(out, report, comments=["eval"])
    got = read_report(out)
    assert got.map_at_k == pytest.approx(report.map_at_k)
    assert got.precision_at_1 == pytest.approx(0.5)
    assert got.n_queries == 4
    assert got.skipped == ["a:q9"]


def test_reference_and_diff_files(tmp_path):
    ref_path = tmp_path / "reference.tsv"
    ref_path.write_text("a:one\tb:one\na:two\tb:two\n")
    reference = read_reference(ref_path)
    assert reference == {"a:one": "b:one", "a:two": "b:two"}

    ref_path.write_text("a:one\tb:one\na:one\tb:other\n")
    with pytest.raises(ValueError, match="duplicate"):
        read_reference(ref_path)

    diff = {"new": [("a:n", "b:n")], "agreeing": [("a:s", "b:s")],
            "conflicting": [("a:c", "b:got", "b:want")]}
    out = tmp_path / "diff.tsv"
    write_diff(out, diff)
    lines = [l for l in out.read_text().splitlines() if l]
    assert "new\ta:n\tb:n\t-" in lines
    assert "agreeing\ta:s\tb:s\tb:s" in lines
    assert "conflicting\ta:c\tb:got\tb:want" in lines
