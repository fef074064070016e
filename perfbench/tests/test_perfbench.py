"""The benchmark's own checks: generators, oracle, metric names and
failure accounting.  None of these runs the pipeline."""

from __future__ import annotations

import json
import re
import time

import numpy as np
import pytest

from perfbench import checks, run, tracing, workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def project_files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_bitext_generator_is_seeded():
    first, first_links = workloads.make_bitext(3)
    again, again_links = workloads.make_bitext(3)
    other, _ = workloads.make_bitext(4)
    assert first == again and first_links == again_links
    assert first != other
    props = workloads.bitext_properties(first)
    assert props["pairs"] == workloads.BITEXT_PAIRS
    assert all(workloads.BITEXT_MIN_LEN <= len(a) <= workloads.BITEXT_MAX_LEN
               and len(a) == len(b) for a, b, _ in first)


def test_scaled_project_generator_is_seeded(tmp_path):
    dirs = {}
    for name, seed in (("first", 3), ("again", 3), ("other", 4)):
        workloads.make_scaled_project(seed, run.FIXTURE, tmp_path / name)
        dirs[name] = project_files(tmp_path / name)
    assert dirs["first"] == dirs["again"]
    assert dirs["first"] != dirs["other"]
    java = [p for p in dirs["first"] if p.endswith(".java")]
    assert len(java) == 10 * workloads.SCALED_COPIES
    config = dirs["first"]["config.txt"].decode()
    assert "train.epochs = 1" in config and "retrieve.truth" not in config


def tied_case():
    """One query and four candidates; b:x1 and b:x2 are identical."""
    ids = ["a:q", "b:x2", "b:x1", "b:y", "b:zero"]
    matrix = np.array([[1.0, 0.2], [0.9, 0.1], [0.9, 0.1], [0.1, 1.0],
                       [0.0, 0.0]])
    return ids, matrix


def written(ranked):
    """A ranking as the program writes it: scores at 9 significant
    digits."""
    return [(cid, float(f"{sim:.9g}")) for cid, sim in ranked]


def oracle_ranking(ids, matrix):
    oracle = checks.Oracle(ids, matrix)
    return {qid: written(oracle.top(row)) for qid, row in oracle.rows()}


def test_oracle_orders_ties_by_id_and_drops_zero_rows():
    ranking = oracle_ranking(*tied_case())
    assert [cid for cid, _ in ranking["a:q"]] == ["b:x1", "b:x2", "b:y"]
    failures, quality = checks.check_rankings(ranking, *tied_case())
    assert failures == []
    assert quality["precision"] == quality["recall"] == 1.0


def test_oracle_check_rejects_tied_candidates_out_of_id_order():
    ranking = oracle_ranking(*tied_case())
    first, second, rest = ranking["a:q"][0], ranking["a:q"][1], \
        ranking["a:q"][2:]
    ranking["a:q"] = [second, first] + rest
    failures, quality = checks.check_rankings(ranking, *tied_case())
    assert failures and quality["precision"] < 1.0


def test_oracle_check_allows_near_ties_either_way():
    ids = ["a:q", "b:m", "b:n"]
    matrix = np.array([[1.0, 1.0], [1.0, 0.5], [1.0, 0.5 + 1e-15]])
    ranking = oracle_ranking(ids, matrix)
    ranking["a:q"].reverse()
    assert checks.check_rankings(ranking, ids, matrix)[0] == []


@pytest.mark.parametrize("drop", ["entry", "query"])
def test_oracle_check_rejects_a_dropped_row(drop):
    ids = ["a:q", "a:r", "b:x", "b:y"]
    matrix = np.array([[1.0, 0.0], [0.0, 1.0], [0.8, 0.6], [0.6, 0.8]])
    ranking = oracle_ranking(ids, matrix)
    if drop == "entry":
        ranking["a:q"] = ranking["a:q"][:-1]
    else:
        del ranking["a:r"]
    failures, quality = checks.check_rankings(ranking, ids, matrix)
    assert failures and quality["recall"] < 1.0


def test_oracle_check_rejects_a_wrong_score():
    ids, matrix = tied_case()
    ranking = oracle_ranking(ids, matrix)
    cid, score = ranking["a:q"][2]
    ranking["a:q"][2] = (cid, score + 1e-6)
    assert checks.check_rankings(ranking, ids, matrix)[0]


def test_alignment_check_catches_bad_links_and_rows():
    from codemap.align import AlignmentLinkSet
    bitext = [(["s1", "s2"], ["t2", "t1"], "pair0")]
    truth = [frozenset({(0, 1), (1, 0)})]
    table = {"s1": {"t1": 0.75, "t2": 0.25}, "s2": {"t1": 0.5, "t2": 0.5}}
    good = [AlignmentLinkSet("pair0", truth[0])]
    assert checks.check_alignment(bitext, good, table, truth)[0] == []
    outside = [AlignmentLinkSet("pair0", frozenset({(0, 1), (2, 0)}))]
    assert checks.check_alignment(bitext, outside, table, truth)[0]
    skewed = dict(table, s2={"t1": 0.5, "t2": 0.6})
    assert checks.check_alignment(bitext, good, skewed, truth)[0]


def test_benchmark_file_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(run.WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == workloads.WHY[entry["name"]]
    reps = [{"run_s": 2.0, "peak_rss_mb": 50.0,
             "quality": {"precision": 1.0, "recall": 1.0}}]
    end_to_end = run.end_to_end_metrics(reps, [0.1], tokens=100)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(end_to_end)
    for entry in BENCHMARK["end_to_end"]:
        assert entry["unit"] == end_to_end[entry["name"]][1]
    per_layer = run.layer_metrics([], {}, 1.0, 0.9)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(per_layer)
    for entry in BENCHMARK["per_layer"]:
        assert entry["unit"] == per_layer[entry["name"]][1]


def test_every_metric_name_is_well_formed():
    names = [m["name"] for m in BENCHMARK["end_to_end"]
             + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name) and len(name) <= 64, name


def test_spans_nest_and_self_time_excludes_children():
    class Module:
        @staticmethod
        def outer(inner):
            inner()
            return "done"

        @staticmethod
        def inner():
            pass

    tracer = tracing.Tracer("t")
    tracer.wrap(Module, "outer", "x.outer")
    tracer.wrap(Module, "inner", "x.inner")
    assert Module.outer(Module.inner) == "done"
    tracer.uninstall()
    (outer, _, _, parent, run_id, _), inner = tracer.spans
    assert outer == "x.outer" and parent is None and run_id == "t"
    assert inner[0] == "x.inner" and inner[3] == 0
    total, own = tracing.span_totals(tracer.spans)
    assert own["x.outer"] == pytest.approx(total["x.outer"]
                                           - total["x.inner"])
    assert Module.outer.__name__ == "outer" and not tracer._patched


def test_hook_time_is_left_out_of_the_enclosing_spans():
    class Module:
        @staticmethod
        def outer(inner):
            return inner(1)

        @staticmethod
        def inner(n):
            return n

    def slow_count(bound):
        time.sleep(0.05)

    tracer = tracing.Tracer("t")
    tracer.wrap(Module, "outer", "x.outer")
    tracer.wrap(Module, "inner", "x.inner", before=slow_count,
                after=lambda bound, result: slow_count(bound))
    assert Module.outer(Module.inner) == 1
    tracer.uninstall()
    outer, inner = tracer.spans
    assert outer[5] >= 0.1 and inner[5] == 0.0
    total, own = tracing.span_totals(tracer.spans)
    assert total["x.outer"] < 0.05
    assert own["x.outer"] == pytest.approx(total["x.outer"]
                                           - total["x.inner"])


def test_a_raising_repetition_is_counted_as_failed(monkeypatch):
    def broken(self, phase, trace=False):
        raise run.WorkerFailed("boom")
    monkeypatch.setattr(run.Session, "worker", broken)
    record, result = run.measure("bitext-align", seed=1, seconds=1, trace=0)
    assert result["failed"] == result["attempted"] == 2  # a set-up, a run
    assert result["correct"] is False
    assert "WorkerFailed: boom" in record["failures"]


def test_a_raising_workload_does_not_stop_the_others(monkeypatch, capsys):
    def measure(workload, seed, seconds, trace):
        if workload == "demo":
            raise RuntimeError("demo broke")
        return {"workload": workload}, run.result_line(
            1, 0, {"run_s": (1.0, "s")})
    monkeypatch.setattr(run, "measure", measure)
    assert run.main(["--workload", "all", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) == 0
    results = [json.loads(line) for line in
               capsys.readouterr().out.splitlines()[1::2]]
    assert [r["correct"] for r in results] == [False, True, True]
    assert results[0]["failed"] == results[0]["attempted"] == 1
