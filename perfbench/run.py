"""codemap benchmark.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 15 --trace 0

Runs one workload (or `all`) from the checkout root, checks every
repetition's outputs, and prints a record line and then, as the last line,
`{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
timed part is repeated until `--seconds` of it are measured (at least
once) and the metrics are the end-to-end ones of BENCHMARK.json; with
`--trace 1` they are the per-layer ones, from a traced repetition that
follows an untraced one.  Every set-up and repetition runs in its own
worker process (`perfbench/worker.py`), one at a time: a closed loop with
one client.  Work files go to `perfbench/.work/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import checks, tracing, workloads  # noqa: E402

WORKLOADS = ("demo", "bitext-align", "scaled-map")
FIXTURE = ROOT / "fixtures" / "demo"
WORK = ROOT / "perfbench" / ".work"
SETUP_REPEATS = 9      # cheap set-ups are repeated, scaled-map's is not
BUDGET_S = 170.0       # wall time one invocation may spend per workload
BLAS_THREADS = 1       # at most nproc; one keeps shared-core noise down
MEASURED = ("wall time and peak RSS only: no hardware counters are read "
            "and the page cache is not dropped")


class WorkerFailed(Exception):
    pass


def median(values):
    return statistics.median(values) if values else None


def tree_digest(*dirs):
    """Hash of every file under `dirs`, naming the program, fixture and
    benchmark that a byte-identity reference belongs to."""
    digest = hashlib.sha256()
    for top in dirs:
        for path in sorted(Path(top).rglob("*")):
            if path.is_file() and not {"__pycache__", ".work"} & set(
                    path.parts):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown: not a git checkout"


def environment(blas_threads):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads,
            "git_commit": git_commit(),
            "src_lines": src_lines,
            "measured": MEASURED}


class Session:
    """One workload's run in one invocation: its worker processes,
    outputs, attempt tally and record."""

    def __init__(self, workload, seed, trace):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + BUDGET_S
        self.work = WORK / workload
        self.out_dir = self.work / "out"
        self.source_key = tree_digest(ROOT / "src", FIXTURE,
                                      ROOT / "perfbench")
        self.count = 0
        self.attempted = self.failed = 0
        self.record = {"workload": workload, "seed": seed,
                       "why": workloads.WHY[workload], "trace": trace,
                       "repetitions": [], "failures": []}
        self.work.mkdir(parents=True, exist_ok=True)

    def remaining(self):
        return self.deadline - time.monotonic()

    def attempt(self, action, repetition=True):
        """Call `action`; an exception marks the attempt failed instead of
        ending the run.  A set-up counts only when it fails."""
        try:
            value = action()
        except Exception as err:  # counted, and the run goes on
            self.fail(f"{type(err).__name__}: {err}")
            self.attempted += 1
            return None
        self.attempted += repetition
        return value

    def fail(self, message):
        self.failed += 1
        self.record["failures"].append(message)

    def result(self, metrics):
        return result_line(self.attempted, self.failed, metrics)

    def worker(self, phase, trace=False, out_dir=None):
        self.count += 1
        run_id = f"{self.workload}-{self.seed}-{os.getpid()}-{self.count}"
        result = self.work / f"{run_id}.json"
        spec = {"workload": self.workload, "seed": self.seed,
                "phase": phase, "trace": trace, "run_id": run_id,
                "out_dir": str(out_dir or self.out_dir),
                "result": str(result), "fixture": str(FIXTURE),
                "config": str(FIXTURE / "config.txt")}
        threads = str(BLAS_THREADS)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        log = self.work / f"{run_id}.log"
        with open(log, "w", encoding="utf-8") as handle:
            proc = subprocess.Popen(
                [sys.executable, "-m", "perfbench.worker", json.dumps(spec)],
                cwd=ROOT, env=env, stdout=handle, stderr=subprocess.STDOUT)
            try:
                proc.wait(timeout=max(1.0, self.remaining()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise WorkerFailed(f"{phase} worker passed the time budget")
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8").strip().splitlines()[-3:]
            raise WorkerFailed(f"{phase} worker exited {proc.returncode}: "
                               + " | ".join(tail))
        data = json.loads(result.read_text(encoding="utf-8"))
        result.unlink()
        log.unlink()
        if trace:
            spans = self.work / f"spans-{phase}.json"
            spans.write_text(json.dumps(data["spans"]), encoding="utf-8")
        return data

    def setup(self, trace=False, out_dir=None):
        done = self.worker("setup", trace=trace, out_dir=out_dir)
        if done.get("returncode", 0) != 0:
            raise WorkerFailed(f"set-up exited {done['returncode']}")
        return done

    def repetition(self, trace=False):
        """One timed part, then its output checks."""
        rep = self.worker("run", trace=trace)
        rep["failures"], rep["quality"] = CHECKS[self.workload](self, rep)
        self.record["repetitions"].append({
            key: rep[key] for key in ("run_s", "run_cpu_s", "setup_s",
                                      "peak_rss_mb", "failures")})
        self.record["repetitions"][-1]["traced"] = trace
        if rep["failures"]:
            raise WorkerFailed("; ".join(rep["failures"]))
        return rep

    def reference_digests(self, found, key):
        """Byte-identity against every earlier run of this program,
        fixture and benchmark."""
        path = WORK / "digests.json"
        known = json.loads(path.read_text(encoding="utf-8")) \
            if path.exists() else {}
        failures = checks.compare_digests(
            found, known.setdefault(f"{self.source_key}:{key}", found))
        path.write_text(json.dumps(known, indent=1), encoding="utf-8")
        return failures

    def describe(self, rep):
        self.record["environment"] = environment(rep["blas_threads"])
        self.record["inputs"] = input_properties(self)
        self.record["quality"] = rep["quality"]


# ---------------------------------------------------------------------------
# per-workload output checks, run outside the timed part


def check_demo(session, rep):
    failures, quality = checks.check_demo(
        session.out_dir, FIXTURE / "truth.tsv", rep["returncode"])
    if not failures:
        failures += session.reference_digests(
            checks.digests(session.out_dir, checks.DEMO_ARTIFACTS), "demo")
    return failures, quality


def check_scaled_map(session, rep):
    if rep["returncode"] != 0:
        return [f"compose/map exited {rep['returncode']}"], {}
    ids, matrix = workloads.read_vectors(
        session.out_dir / "element_vecs.txt", header_fields=3)
    ids, matrix = workloads.granularity_rows(ids, matrix, "statement")
    mapping = session.out_dir / "mappings" / "statement.tsv"
    failures, quality = checks.check_rankings(checks.read_rankings(mapping),
                                              ids, matrix)
    if not failures:
        failures += session.reference_digests(
            checks.digests(mapping.parent, ["statement.tsv"]),
            f"scaled-map:{session.seed}")
    return failures, quality


def check_bitext(session, rep):
    return rep["failures"], rep["quality"]


CHECKS = {"demo": check_demo, "bitext-align": check_bitext,
          "scaled-map": check_scaled_map}


def input_properties(session):
    """What the workload's inputs look like, from its generator or from
    the artifacts its latest repetition wrote."""
    if session.workload == "bitext-align":
        bitext, _ = workloads.make_bitext(session.seed)
        return workloads.bitext_properties(bitext)
    config = FIXTURE / "config.txt"
    max_len = int(workloads.config_value(config, "align.max_len"))
    props = workloads.corpus_properties(session.out_dir, max_len)
    if session.workload == "demo":
        ids, matrix = workloads.read_vectors(
            session.out_dir / "embeddings.txt", header_fields=2)
    else:
        props["copy_numbers"] = workloads.scaled_copy_numbers(session.seed)
        ids, matrix = workloads.granularity_rows(*workloads.read_vectors(
            session.out_dir / "element_vecs.txt", header_fields=3),
            "statement")
    props.update(workloads.retrieval_properties(ids, matrix))
    return props


# ---------------------------------------------------------------------------
# measurement


def measure(workload, seed, seconds, trace):
    """Run one workload; returns (record, result)."""
    session = Session(workload, seed, trace)
    setup = None
    if workload == "scaled-map":
        # set-up runs four pipeline stages, so it is done once per run
        setup = session.attempt(lambda: session.setup(trace=bool(trace)),
                                repetition=False)
        if setup is None:
            return session.record, session.result({})
    if trace:
        metrics = traced_run(session, setup)
    else:
        metrics = untraced_run(session, seconds, setup)
    return session.record, session.result(metrics)


def untraced_run(session, seconds, setup):
    """Repeat the timed part until `seconds` of it are measured; end-to-
    end metrics are medians over the repetitions and set-ups."""
    setups = [setup["setup_s"]] if setup else []

    def probe(count):
        # set-up is import and input generation only: cheap enough to
        # repeat in fresh processes, half before and half after the timed
        # part so that one slow spell of the machine does not set the
        # median
        for _ in range(count):
            extra = session.attempt(
                lambda: session.setup(out_dir=session.work / "probe"),
                repetition=False)
            if extra is None:
                break
            setups.append(extra["setup_s"])
            if session.remaining() < 30:
                break

    if not setup:
        probe(SETUP_REPEATS // 2)
    reps = []
    while True:
        rep = session.attempt(session.repetition)
        if rep is None:
            break
        reps.append(rep)
        if sum(r["run_s"] for r in reps) >= seconds \
                or session.remaining() < 1.5 * rep["run_s"]:
            break
    if not reps:
        return {}
    if not setup:
        setups += [r["setup_s"] for r in reps]
        probe(SETUP_REPEATS - len(setups))
    session.describe(reps[-1])
    return end_to_end_metrics(reps, setups,
                              session.record["inputs"]["tokens"])


def traced_run(session, setup):
    """An untraced and then a traced timed part; per-layer metrics from
    the traced one and, on scaled-map, the traced set-up."""
    untraced = session.attempt(session.repetition)
    traced = session.attempt(lambda: session.repetition(trace=True))
    if traced is None:
        return {}
    session.describe(traced)
    spans = [traced["spans"]]
    counts = Counter(traced["counts"])
    if setup:
        spans.append(setup["spans"])
        counts.update(setup["counts"])
    session.record["shares"], problems = timed_shares(session.workload,
                                                      traced)
    for problem in problems:
        session.fail(problem)
    return layer_metrics(spans, counts, traced["run_s"],
                         untraced["run_s"] if untraced else None)


def end_to_end_metrics(reps, setups, tokens):
    """Medians over a run's untraced repetitions and set-ups."""
    run_s = median([r["run_s"] for r in reps])
    return {
        "run_s": (run_s, "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in reps]), "MB"),
        "tokens_per_s": (tokens / run_s, "tokens/s"),
        "precision": (median([r["quality"]["precision"] for r in reps]),
                      "share"),
        "recall": (median([r["quality"]["recall"] for r in reps]), "share"),
    }


def layer_metrics(spans, counts, traced_s, untraced_s):
    """Per-layer metrics from the spans and counts of every traced worker
    of a run (on scaled-map, set-up and timed part)."""
    total, own = {}, {}
    for worker_spans in spans:
        t, o = tracing.span_totals(worker_spans)
        for name in t:
            total[name] = total.get(name, 0.0) + t[name]
            own[name] = own.get(name, 0.0) + o[name]

    def secs(name):
        return total.get(name, 0.0)

    def count(name):
        return counts.get(name, 0)

    def rate(numerator, seconds):
        return numerator / seconds if seconds > 0 else 0.0

    metrics = {}
    for stage in tracing.STAGES:
        metrics[f"cli.{stage}_s"] = (secs(f"cli.{stage}"), "s")
        metrics[f"cli.{stage}_self_s"] = (own.get(f"cli.{stage}", 0.0), "s")
    metrics.update({
        "syntax.parse_s": (secs("syntax.parse"), "s"),
        "syntax.normalize_s": (secs("syntax.normalize"), "s"),
        "syntax.extract_s": (secs("syntax.extract"), "s"),
        "syntax.tokens": (count("syntax.tokens"), "count"),
        "corpus.pair_s": (secs("corpus.pair"), "s"),
        "corpus.pairs": (count("corpus.pairs"), "count"),
        "align.em_s": (secs("align.em"), "s"),
        "align.em_iterations": (count("align.em_iterations"), "count"),
        "align.em_cells": (count("align.em_cells"), "count"),
        "align.em_cells_per_s": (rate(count("align.em_cells"),
                                      secs("align.em")), "cells/s"),
        "align.viterbi_s": (secs("align.viterbi"), "s"),
        "align.symmetrize_s": (secs("align.symmetrize"), "s"),
        "align.links": (count("align.links"), "count"),
        "align.links_per_token": (rate(count("align.links"),
                                       count("align.target_tokens")),
                                  "links/token"),
        "embed.vocab_s": (secs("embed.vocab"), "s"),
        "embed.vocab_size": (count("embed.vocab_size"), "count"),
        "embed.train_s": (secs("embed.train"), "s"),
        "embed.train_tokens": (count("embed.train_tokens"), "count"),
        "embed.train_tokens_per_s": (rate(count("embed.train_tokens"),
                                          secs("embed.train")), "tokens/s"),
        "hier.compose_s": (secs("hier.compose"), "s"),
        "hier.elements": (count("hier.elements"), "count"),
        "hier.elements_per_s": (rate(count("hier.elements"),
                                     secs("hier.compose")), "elements/s"),
        "hier.skipped": (count("hier.skipped"), "count"),
        "retrieve.rank_s": (secs("retrieve.rank"), "s"),
        "retrieve.queries": (count("retrieve.queries"), "count"),
        "retrieve.candidates": (count("retrieve.candidates"), "count"),
        "retrieve.scores_per_s": (rate(count("retrieve.scores"),
                                       secs("retrieve.rank")), "scores/s"),
        "retrieve.tie_share": (rate(count("retrieve.tied_candidates"),
                                    count("retrieve.candidates")), "share"),
        "retrieve.zero_queries": (count("retrieve.zero_queries"), "count"),
        "retrieve.eval_s": (secs("retrieve.eval"), "s"),
        "io.read_s": (secs("io.read"), "s"),
        "io.write_s": (secs("io.write"), "s"),
        "io.bytes_read": (count("io.bytes_read"), "bytes"),
        "io.bytes_written": (count("io.bytes_written"), "bytes"),
        "io.read_mb_per_s": (rate(count("io.bytes_read") / 1e6,
                                  secs("io.read")), "MB/s"),
        "io.write_mb_per_s": (rate(count("io.bytes_written") / 1e6,
                                   secs("io.write")), "MB/s"),
        "trace.run_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s
                             if untraced_s is not None else 0.0, "s"),
    })
    return metrics


def timed_shares(workload, traced):
    """Share of the traced timed part spent in the layers each workload
    was chosen for, and a failure if the demo's stage spans do not cover
    it."""
    total, _ = tracing.span_totals(traced["spans"])
    shares = {name: total.get(name, 0.0) / traced["run_s"]
              for name in ("embed.train", "align.em", "retrieve.rank")}
    shares["cli.stages"] = sum(total.get(f"cli.{s}", 0.0)
                               for s in tracing.STAGES) / traced["run_s"]
    problems = []
    if workload == "demo" and shares["cli.stages"] < 0.95:
        problems.append(f"cli stage spans cover {shares['cli.stages']:.3f} "
                        f"of the traced run, below 0.95")
    return shares, problems


def result_line(attempted, failed, metrics):
    return {"correct": failed == 0 and attempted > 0,
            "attempted": max(attempted, 1),
            "failed": failed if attempted else 1,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (ROOT / "src" / "codemap" / "cli.py",
                           FIXTURE / "config.txt") if not p.is_file()]
    if missing:
        print(f"perfbench: {missing[0]} not found; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            record, result = measure(name, args.seed, args.seconds,
                                     args.trace)
        except Exception as err:  # one workload must not stop the others
            record = {"workload": name, "failures": [
                f"{type(err).__name__}: {err}"]}
            result = result_line(1, 1, {})
        print(json.dumps(record, sort_keys=True))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
