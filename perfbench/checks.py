"""Output checks.  Each returns a list of failure messages; empty means
the run's outputs are correct.  Artifacts are parsed here, not with the
program's own readers, so a reader bug cannot hide a writer bug."""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

ROW_SUM_TOLERANCE = 1e-9
MIN_ALIGN_PRECISION = 0.95
SWAP_TOLERANCE = 1e-12
TOP_K = 10             # entries per query in a mapping file
ORACLE_BLOCK = 256     # queries scored per matrix product
DEMO_QUERY, DEMO_TARGET, DEMO_TOP = "a:final", "b:readonly", 5
DEMO_ARTIFACTS = ("embeddings.txt", "element_vecs.txt", "report.tsv")


def digests(directory, names):
    return {name: hashlib.sha256(Path(directory, name).read_bytes())
            .hexdigest() for name in names}


def compare_digests(found, reference):
    return [f"{name} differs from an earlier run of this source tree"
            for name in sorted(found) if found[name] != reference.get(name)]


def read_rankings(path):
    """query id -> [(candidate id, score)] in file order."""
    rankings = {}
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            qid, rank, target, score = line.split("\t")
            ranked = rankings.setdefault(qid, [])
            if int(rank) != len(ranked) + 1:
                raise ValueError(f"{path}: rank {rank} out of order for "
                                 f"{qid}")
            ranked.append((target, float(score)))
    return rankings


def read_report(path):
    """metric -> value from report.tsv; raises ValueError if malformed."""
    values = {}
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            key, value = line.split("\t")
            if key.startswith("map@") or key == "p@1":
                values[key] = float(value)
    if "p@1" not in values or "map@1" not in values:
        raise ValueError(f"{path}: no p@1 or map@1 row")
    return values


def read_truth(path):
    truth = {}
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.rstrip("\n")
            if line and not line.startswith("#"):
                query, relevant = line.split("\t")
                truth.setdefault(query, set()).add(relevant)
    return truth


def check_demo(out_dir, truth_path, returncode):
    """Failures and quality figures of one `run-all` on the demo."""
    out_dir = Path(out_dir)
    failures, quality = [], {}
    if returncode != 0:
        return [f"run-all exited {returncode}"], quality
    try:
        report = read_report(out_dir / "report.tsv")
        rankings = read_rankings(out_dir / "mappings" / "token.tsv")
    except (OSError, ValueError) as err:
        return [f"unreadable output: {err}"], quality
    ranked = [target for target, _ in rankings.get(DEMO_QUERY, [])]
    rank = ranked.index(DEMO_TARGET) + 1 if DEMO_TARGET in ranked \
        else len(ranked) + 1
    if rank > DEMO_TOP:
        failures.append(f"{DEMO_TARGET} is at rank {rank} for {DEMO_QUERY}, "
                        f"not in the top {DEMO_TOP}")
    truth = read_truth(truth_path)
    pairs = [(q, r) for q in sorted(truth) for r in sorted(truth[q])]
    found = sum(1 for q, r in pairs
                if r in [t for t, _ in rankings.get(q, [])[:10]])
    quality.update({
        "precision": report["p@1"],
        "recall": found / len(pairs),
        "map_at_1": report["map@1"],
        "map_at_5": report.get("map@5"),
        "map_at_10": report.get("map@10"),
        "final_readonly_rank": rank,
    })
    return failures, quality


def check_alignment(bitext, link_sets, forward_table, true_links):
    """Row-stochastic table, links in bounds, precision against the
    generating links."""
    failures = []
    for source, row in forward_table.items():
        total = math.fsum(row.values())
        if abs(total - 1.0) > ROW_SUM_TOLERANCE:
            failures.append(f"t-table row {source!r} sums to {total!r}")
            break
    if len(link_sets) != len(bitext):
        failures.append(f"{len(link_sets)} link sets for {len(bitext)} "
                        f"pairs")
    predicted = correct = 0
    for (tokens_a, tokens_b, pair_id), links, truth in zip(
            bitext, link_sets, true_links):
        if links.pair_id != pair_id:
            failures.append(f"link set {links.pair_id!r} is out of order")
            break
        bad = [(i, j) for i, j in links.links
               if not (0 <= i < len(tokens_a) and 0 <= j < len(tokens_b))]
        if bad:
            failures.append(f"{pair_id}: links out of bounds {bad[:3]}")
            break
        predicted += len(links.links)
        correct += len(links.links & truth)
    n_true = sum(len(t) for t in true_links)
    precision = correct / predicted if predicted else 0.0
    recall = correct / n_true if n_true else 0.0
    if precision < MIN_ALIGN_PRECISION:
        failures.append(f"alignment precision {precision:.4f} is below "
                        f"{MIN_ALIGN_PRECISION}")
    return failures, {"precision": precision, "recall": recall}


class Oracle:
    """Brute-force cosine retrieval, ordered by (-sim, id).

    `ids` carry an `a:`/`b:` side tag; `a:` queries rank the `b:` side.
    Zero-norm candidates and zero queries are left out.
    Exact-duplicate candidate vectors share one computed similarity, so
    id alone orders them.
    """

    def __init__(self, ids, matrix):
        norms = np.linalg.norm(matrix, axis=1)
        sides = [i.partition(":")[0] for i in ids]
        self.query_rows = [r for r, (s, n) in enumerate(zip(sides, norms))
                           if s == "a" and n > 0.0]
        cand_rows = [r for r, (s, n) in enumerate(zip(sides, norms))
                     if s != "a" and n > 0.0]
        self.ids = ids
        self.cand_ids = [ids[r] for r in cand_rows]
        self.column = {cid: c for c, cid in enumerate(self.cand_ids)}
        self.id_rank = np.empty(len(cand_rows), dtype=np.int64)
        self.id_rank[np.argsort(np.array(self.cand_ids))] = \
            np.arange(len(cand_rows))
        unique, group = np.unique(matrix[cand_rows], axis=0,
                                  return_inverse=True)
        self.group = group.ravel()  # column -> duplicate class
        self.unique_n = unique / np.linalg.norm(unique, axis=1)[:, None]
        queries = matrix[self.query_rows]
        self.queries_n = queries / np.linalg.norm(queries, axis=1)[:, None]

    def rows(self):
        """(query id, similarity to every candidate column) per query."""
        for lo in range(0, len(self.query_rows), ORACLE_BLOCK):
            scores = self.queries_n[lo:lo + ORACLE_BLOCK] @ self.unique_n.T
            for offset, row in enumerate(scores[:, self.group]):
                yield self.ids[self.query_rows[lo + offset]], row

    def top(self, row):
        order = np.lexsort((self.id_rank, -row))[:TOP_K]
        return [(self.cand_ids[c], float(row[c])) for c in order]


def _same_to_9_digits(written, exact):
    if written == exact:
        return True
    scale = max(abs(written), abs(exact))
    unit = 10.0 ** (math.floor(math.log10(scale)) - 8)
    return abs(written - exact) <= unit


def check_rankings(rankings, ids, matrix):
    """Compare a ranking file's content with the brute-force oracle.

    Two candidates may trade places only when their cosines differ by less
    than SWAP_TOLERANCE and their vectors are not identical; identical
    vectors must appear in id order.  Scores must match to 9 significant
    digits.  Returns (failures, quality) where quality holds the share of
    written entries that agree with the oracle (precision) and of oracle
    entries that were written (recall).
    """
    oracle = Oracle(ids, matrix)
    failures = []
    seen = set()
    written = sum(len(r) for r in rankings.values())
    expected_total = agreeing = found = 0
    for qid, row in oracle.rows():
        seen.add(qid)
        expected = oracle.top(row)
        expected_total += len(expected)
        got = rankings.get(qid)
        if got is None:
            failures.append(f"{qid}: missing")
            continue
        found += len({c for c, _ in got} & {c for c, _ in expected})
        problem = None
        if len(got) != len(expected):
            problem = f"{len(got)} entries, expected {len(expected)}"
        elif len({cid for cid, _ in got}) != len(got):
            problem = "repeated candidate"
        for rank, ((cid, score), (want, want_sim)) in enumerate(
                zip(got, expected), start=1):
            if cid not in oracle.column:
                problem = problem or f"rank {rank}: {cid} is no candidate"
                continue
            sim = float(row[oracle.column[cid]])
            if not _same_to_9_digits(score, sim):
                problem = problem or (f"rank {rank}: score {score!r}, "
                                      f"oracle {sim!r}")
            elif cid != want and (
                    abs(sim - want_sim) >= SWAP_TOLERANCE
                    or oracle.group[oracle.column[cid]]
                    == oracle.group[oracle.column[want]]):
                problem = problem or f"rank {rank}: {cid}, oracle {want}"
            else:
                agreeing += 1
        if problem:
            failures.append(f"{qid}: {problem}")
    extra = sorted(set(rankings) - seen)
    if extra:
        failures.append(f"{len(extra)} unexpected queries, e.g. {extra[0]}")
    return failures[:20], {
        "precision": agreeing / written if written else 0.0,
        "recall": found / expected_total if expected_total else 0.0,
        "oracle_entries": expected_total}
