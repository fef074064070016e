"""Print the demo's quality panel over several training seeds.

Per `train.seed` in SEEDS, `run-all` on the demo config in a
temporary directory, then:
- token precision, recall@10, MAP@1/5/10 and the rank of `b:readonly`
  for `a:final`, as `perfbench/checks.py::check_demo` defines them, on
  `fixtures/demo/truth.tsv`;
- method p@1 and MAP@1/5/10 on `fixtures/demo/method_truth.tsv`: the
  `map` stage at method granularity, which ranks each Java method's
  composed vector by cosine against every C# method's.

Then a `spelling` row, the same figures with no training: each Java
token of the vocabulary (`embeddings.txt`, case-folded, its tag dropped)
and each Java method (its `label` in `elements.tsv`, case-folded) ranks
the C# ones by `corpus.stem_similarity`, ties broken by id.  The method
truth matches methods by case-folded signature, so spelling scores it
1.000 by construction.

    PYTHONPATH=src python3 scripts/panel.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from codemap import cli, retrieve  # noqa: E402
from codemap.config import config_hash, parse_config, provenance  # noqa: E402
from codemap.corpus import stem_similarity  # noqa: E402
from codemap.embed import load_embeddings  # noqa: E402
from codemap.syntax import element_ids, read_elements  # noqa: E402
from perfbench.checks import DEMO_QUERY, DEMO_TARGET, check_demo  # noqa: E402

DEMO = ROOT / "fixtures" / "demo"
KS = (1, 5, 10)
SEEDS = (7, 8, 9, 10, 11)


def method_quality(config, seed, out_dir, truth):
    """p@1 and MAP@k of Java methods ranked against C# methods by the
    map stage, on the run's own config and seed."""
    cfg = parse_config(config, seed=seed)
    cfg.granularity, cfg.k = "method", max(KS)
    rankings = cli.stage_map(cfg, out_dir,
                             provenance(config_hash(config), seed))
    report = retrieve.evaluate_map(rankings, truth, KS)
    return report.precision_at_1, [report.map_at_k[k] for k in KS]


def panel_row(seed, method_truth, out_dir):
    """The learned figures of `run-all` on the demo at `seed`, run in
    out_dir."""
    config = DEMO / "config.txt"
    with contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(["run-all", "--config", str(config),
                           "--out-dir", str(out_dir), "--seed", str(seed)])
        failures, token = check_demo(out_dir, DEMO / "truth.tsv", status)
        if not token:
            raise SystemExit(f"seed {seed}: {'; '.join(failures)}")
        method_p1, method_maps = method_quality(config, seed, out_dir,
                                                method_truth)
    return (token["precision"], token["recall"],
            [token[f"map_at_{k}"] for k in KS], method_p1, method_maps,
            token["final_readonly_rank"])


def spelled(ids, texts):
    """Each a-side id's top max(KS) b-side ids by stem_similarity of
    their texts, ties broken by id."""
    entries = sorted(zip(ids, texts))
    candidates = [(i, text) for i, text in entries if i.startswith("b:")]
    return {query: sorted(((i, stem_similarity(text, other))
                           for i, other in candidates),
                          key=lambda item: (-item[1], item[0]))[:max(KS)]
            for query, text in entries if query.startswith("a:")}


def spelling_row(out_dir, token_truth, method_truth):
    """The panel's figures with candidates ranked by spelling alone, on
    the vocabulary and element table of a run in out_dir."""
    _, vocab = load_embeddings(out_dir / "embeddings.txt")
    tokens = spelled(vocab.tokens, [token.partition(":")[2].casefold()
                                    for token in vocab.tokens])
    table = read_elements(out_dir / "elements.tsv")
    methods = [(i, label.casefold()) for i, granularity, label in zip(
        element_ids(table.side, table.path, table.granularity),
        table.granularity, table.label) if granularity == "method"]
    token = retrieve.evaluate_map(tokens, token_truth, KS)
    method = retrieve.evaluate_map(spelled(*zip(*methods)), method_truth, KS)
    pairs = [(q, r) for q in sorted(token_truth) for r in token_truth[q]]
    recall = sum(r in [i for i, _ in tokens.get(q, [])]
                 for q, r in pairs) / len(pairs)
    ranked = [i for i, _ in tokens[DEMO_QUERY]]
    rank = (ranked.index(DEMO_TARGET) if DEMO_TARGET in ranked
            else len(ranked)) + 1
    return (token.precision_at_1, recall, [token.map_at_k[k] for k in KS],
            method.precision_at_1, [method.map_at_k[k] for k in KS], rank)


def _line(label, precision, recall, maps, method_p1, method_maps, rank):
    return (f"{label}\t{precision:.3f}\t{recall:.3f}\t"
            f"{'/'.join(f'{m:.3f}' for m in maps)}\t{method_p1:.3f}\t"
            f"{'/'.join(f'{m:.3f}' for m in method_maps)}\t{rank}")


def main():
    method_truth = retrieve.read_truth(DEMO / "method_truth.tsv")
    print("seed\ttoken p@1\trecall@10\ttoken MAP@1/5/10\tmethod p@1\t"
          "method MAP@1/5/10\tb:readonly rank")
    method_p1s = []
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            row = panel_row(seed, method_truth, Path(tmp))
            if seed == SEEDS[0]:
                spelling = spelling_row(Path(tmp), retrieve.read_truth(
                    DEMO / "truth.tsv"), method_truth)
        method_p1s.append(row[3])
        print(_line(seed, *row))
    print(_line("spelling", *spelling))
    print(f"mean method p@1 {sum(method_p1s) / len(method_p1s):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
