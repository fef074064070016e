"""Print the demo's quality panel over several training seeds.

Per `train.seed` in SEEDS, `run-all` on the demo config in a
temporary directory, then:
- token precision, recall@10, MAP@1/5/10 and the rank of `b:readonly`
  for `a:final`, as `perfbench/checks.py::check_demo` defines them, on
  `fixtures/demo/truth.tsv`;
- method p@1 and MAP@1/5/10 on `fixtures/demo/method_truth.tsv`: the
  `map` stage at method granularity, which ranks each Java method's
  composed vector by cosine against every C# method's.

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
from perfbench.checks import check_demo  # noqa: E402

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


def panel_row(seed, method_truth):
    config = DEMO / "config.txt"
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(["run-all", "--config", str(config),
                           "--out-dir", tmp, "--seed", str(seed)])
        failures, token = check_demo(tmp, DEMO / "truth.tsv", status)
        if not token:
            raise SystemExit(f"seed {seed}: {'; '.join(failures)}")
        method_p1, method_maps = method_quality(config, seed, Path(tmp),
                                                method_truth)
    return (token["precision"], token["recall"],
            [token[f"map_at_{k}"] for k in KS], method_p1, method_maps,
            token["final_readonly_rank"])


def main():
    method_truth = retrieve.read_truth(DEMO / "method_truth.tsv")
    print("seed\ttoken p@1\trecall@10\ttoken MAP@1/5/10\tmethod p@1\t"
          "method MAP@1/5/10\tb:readonly rank")
    method_p1s = []
    for seed in SEEDS:
        precision, recall, maps, method_p1, method_maps, rank = panel_row(
            seed, method_truth)
        method_p1s.append(method_p1)
        print(f"{seed}\t{precision:.3f}\t{recall:.3f}\t"
              f"{'/'.join(f'{m:.3f}' for m in maps)}\t{method_p1:.3f}\t"
              f"{'/'.join(f'{m:.3f}' for m in method_maps)}\t{rank}")
    print(f"mean method p@1 {sum(method_p1s) / len(method_p1s):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
