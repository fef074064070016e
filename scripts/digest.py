"""Print the sha256 of every artifact the pipeline writes on fixed inputs.

In a temporary directory it builds:
- `demo-<seed>`: `run-all` on the demo config at `--seed` 7 to 11;
- `scaled-map`: the seed-7 scaled-map project of `perfbench.workloads`,
  from `pair` to `map`;
- `bitext-align-<seed>`: `alignments.pharaoh` and `ttable.tsv` of the
  seed 7 and 8 bitext-align workload bitexts, as `perfbench/worker.py`
  writes them.

It prints `sha256  <tree>/<path>` per file, sorted by path.  Run it on
two checkouts and diff the outputs to check that a change is
byte-identical; the stages' summary lines go to stderr.  OpenBLAS is
pinned to one thread for this process, since tables differ in the last
bits across thread counts.

    PYTHONPATH=src python3 scripts/digest.py
"""

import os
import sys

if __name__ == "__main__":
    # before numpy loads
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import hashlib  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from codemap import align, cli  # noqa: E402
from perfbench import workloads  # noqa: E402

DEMO = ROOT / "fixtures" / "demo"
DEMO_SEEDS = (7, 8, 9, 10, 11)
SCALED_SEED = 7
SCALED_STAGES = ("pair", "normalize", "align", "train", "compose", "map")
BITEXT_SEEDS = (7, 8)


def _run(*argv):
    status = cli.main(list(argv))
    if status:
        raise SystemExit(f"codemap {' '.join(argv)}: exit {status}")


def build_demo(out, seed):
    _run("run-all", "--config", str(DEMO / "config.txt"),
         "--out-dir", str(out / f"demo-{seed}"), "--seed", str(seed))


def build_scaled_map(out, work):
    config = workloads.make_scaled_project(SCALED_SEED, DEMO,
                                           work / "project")
    for stage in SCALED_STAGES:
        _run(stage, "--config", str(config),
             "--out-dir", str(out / "scaled-map"))


def build_bitext_align(out, seed):
    bitext, _ = workloads.make_bitext(seed)
    links, table = align.align_bitext(
        bitext, iterations=workloads.BITEXT_ITERATIONS, mode="intersection")
    tree = out / f"bitext-align-{seed}"
    tree.mkdir(parents=True)
    align.write_alignments(links, tree / "alignments.pharaoh")
    align.write_table(table, tree / "ttable.tsv")


def digests(out):
    """`sha256  <path>` of every file under `out`, sorted by path."""
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
            f"{path.relative_to(out).as_posix()}"
            for path in sorted(out.rglob("*")) if path.is_file()]


def main():
    with tempfile.TemporaryDirectory() as tmp:
        out, work = Path(tmp) / "out", Path(tmp) / "work"
        for seed in DEMO_SEEDS:
            build_demo(out, seed)
        build_scaled_map(out, work)
        for seed in BITEXT_SEEDS:
            build_bitext_align(out, seed)
        print("\n".join(digests(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
