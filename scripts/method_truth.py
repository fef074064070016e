"""Write the demo's method-level ground truth, fixtures/demo/method_truth.tsv.

Rule: in each file pair, the `method` rows of its two files in
`elements.tsv` are matched by their case-folded label, the qualified
signature (`demo.io.Buffer.clamp(int)` <-> `Demo.IO.Buffer.Clamp(int)`).
A label is kept only if it is unique on both sides of its pair.  Ids
are `codemap compose`'s, from `syntax.element_ids`:
`<side>:<path>:method:<ordinal>`, the ordinal counting a file's method
rows in order.  The header says how many Java methods were left out,
and that this truth is spelling by construction: ranking C# methods by
the similarity of their case-folded labels alone finds every match.
The pairs and elements come from the `pair` and `normalize` stages, run
on the demo config in a temporary directory.

    PYTHONPATH=src python3 scripts/method_truth.py [--out PATH]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

from codemap import artifacts, cli, corpus
from codemap.syntax import element_ids, read_elements

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "fixtures" / "demo"


def methods(out_dir):
    """(id, case-folded label) of each method row of the element table,
    in file order, per (side, path)."""
    table = read_elements(out_dir / "elements.tsv")
    found = defaultdict(list)
    for element_id, side, path, granularity, label in zip(
            element_ids(table.side, table.path, table.granularity),
            table.side, table.path, table.granularity, table.label):
        if granularity == "method":
            found[side, path].append((element_id, label.casefold()))
    return found


def match(out_dir):
    """The matched (a id, b id) pairs and the number of Java methods
    that none matched."""
    pairs = corpus.read_pair_manifest(out_dir / "pairs.tsv")
    found = methods(out_dir)
    matched, java_methods = [], 0
    for pair in pairs:
        sides = [found[side, path]
                 for side, path in (("a", pair.path_a), ("b", pair.path_b))]
        java_methods += len(sides[0])
        counts = [Counter(label for _, label in side) for side in sides]
        b_of = {label: element_id for element_id, label in sides[1]}
        for element_id, label in sides[0]:
            if counts[0][label] == 1 and counts[1][label] == 1:
                matched.append((element_id, b_of[label]))
    return matched, java_methods - len(matched)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEMO / "method_truth.tsv")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for stage in ("pair", "normalize"):
            status = cli.main([stage, "--config", str(DEMO / "config.txt"),
                               "--out-dir", tmp])
            if status:
                return status
        matched, left_out = match(Path(tmp))
    artifacts.write_lines(args.out, [f"{a}\t{b}" for a, b in matched], (
        "Method-level cross-language ground truth for the demo project "
        "(a2b), written by scripts/method_truth.py.",
        "Rule: per file pair, Java and C# method rows matched by "
        "case-folded qualified signature, kept only if unique on both "
        "sides.",
        "So this truth is spelling by construction: ranking by case-folded "
        "label similarity alone scores p@1 1.000 on it.",
        f"{len(matched)} of {len(matched) + left_out} Java methods "
        f"matched; {left_out} left out."))
    print(f"{args.out}: {len(matched)} methods matched, {left_out} left out",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
