"""Run the pipeline on N copies of the demo project, each stage in its own
process, and print every stage's wall time and peak RSS.

    PYTHONPATH=src python3 scripts/scale.py 100 [--out DIR]

Copy c, for c = 0 ... N - 1, appends `C<c:03d>` to the ten demo class
names and file stems in both languages, as the scaled-map workload does
for its twenty copies, so the project has 20 N source files.  The config
is the workload's: the demo's with one training epoch, statement
granularity and no truth file.  Each stage runs `codemap.cli.main` in
its own Python process with OpenBLAS at one thread, and reports two
peaks: its own (VmHWM) and the largest of the children it forked and
reaped (`getrusage(RUSAGE_CHILDREN).ru_maxrss`, 0 if none), so a peak
is told apart from its forked child's.  The project and the run go to
`--out`, or to a temporary directory that is removed afterwards.
Nothing here is timed by the benchmark.
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402

DEMO = ROOT / "fixtures" / "demo"
STAGES = ("pair", "normalize", "align", "train", "compose", "map")


def make_project(copies, dest):
    """Write the `copies`-fold demo project and its config under `dest`;
    returns the config path."""
    pattern = re.compile(r"\b(" + "|".join(workloads.DEMO_CLASSES) + r")\b")
    for lang_dir, ext in (("java", ".java"), ("csharp", ".cs")):
        out_dir = dest / lang_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        for source in sorted((DEMO / lang_dir).glob("*" + ext)):
            text = source.read_text(encoding="utf-8")
            for c in range(copies):
                suffix = f"C{c:03d}"
                renamed = pattern.sub(lambda m: m.group(1) + suffix, text)
                (out_dir / f"{source.stem}{suffix}{ext}").write_text(
                    renamed, encoding="utf-8")
    config = dest / "config.txt"
    config.write_text(workloads.scaled_config_text(DEMO / "config.txt"),
                      encoding="utf-8")
    return config


# One stage, then its own peak and its reaped children's, in KB, on stdout
STAGE = """\
import resource, sys
from codemap.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    own = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(code)
"""


def run_stage(stage, config, out_dir):
    """(wall seconds, own peak RSS, children's peak RSS), the peaks in MB,
    of one stage in its own process."""
    src = str(ROOT / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep
               .join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", STAGE, stage, "--config", str(config),
         "--out-dir", str(out_dir)], env=env, stdout=subprocess.PIPE,
        text=True)
    wall = time.perf_counter() - start
    if done.returncode:
        raise SystemExit(f"codemap {stage}: exit {done.returncode}")
    own, children = done.stdout.split()[-2:]
    return wall, int(own) / 1024, int(children) / 1024


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("copies", type=int, help="N, the number of copies")
    parser.add_argument("--out", type=Path, default=None,
                        help="keep the project and the run here")
    args = parser.parse_args(argv)
    if args.copies < 1:
        parser.error("copies must be at least 1")
    with tempfile.TemporaryDirectory() as temporary:
        work = args.out or Path(temporary)
        config = make_project(args.copies, work / "project")
        print(f"x{args.copies}: {20 * args.copies} source files in {work}",
              flush=True)
        rows = [(stage, *run_stage(stage, config, work / "run"))
                for stage in STAGES]
    print(f"{'stage':<10} {'wall_s':>8} {'peak_rss_mb':>12} "
          f"{'child_rss_mb':>12}")
    for stage, wall, peak, child in rows:
        print(f"{stage:<10} {wall:>8.2f} {peak:>12.1f} {child:>12.1f}")
    print(f"{'total':<10} {sum(row[1] for row in rows):>8.2f} "
          f"{max(row[2] for row in rows):>12.1f} "
          f"{max(row[3] for row in rows):>12.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
