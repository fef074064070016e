"""The scripts in scripts/ and what they write."""

import hashlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from codemap import forked

ROOT = Path(__file__).parent.parent


def test_method_truth_is_what_its_script_writes(tmp_path):
    script = runpy.run_path(str(ROOT / "scripts" / "method_truth.py"))
    out = tmp_path / "method_truth.tsv"
    assert script["main"](["--out", str(out)]) == 0
    assert out.read_bytes() == (
        ROOT / "fixtures" / "demo" / "method_truth.tsv").read_bytes()


def test_digest_lists_every_demo_file_once(tmp_path):
    script = runpy.run_path(str(ROOT / "scripts" / "digest.py"))
    script["build_demo"](tmp_path, 7)
    files = sorted(path.relative_to(tmp_path).as_posix()
                   for path in tmp_path.rglob("*") if path.is_file())
    lines = script["digests"](tmp_path)
    assert sorted(line.split("  ", 1)[1] for line in lines) == files
    assert "demo-7/embeddings.txt" in files
    sha, path = lines[0].split("  ", 1)
    assert sha == hashlib.sha256((tmp_path / path).read_bytes()).hexdigest()


def test_panel_row_on_the_demo(tmp_path):
    script = runpy.run_path(str(ROOT / "scripts" / "panel.py"))
    truth = script["retrieve"].read_truth(
        ROOT / "fixtures" / "demo" / "method_truth.tsv")
    precision, _, _, method_p1, _, rank = script["panel_row"](7, truth,
                                                              tmp_path)
    assert precision == pytest.approx(0.95)
    assert rank <= 5
    assert 0.0 <= method_p1 <= 1.0
    # spelling alone: 19 of the 20 token queries, every one of the 37
    # methods, whose truth is spelling by construction
    token_truth = script["retrieve"].read_truth(
        ROOT / "fixtures" / "demo" / "truth.tsv")
    precision, _, _, method_p1, _, _ = script["spelling_row"](
        tmp_path, token_truth, truth)
    assert (precision, method_p1) == (pytest.approx(0.95), 1.0)


def test_run_demo_shows_readonly_first_for_final(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        ["sh", str(ROOT / "scripts" / "run_demo.sh"), str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True)
    assert any(line.startswith("a:final\t1\tb:readonly\t")
               for line in done.stdout.splitlines()), done.stdout


def test_scale_runs_every_stage_on_two_copies(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scale.py"), "2", "--out",
         str(tmp_path)], capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    assert lines[0] == f"x2: 40 source files in {tmp_path}"
    assert lines[1].split() == ["stage", "wall_s", "peak_rss_mb",
                                "child_rss_mb"]
    rows = {stage: [float(figure) for figure in figures]
            for stage, *figures in (line.split() for line in lines[2:])}
    assert list(rows) == ["pair", "normalize", "align", "train", "compose",
                          "map", "total"]
    assert all(wall > 0.0 and peak > 0.0 and child >= 0.0
               for wall, peak, child in rows.values())
    # two copies fork the b -> a training and the block planner where a
    # child can run beside its parent; pairing forks nothing
    assert (rows["align"][2] > 0.0) == forked.available()
    assert (rows["train"][2] > 0.0) == forked.available()
    assert rows["pair"][2] == 0.0
    assert rows["total"][1:] == [max(row[k] for stage, row in rows.items()
                                     if stage != "total") for k in (1, 2)]
    assert "[map] 192 statement queries (a2b) against 192 candidates" \
        in done.stderr
    assert len(list((tmp_path / "project" / "java").glob("*.java"))) == 20
    assert (tmp_path / "run" / "mappings" / "statement.tsv").is_file()
