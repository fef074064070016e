"""The committed outputs of the scripts in scripts/."""

import runpy
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_method_truth_is_what_its_script_writes(tmp_path):
    script = runpy.run_path(str(ROOT / "scripts" / "method_truth.py"))
    out = tmp_path / "method_truth.tsv"
    assert script["main"](["--out", str(out)]) == 0
    assert out.read_bytes() == (
        ROOT / "fixtures" / "demo" / "method_truth.tsv").read_bytes()
