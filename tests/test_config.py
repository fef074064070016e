"""Pipeline config parsing tests."""

import re
from pathlib import Path

import pytest

from codemap import __version__
from codemap.config import _KEYS, config_hash, parse_config, provenance

README = Path(__file__).parent.parent / "README.md"

FULL = """\
project.name = demo
project.root_a = ja
project.root_b = cs
project.lang_a = java
project.lang_b = csharp
pair.threshold = 0.8
align.iterations = 7
align.symmetrization = union
align.max_len = 50
train.dim = 12
train.window = 3
train.negatives = 2
train.epochs = 4
train.lr0 = 0.05
train.min_count = 2
train.subsample = 0
train.seed = 99
compose.weighting = tfidf
retrieve.ks = 1,3
retrieve.k = 5
retrieve.granularity = method
retrieve.side = b2a
retrieve.truth = truth.tsv
"""


@pytest.fixture
def project(tmp_path):
    (tmp_path / "ja").mkdir()
    (tmp_path / "cs").mkdir()
    (tmp_path / "truth.tsv").write_text("a:x\tb:x\n")
    return tmp_path


def test_full_config_parses(project):
    path = project / "pipeline.cfg"
    path.write_text(FULL)
    cfg = parse_config(path)
    assert cfg.manifest.name == "demo"
    assert cfg.manifest.lang_a == "java"
    assert cfg.manifest.lang_a_root == project / "ja"
    assert cfg.threshold == 0.8
    assert cfg.align_iterations == 7
    assert cfg.symmetrization == "union"
    assert cfg.align_max_len == 50
    assert cfg.train.dim == 12
    assert cfg.train.seed == 99
    assert cfg.weighting == "tfidf"
    assert cfg.ks == (1, 3)
    assert cfg.k == 5
    assert cfg.granularity == "method"
    assert cfg.side == "b2a"
    assert cfg.truth == project / "truth.tsv"
    assert cfg.reference is None


MINIMAL = """\
project.name = demo
project.root_a = ja
project.root_b = cs
project.lang_a = java
project.lang_b = csharp
"""


def test_defaults(project):
    path = project / "pipeline.cfg"
    path.write_text(MINIMAL)
    cfg = parse_config(path)
    assert cfg.threshold == 1.0
    assert cfg.align_iterations == 10
    assert cfg.symmetrization == "intersection"
    assert cfg.train.dim == 100
    assert cfg.ks == (1, 5, 10)
    assert cfg.granularity == "token"
    assert cfg.side == "a2b"
    assert cfg.truth is None


def test_seed_flag_overrides(project):
    path = project / "pipeline.cfg"
    path.write_text(MINIMAL + "train.seed = 5\n")
    assert parse_config(path).train.seed == 5
    assert parse_config(path, seed=77).train.seed == 77


def test_comments_and_blank_lines(project):
    path = project / "pipeline.cfg"
    path.write_text("# header\n\n" + MINIMAL +
                    "pair.threshold = 0.9  # inline\n")
    assert parse_config(path).threshold == 0.9


def test_byte_order_mark_is_not_text(project):
    path = project / "pipeline.cfg"
    path.write_text("\ufeff# header\n" + FULL, encoding="utf-8")
    plain = project / "plain.cfg"
    plain.write_text("# header\n" + FULL, encoding="utf-8")
    assert parse_config(path) == parse_config(plain)


def test_unknown_key_reports_line(project):
    path = project / "pipeline.cfg"
    path.write_text(MINIMAL + "train.dimension = 4\n")
    with pytest.raises(ValueError, match=":6"):
        parse_config(path)


def test_duplicate_key_reports_both_lines(project):
    path = project / "pipeline.cfg"
    path.write_text(MINIMAL + "train.dim = 4\ntrain.dim = 5\n")
    with pytest.raises(ValueError, match="line 6"):
        parse_config(path)


def test_bad_value_reports_line(project):
    path = project / "pipeline.cfg"
    path.write_text(MINIMAL + "train.dim = fifty\n")
    with pytest.raises(ValueError, match=":6"):
        parse_config(path)


def test_missing_separator_rejected(project):
    path = project / "pipeline.cfg"
    path.write_text("project.name demo\n")
    with pytest.raises(ValueError, match=":1"):
        parse_config(path)


def test_missing_required_keys(project):
    path = project / "pipeline.cfg"
    path.write_text("project.name = demo\n")
    with pytest.raises(ValueError, match="missing required"):
        parse_config(path)


@pytest.mark.parametrize("extra", [
    "pair.threshold = 0",
    "pair.threshold = 1.5",
    "align.iterations = 0",
    "align.symmetrization = grow-diag",
    "align.max_len = 0",
    "compose.weighting = median",
    "retrieve.ks = 0,5",
    "retrieve.k = 0",
    "retrieve.granularity = file",
    "retrieve.side = sideways",
    "train.dim = 0",
])
def test_validation_rejects(project, extra):
    path = project / "pipeline.cfg"
    path.write_text(MINIMAL + extra + "\n")
    with pytest.raises(ValueError):
        parse_config(path)


def test_missing_roots_detected(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text(MINIMAL)
    with pytest.raises(FileNotFoundError):
        parse_config(path)


def test_config_hash_and_provenance(project):
    path = project / "pipeline.cfg"
    path.write_text(MINIMAL)
    digest = config_hash(path)
    assert len(digest) == 12
    assert digest == config_hash(path)
    path.write_text(MINIMAL + "# changed\n")
    assert digest != config_hash(path)
    line = provenance("abcdef012345", 7)
    assert line == f"codemap {__version__} config=abcdef012345 seed=7"


def test_readme_configuration_lists_every_key():
    section = README.read_text(encoding="utf-8").split(
        "\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    named = {name for name in re.findall(r"`([^`]*)`", section)
             if re.fullmatch(r"[a-z_]+\.[a-z0-9_]+", name)}
    assert named == set(_KEYS)
