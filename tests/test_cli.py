"""End-to-end CLI tests on a two-file mini project."""

import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from codemap import align, cli, embed, hier, retrieve
from codemap.cli import main
from codemap.syntax import read_elements, read_stream

ROOT = Path(__file__).resolve().parent.parent

JAVA_COUNTER = """\
package mini;

public class Counter {
    public static final int STEP = 2;
    private int total;

    public Counter() {
        this.total = 0;
    }

    public int bump(int amount) {
        this.total = this.total + amount;
        return this.total;
    }
}
"""

CSHARP_COUNTER = """\
namespace Mini {
    public class Counter {
        public static readonly int Step = 2;
        private int total;

        public Counter() {
            this.total = 0;
        }

        public int Bump(int amount) {
            this.total = this.total + amount;
            return this.total;
        }
    }
}
"""

JAVA_HOLDER = """\
package mini;

public class Holder {
    private final long value;

    public Holder(long value) {
        this.value = value;
    }

    public long get() {
        return this.value;
    }
}
"""

CSHARP_HOLDER = """\
namespace Mini {
    public class Holder {
        private readonly long value;

        public Holder(long value) {
            this.value = value;
        }

        public long Get() {
            return this.value;
        }
    }
}
"""

DEMO = Path(__file__).parent.parent / "fixtures" / "demo"

CONFIG = """\
project.name = mini
project.root_a = ja
project.root_b = cs
project.lang_a = java
project.lang_b = csharp
align.iterations = 4
align.max_len = 40
train.dim = 8
train.window = 3
train.negatives = 2
train.epochs = 3
train.min_count = 1
train.subsample = 0
train.seed = 3
retrieve.ks = 1,5
retrieve.k = 5
retrieve.truth = truth.tsv
"""


@pytest.fixture
def project(tmp_path):
    (tmp_path / "ja").mkdir()
    (tmp_path / "cs").mkdir()
    (tmp_path / "ja" / "Counter.java").write_text(JAVA_COUNTER)
    (tmp_path / "cs" / "Counter.cs").write_text(CSHARP_COUNTER)
    (tmp_path / "ja" / "Holder.java").write_text(JAVA_HOLDER)
    (tmp_path / "cs" / "Holder.cs").write_text(CSHARP_HOLDER)
    (tmp_path / "truth.tsv").write_text("a:int\tb:int\na:long\tb:long\n")
    config = tmp_path / "mini.cfg"
    config.write_text(CONFIG)
    return config


def _run(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# usage errors


def test_no_subcommand_is_usage_error(capsys):
    assert _run() == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert _run("frobnicate", "--config", "x") == 1


def test_missing_config_flag_is_usage_error(project):
    assert _run("pair") == 1


def test_version_exits_zero(capsys):
    assert _run("--version") == 0
    assert "codemap" in capsys.readouterr().out


def test_importing_codemap_pins_openblas_to_one_thread():
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    done = subprocess.run(
        [sys.executable, "-c", "import codemap.cli\n"
         "from perfbench.worker import blas_threads\n"
         "print(blas_threads())"],
        env=env, capture_output=True, text=True, check=True)
    if done.stdout.strip() == "None":
        pytest.skip("OpenBLAS cannot be asked for its thread count")
    assert done.stdout.strip() == "1"


# ---------------------------------------------------------------------------
# I/O and validation errors


def test_missing_config_file_is_io_error(tmp_path, capsys):
    assert _run("pair", "--config", str(tmp_path / "nope.cfg")) == 2


def test_bad_config_is_validation_error(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("bogus.key = 1\n")
    assert _run("pair", "--config", str(config)) == 3
    assert "bogus.key" in capsys.readouterr().err


def test_config_that_is_not_utf8_names_file_and_line(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"# project\r\nproject.name = caf\xe9\n")
    assert _run("pair", "--config", str(config)) == 3
    assert f"{config}:2:19: not UTF-8 (byte 0xe9)" in capsys.readouterr().err


@pytest.mark.parametrize("settings, message", [
    ({"train.lr0": "nan"}, "lr0 must be positive and finite"),
    ({"train.lr0": "inf"}, "lr0 must be positive and finite"),
    # finite, but training diverges
    ({"train.lr0": "1e3", "train.epochs": "30"},
     "non-finite values after training"),
    ({"train.subsample": "nan"}, "subsample must be >= 0 and finite")],
    ids=["lr0_nan", "lr0_inf", "lr0_divergent", "subsample_nan"])
@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")  # NaN steps
def test_bad_learning_setting_is_validation_error(project, tmp_path, capsys,
                                                  settings, message):
    text = project.read_text()
    for key, value in settings.items():
        text = re.sub(rf"(?m)^{re.escape(key)} = .*\n", "", text)
        text += f"{key} = {value}\n"
    project.write_text(text)
    out = tmp_path / "out"
    assert _run("run-all", "--config", str(project),
                "--out-dir", str(out)) == 3
    assert capsys.readouterr().err.splitlines()[-1] == f"codemap: {message}"
    assert not (out / "embeddings.txt").exists()


def test_divergent_training_prints_one_line(project, tmp_path):
    # numpy's overflow warnings used to print before the message, after
    # every remaining epoch ran on NaN tables
    text = re.sub(r"(?m)^train\.(lr0|epochs) = .*\n", "",
                  project.read_text())
    project.write_text(text + "train.lr0 = 1e3\ntrain.epochs = 30\n")
    out = tmp_path / "out"
    for stage in ("pair", "normalize", "align"):
        assert _run(stage, "--config", str(project),
                    "--out-dir", str(out)) == 0
    done = subprocess.run(
        [sys.executable, "-m", "codemap", "train", "--config", str(project),
         "--out-dir", str(out)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True)
    assert done.returncode == 3
    assert done.stderr == "codemap: non-finite values after training\n"
    assert not (out / "embeddings.txt").exists()


def test_align_without_streams_says_run_normalize(project, tmp_path,
                                                  capsys):
    out = tmp_path / "out"
    assert _run("pair", "--config", str(project),
                "--out-dir", str(out)) == 0
    assert _run("align", "--config", str(project),
                "--out-dir", str(out)) == 2
    assert "run normalize first" in capsys.readouterr().err


def test_compose_without_an_element_file_says_run_normalize(project,
                                                           tmp_path, capsys):
    out = tmp_path / "out"
    for stage in ("pair", "normalize", "align", "train"):
        assert _run(stage, "--config", str(project),
                    "--out-dir", str(out)) == 0
    missing = out / "elements.tsv"
    missing.unlink()
    assert _run("compose", "--config", str(project),
                "--out-dir", str(out)) == 2
    assert f"{missing} not found; run normalize first" in \
        capsys.readouterr().err
    assert not (out / "element_vecs.txt").exists()


def test_normalize_without_pairs_says_run_pair(project, tmp_path, capsys):
    out = tmp_path / "out"
    assert _run("normalize", "--config", str(project),
                "--out-dir", str(out)) == 2
    assert "run pair first" in capsys.readouterr().err


def test_eval_without_map_says_run_map(project, tmp_path, capsys):
    out = tmp_path / "out"
    assert _run("eval", "--config", str(project),
                "--out-dir", str(out)) == 2
    assert "run map first" in capsys.readouterr().err


def test_eval_without_truth_configured(project, tmp_path, capsys):
    config = project.parent / "no_truth.cfg"
    config.write_text(CONFIG.replace("retrieve.truth = truth.tsv\n", ""))
    out = tmp_path / "out"
    assert _run("eval", "--config", str(config),
                "--out-dir", str(out)) == 2
    assert "retrieve.truth" in capsys.readouterr().err


# the next four end inside a construct: the parser once crashed on three
# of them and built a decl with no initializer from the fourth; the last
# once put a string literal into the stream as a class name
@pytest.mark.parametrize("source", [
    'class Broken { String s = "unterminated; }\n',
    "class",
    "for (",
    'String s = "abc\\',
    "class A { int x = ",
    'class "a b" { }',
], ids=["unterminated_string", "ends_after_class", "ends_inside_for",
        "ends_after_escape", "ends_after_initializer_equals",
        "string_as_class_name"])
def test_unparseable_source_is_validation_error(project, tmp_path,
                                                capsys, source):
    (project.parent / "ja" / "Broken.java").write_text(source)
    (project.parent / "cs" / "Broken.cs").write_text(
        "namespace Mini { class Broken { } }\n")
    out = tmp_path / "out"
    assert _run("pair", "--config", str(project),
                "--out-dir", str(out)) == 0
    assert _run("normalize", "--config", str(project),
                "--out-dir", str(out)) == 3
    assert re.search(r"Broken\.java: .+ \(line \d+, column \d+\)",
                     capsys.readouterr().err)


@pytest.mark.parametrize("nested", ["{", "(", "try {"])
def test_deep_nesting_is_validation_error(project, tmp_path, capsys, nested):
    body = {"{": "{" * 400 + "}" * 400,
            "(": "{ return " + "(" * 600 + "1" + ")" * 600 + "; }",
            "try {": "{ try " + "{" * 600 + "}" * 600 + " catch (E e) { } }"}
    (project.parent / "ja" / "Deep.java").write_text(
        f"class Deep {{ int f() {body[nested]} }}\n")
    (project.parent / "cs" / "Deep.cs").write_text(
        "namespace Mini { class Deep { } }\n")
    assert _run("run-all", "--config", str(project),
                "--out-dir", str(tmp_path / "out")) == 3
    assert re.search(r"Deep\.java: nesting too deep \(line 1, column \d+\)",
                     capsys.readouterr().err)


def _corpus_bytes(out):
    """The bytes of each stream file and of the element table."""
    paths = [*(out / "streams").rglob("*.tok"), out / "elements.tsv"]
    return {path: path.read_bytes() for path in paths}


def test_failed_normalize_leaves_the_previous_corpus_whole(project,
                                                           tmp_path, capsys):
    out = tmp_path / "out"
    for stage in ("pair", "normalize"):
        assert _run(stage, "--config", str(project),
                    "--out-dir", str(out)) == 0
    corpus = _corpus_bytes(out)
    assert len(corpus) == 5  # four streams and the element table
    table = (out / "elements.tsv").read_bytes()
    # the first source changes, and a later one no longer parses: it ends
    # in an open string, or names a class with a string
    counter = project.parent / "ja" / "Counter.java"
    counter.write_text(JAVA_COUNTER.replace("private int total;",
                                            "private int total, spare;"))
    for broken in ('class Broken { string s = "unterminated; }\n',
                   'class "a b" { }\n'):
        (project.parent / "cs" / "Holder.cs").write_text(CSHARP_HOLDER
                                                         + broken)
        assert _run("normalize", "--config", str(project),
                    "--out-dir", str(out)) == 3
        assert "Holder.cs:" in capsys.readouterr().err
        assert _corpus_bytes(out) == corpus
        assert (out / "elements.tsv").read_bytes() == table


def test_source_that_is_not_utf8_names_file_and_line(project, tmp_path,
                                                    capsys):
    (project.parent / "ja" / "Latin.java").write_bytes(
        b'class Latin { String s = "caf\xe9"; }\n')
    (project.parent / "cs" / "Latin.cs").write_text(
        "namespace Mini { class Latin { } }\n")
    assert _run("run-all", "--config", str(project),
                "--out-dir", str(tmp_path / "out")) == 3
    assert "Latin.java:1:30: not UTF-8 (byte 0xe9)" in capsys.readouterr().err


def test_source_with_a_byte_order_mark_normalizes_as_without(project,
                                                          tmp_path):
    def tokens(out):
        assert _run("pair", "--config", str(project),
                    "--out-dir", str(out)) == 0
        assert _run("normalize", "--config", str(project),
                    "--out-dir", str(out)) == 0
        return {path.relative_to(out): read_stream(path)
                for path in (out / "streams").rglob("*.tok")}

    plain = tokens(tmp_path / "plain")
    for path in [*project.parent.glob("ja/*"), *project.parent.glob("cs/*")]:
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert len(plain) == 4 and tokens(tmp_path / "bom") == plain


def test_byte_after_a_byte_order_mark_that_is_not_utf8_names_its_column(
        project, tmp_path, capsys):
    (project.parent / "ja" / "Latin.java").write_bytes(
        b'\xef\xbb\xbfclass Latin { String s = "caf\xe9"; }\n')
    (project.parent / "cs" / "Latin.cs").write_text(
        "namespace Mini { class Latin { } }\n")
    assert _run("run-all", "--config", str(project),
                "--out-dir", str(tmp_path / "out")) == 3
    assert "Latin.java:1:30: not UTF-8 (byte 0xe9)" in capsys.readouterr().err


def test_bad_alignment_link_names_file_and_line(project, tmp_path,
                                                capsys):
    out = tmp_path / "out"
    for stage in ("pair", "normalize", "align"):
        assert _run(stage, "--config", str(project),
                    "--out-dir", str(out)) == 0
    path = out / "alignments.pharaoh"
    lines = path.read_text().splitlines()
    lineno = next(n for n, line in enumerate(lines, start=1)
                  if not line.startswith("#"))
    pair_id = lines[lineno - 1].split("\t")[0]
    lines[lineno - 1] = f"{pair_id}\t0-x"
    path.write_text("\n".join(lines) + "\n")
    assert _run("train", "--config", str(project),
                "--out-dir", str(out)) == 3
    assert f"alignments.pharaoh:{lineno}:" in capsys.readouterr().err


def test_repeated_alignment_link_is_refused(project, tmp_path, capsys):
    out = tmp_path / "out"
    for stage in ("pair", "normalize", "align"):
        assert _run(stage, "--config", str(project),
                    "--out-dir", str(out)) == 0
    path = out / "alignments.pharaoh"
    lines = path.read_text().splitlines()
    lineno = next(n for n, line in enumerate(lines, start=1)
                  if not line.startswith("#"))
    pair_id = lines[lineno - 1].split("\t")[0]
    lines[lineno - 1] = f"{pair_id}\t0-0 0-0"
    path.write_text("\n".join(lines) + "\n")
    assert _run("train", "--config", str(project),
                "--out-dir", str(out)) == 3
    assert f"alignments.pharaoh:{lineno}: duplicate link" in \
        capsys.readouterr().err


def test_repeated_alignment_pair_is_refused(project, tmp_path, capsys):
    out = tmp_path / "out"
    for stage in ("pair", "normalize", "align"):
        assert _run(stage, "--config", str(project),
                    "--out-dir", str(out)) == 0
    path = out / "alignments.pharaoh"
    lines = path.read_text().splitlines()
    lineno = next(n for n, line in enumerate(lines, start=1)
                  if not line.startswith("#"))
    lines.insert(lineno, lines[lineno - 1])
    path.write_text("\n".join(lines) + "\n")
    assert _run("train", "--config", str(project),
                "--out-dir", str(out)) == 3
    assert f"alignments.pharaoh:{lineno + 1}: duplicate pair" in \
        capsys.readouterr().err


@pytest.mark.parametrize("field, value", [(6, "99999"), (5, "-1")],
                         ids=["last_past_the_end", "negative_first"])
def test_element_range_outside_its_stream_is_refused(project, tmp_path,
                                                     capsys, field, value):
    out = tmp_path / "out"
    lineno = _edit_first_element(project, out, {field: value})
    assert _run("compose", "--config", str(project),
                "--out-dir", str(out)) == 3
    assert re.search(rf"elements\.tsv:{lineno}: tokens -?\d+-\d+ are "
                     r"outside the \d+-token stream",
                     capsys.readouterr().err)
    assert not (out / "element_vecs.txt").exists()


def test_reversed_element_range_names_its_line(project, tmp_path, capsys):
    out = tmp_path / "out"
    lineno = _edit_first_element(project, out, {5: "9", 6: "5"})
    assert _run("compose", "--config", str(project),
                "--out-dir", str(out)) == 3
    assert f"elements.tsv:{lineno}: token range 9-5 is empty" in \
        capsys.readouterr().err
    assert not (out / "element_vecs.txt").exists()


def test_element_row_of_an_unpaired_file_is_refused(project, tmp_path,
                                                    capsys):
    out = tmp_path / "out"
    lines = _edit_element_table(project, out, lambda lines: lines.append(
        "a\tGhost.java\tstatement\t0\t9\t0\t1\texpr_stmt"))
    assert _run("compose", "--config", str(project),
                "--out-dir", str(out)) == 3
    assert f"elements.tsv:{len(lines)}: a:Ghost.java is not a stream of " \
        "pairs.tsv; rerun normalize" in capsys.readouterr().err
    assert not (out / "element_vecs.txt").exists()


def test_element_rows_of_a_file_split_apart_are_refused(project, tmp_path,
                                                        capsys):
    out = tmp_path / "out"
    lines = _edit_element_table(project, out, lambda lines: lines.append(
        lines.pop(_first_counter_row(lines))))
    assert _run("compose", "--config", str(project),
                "--out-dir", str(out)) == 3
    assert f"elements.tsv:{len(lines)}: the rows of a:Counter.java are " \
        "out of place; rerun normalize" in capsys.readouterr().err
    assert not (out / "element_vecs.txt").exists()


def test_element_tokens_gather_as_a_loop_over_rows_would(project,
                                                          tmp_path):
    out = tmp_path / "out"
    _run_up_to_train(project, out)
    _, vocab = embed.load_embeddings(out / "embeddings.txt")
    ids, token_ids, offsets = cli._load_elements(out, vocab)
    table = read_elements(out / "elements.tsv")
    want_ids, want_tokens, want_offsets = [], [], [0]
    ordinals = Counter()
    for side, path, granularity, first, last in zip(
            table.side, table.path, table.granularity, table.first,
            table.last):
        tokens = read_stream(out / "streams" / side / f"{path}.tok")
        want_tokens += [vocab.ids.get(f"{side}:{token}", -1)
                        for token in tokens[first:last + 1]]
        want_offsets.append(len(want_tokens))
        want_ids.append(f"{side}:{path}:{granularity}:"
                        f"{ordinals[side, path, granularity]}")
        ordinals[side, path, granularity] += 1
    assert ids == want_ids
    assert token_ids.tolist() == want_tokens
    assert offsets.tolist() == want_offsets


def _run_up_to_train(project, out):
    for stage in ("pair", "normalize", "align", "train"):
        assert _run(stage, "--config", str(project),
                    "--out-dir", str(out)) == 0


def _edit_element_table(project, out, edit):
    """Run the stages up to train, then `edit` the lines of the element
    table in place; returns the edited lines."""
    _run_up_to_train(project, out)
    path = out / "elements.tsv"
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    return lines


def _first_counter_row(lines):
    return next(n for n, line in enumerate(lines)
                if line.startswith("a\tCounter.java\t"))


def _edit_first_element(project, out, changes):
    """Run the stages up to train, then overwrite fields of the first
    element table row of `Counter.java`; returns that row's line number."""
    def edit(lines):
        fields = lines[_first_counter_row(lines)].split("\t")
        for position, value in changes.items():
            fields[position] = value
        lines[_first_counter_row(lines)] = "\t".join(fields)
    return _first_counter_row(_edit_element_table(project, out, edit)) + 1


def test_alignments_from_another_chunking_are_refused(project, tmp_path,
                                                     capsys):
    short, long = project.parent / "short.cfg", project.parent / "long.cfg"
    for config, max_len in ((short, 12), (long, 60)):
        config.write_text(CONFIG.replace("align.max_len = 40",
                                         f"align.max_len = {max_len}"))
    out = tmp_path / "out"
    for stage in ("pair", "normalize", "align"):
        assert _run(stage, "--config", str(short),
                    "--out-dir", str(out)) == 0
    assert "#1\t" in (out / "alignments.pharaoh").read_text()
    assert _run("train", "--config", str(long), "--out-dir", str(out)) == 3
    assert re.search(r"alignments\.pharaoh: pair \S+: .*; rerun align",
                     capsys.readouterr().err)
    assert not (out / "embeddings.txt").exists()


def test_space_in_a_source_path_is_refused_at_compose(project, tmp_path,
                                                      capsys):
    root = project.parent
    (root / "ja" / "Counter.java").rename(root / "ja" / "My Counter.java")
    (root / "cs" / "Counter.cs").rename(root / "cs" / "My Counter.cs")
    config = root / "statement.cfg"
    config.write_text(CONFIG + "retrieve.granularity = statement\n")
    out = tmp_path / "out"
    assert _run("run-all", "--config", str(config),
                "--out-dir", str(out)) == 3
    err = capsys.readouterr().err
    assert "[train]" in err and "[compose]" not in err
    assert "element_vecs.txt: id 'a:My Counter.java:" in err
    assert not (out / "element_vecs.txt").exists()
    assert not list(out.glob(".*.tmp"))


def test_embeddings_of_width_zero_are_refused_at_compose(project, tmp_path,
                                                         capsys):
    out = tmp_path / "out"
    assert _run("run-all", "--config", str(project),
                "--out-dir", str(out)) == 0
    embeddings = out / "embeddings.txt"
    lines = embeddings.read_text().splitlines()
    header = next(k for k, line in enumerate(lines)
                  if not line.startswith("#"))
    rows = [line.split()[0] for line in lines[header + 1:]]
    embeddings.write_text("\n".join(lines[:header] + [f"{len(rows)} 0"]
                                    + rows) + "\n")
    capsys.readouterr()
    assert _run("compose", "--config", str(project),
                "--out-dir", str(out)) == 3
    assert f"embeddings.txt:{header + 1}: header" in capsys.readouterr().err


def test_align_summary_reports_em_log_likelihood(project, tmp_path,
                                                 capsys):
    out = tmp_path / "out"
    for stage in ("pair", "normalize", "align"):
        assert _run(stage, "--config", str(project),
                    "--out-dir", str(out)) == 0
    err = capsys.readouterr().err
    first, last = map(float, re.search(
        r"\[align\] .*, loglik (-?[\d.]+) -> (-?[\d.]+) \(", err).groups())
    assert first < 0.0 and last >= first


def test_train_summary_reports_sgns_loss(project, tmp_path, capsys):
    out = tmp_path / "out"
    for stage in ("pair", "normalize", "align", "train"):
        assert _run(stage, "--config", str(project),
                    "--out-dir", str(out)) == 0
    err = capsys.readouterr().err
    first, last = map(float, re.search(
        r"\[train\] .*, 3 epochs, loss ([\d.]+) -> ([\d.]+) \(",
        err).groups())
    # 2 negatives per context, each term log 2 at the zero output vectors
    assert 0.0 < last and 0.0 < first <= 3 * math.log(2)


def test_map_summary_counts_distinct_candidates(project, tmp_path, capsys):
    root = project.parent
    (root / "cs" / "Counter.cs").write_text(CSHARP_COUNTER.replace(
        "this.total = 0;", "this.total = 0;\n            this.total = 0;"))
    config = root / "statement.cfg"
    config.write_text(CONFIG + "retrieve.granularity = statement\n")
    out = tmp_path / "out"
    for stage in ("pair", "normalize", "align", "train", "compose"):
        assert _run(stage, "--config", str(config),
                    "--out-dir", str(out)) == 0
    assert _run("map", "--config", str(config), "--out-dir", str(out),
                "--k", "9") == 0
    assert re.search(r"\[map\] 8 statement queries \(a2b\) against "
                     r"9 candidates \(8 distinct\), top-9 \(",
                     capsys.readouterr().err)
    twins = ("b:Counter.cs:statement:2", "b:Counter.cs:statement:3")
    rankings = retrieve.read_rankings(out / "mappings" / "statement.tsv")
    for ranked in rankings.values():
        targets = [target for target, _ in ranked]
        first = targets.index(twins[0])
        assert targets[first + 1] == twins[1]
        assert ranked[first][1] == ranked[first + 1][1]


# ---------------------------------------------------------------------------
# pipeline behaviour


def test_run_all_writes_every_artifact(project, tmp_path, capsys):
    out = tmp_path / "out"
    assert _run("run-all", "--config", str(project),
                "--out-dir", str(out)) == 0
    for name in ("pairs.tsv", "alignments.pharaoh", "ttable.tsv",
                 "embeddings.txt", "element_vecs.txt",
                 "compose_skips.tsv", "mappings/token.tsv",
                 "report.tsv"):
        assert (out / name).exists(), name
    assert (out / "streams" / "a" / "Counter.java.tok").exists()
    assert (out / "elements.tsv").exists()
    err = capsys.readouterr().err
    for stage in ("pair", "normalize", "align", "train", "compose",
                  "map", "eval"):
        assert f"[{stage}]" in err
    links, density = re.search(r"\[align\] \d+ aligned chunks, (\d+) links "
                               r"\((\d\.\d\d) per target token\), ",
                               err).groups()
    targets = sum(len(read_stream(path))
                  for path in (out / "streams" / "b").glob("*.tok"))
    assert density == f"{int(links) / targets:.2f}" and int(links) > 0


def test_artifacts_carry_provenance_header(project, tmp_path):
    out = tmp_path / "out"
    assert _run("run-all", "--config", str(project),
                "--out-dir", str(out)) == 0
    for name in ("pairs.tsv", "alignments.pharaoh", "ttable.tsv",
                 "embeddings.txt", "element_vecs.txt", "report.tsv"):
        text = (out / name).read_text()
        comment = next(line for line in text.splitlines()
                       if line.startswith("# "))
        assert "codemap" in comment and "config=" in comment \
            and "seed=3" in comment, name


def test_seed_flag_reaches_provenance(project, tmp_path):
    out = tmp_path / "out"
    assert _run("pair", "--config", str(project), "--out-dir", str(out),
                "--seed", "123") == 0
    assert "seed=123" in (out / "pairs.tsv").read_text()


def test_map_k_flag_truncates(project, tmp_path):
    out = tmp_path / "out"
    assert _run("run-all", "--config", str(project),
                "--out-dir", str(out), "--k", "2") == 0
    rows = [line.split("\t") for line in
            (out / "mappings" / "token.tsv").read_text().splitlines()
            if line and not line.startswith("#")]
    per_query: dict = {}
    for row in rows:
        per_query.setdefault(row[0], []).append(row)
    assert per_query
    assert all(len(v) <= 2 for v in per_query.values())


def test_rerun_is_byte_identical(project, tmp_path):
    out_one = tmp_path / "one"
    out_two = tmp_path / "two"
    for out in (out_one, out_two):
        assert _run("run-all", "--config", str(project),
                    "--out-dir", str(out)) == 0
    for name in ("embeddings.txt", "element_vecs.txt", "report.tsv",
                 "alignments.pharaoh", "ttable.tsv"):
        assert (out_one / name).read_bytes() == \
            (out_two / name).read_bytes(), name


def test_demo_config_branches_rerun_byte_identical(tmp_path):
    """tf-idf weighting, union links, b2a queries and subsampling, which
    the demo config leaves off, end to end, twice."""
    overrides = {"align.symmetrization": "union", "train.epochs": "2",
                 "train.subsample": "1e-3", "compose.weighting": "tfidf",
                 "retrieve.side": "b2a"}
    lines = []
    for line in (DEMO / "config.txt").read_text().splitlines():
        key = line.partition("=")[0].strip()
        if key in ("project.root_a", "project.root_b"):
            line = f"{key} = {DEMO / line.partition('=')[2].strip()}"
        elif key == "retrieve.truth":
            continue
        lines.append(f"{key} = {overrides[key]}" if key in overrides
                     else line)
    config = tmp_path / "branches.cfg"
    config.write_text("\n".join(lines) + "\n")
    outs = [tmp_path / "one", tmp_path / "two"]
    for out in outs:
        assert _run("run-all", "--config", str(config),
                    "--out-dir", str(out)) == 0
    files = sorted(path.relative_to(outs[0])
                   for path in outs[0].rglob("*") if path.is_file())
    assert files == sorted(path.relative_to(outs[1])
                           for path in outs[1].rglob("*") if path.is_file())
    for name in files:
        assert (outs[0] / name).read_bytes() == \
            (outs[1] / name).read_bytes(), name
    assert hier.read_element_embeddings(
        outs[0] / "element_vecs.txt")[3] == "tfidf"
    queries = retrieve.read_rankings(outs[0] / "mappings" / "token.tsv")
    assert queries and all(query.startswith("b:") for query in queries)
    assert not (outs[0] / "report.tsv").exists()


def test_stage_rerun_is_idempotent(project, tmp_path):
    out = tmp_path / "out"
    assert _run("run-all", "--config", str(project),
                "--out-dir", str(out)) == 0
    first = (out / "embeddings.txt").read_bytes()
    assert _run("train", "--config", str(project),
                "--out-dir", str(out)) == 0
    assert (out / "embeddings.txt").read_bytes() == first


def test_diff_ref_flow(project, tmp_path, capsys):
    out = tmp_path / "out"
    assert _run("run-all", "--config", str(project),
                "--out-dir", str(out)) == 0
    rows = [line.split("\t") for line in
            (out / "mappings" / "token.tsv").read_text().splitlines()
            if line and not line.startswith("#")]
    top1 = {row[0]: row[2] for row in rows if row[1] == "1"}
    query, target = sorted(top1.items())[0]
    reference = project.parent / "reference.tsv"
    reference.write_text(f"{query}\t{target}\n"
                         f"a:never-seen\tb:whatever\n")
    config = project.parent / "with_ref.cfg"
    config.write_text(CONFIG + "retrieve.reference = reference.tsv\n")
    assert _run("diff-ref", "--config", str(config),
                "--out-dir", str(out)) == 0
    diff_text = (out / "diff.tsv").read_text()
    assert f"agreeing\t{query}\t{target}\t{target}" in diff_text
    assert "conflicting" not in diff_text


def test_eval_report_scores_identity_tokens(project, tmp_path):
    out = tmp_path / "out"
    assert _run("run-all", "--config", str(project),
                "--out-dir", str(out)) == 0
    report = (out / "report.tsv").read_text()
    assert "map@1\t" in report and "map@5\t" in report
    assert "p@1\t" in report


def test_tracer_sees_every_artifact_function(project, tmp_path):
    from perfbench.tracing import IO_FUNCTIONS, Tracer
    from perfbench.workloads import (config_value, corpus_properties,
                                     read_streams)

    class Recorder(Tracer):
        """Notes every span name it wraps, and which function each io span
        wrapped."""

        def __init__(self):
            super().__init__("test")
            self.names, self.io_functions = set(), set()

        def wrap(self, module, attr, name, before=None, after=None):
            self.names.add(name)
            super().wrap(module, attr, name, before, after)

        def call(self, name, fn, args, kwargs):
            if name.startswith("io."):
                self.io_functions.add(fn.__name__)
            return super().call(name, fn, args, kwargs)

    (project.parent / "reference.tsv").write_text("a:int\tb:int\n")
    config = project.parent / "with_ref.cfg"
    config.write_text(CONFIG + "retrieve.reference = reference.tsv\n")
    out = tmp_path / "out"
    tracer = Recorder()
    tracer.install()
    try:
        assert _run("run-all", "--config", str(config),
                    "--out-dir", str(out)) == 0
        written = tracer.counts["io.bytes_written"]
        # functions the pipeline never calls, on the run's own artifacts
        align.read_table(out / "ttable.tsv")
        composed = hier.read_element_embeddings(out / "element_vecs.txt")[0]
        skipped = hier.read_skips(out / "compose_skips.tsv")
        retrieve.read_report(out / "report.tsv")
        retrieve.write_truth(tmp_path / "truth.tsv",
                             retrieve.read_truth(project.parent /
                                                 "truth.tsv"))
    finally:
        tracer.uninstall()
    assert tracer.io_functions == {name for names in IO_FUNCTIONS.values()
                                   for name in names}
    spans = {span[0] for span in tracer.spans}
    assert {"io.read", "io.write"} <= spans
    # a traced name that never opens reads 0 in every per-layer metric
    assert {"align.viterbi", "align.symmetrize", "retrieve.rank"} <= \
        tracer.names
    assert {name for name in tracer.names
            if not name.startswith("io.")} <= spans
    # every artifact of the run went through a traced writer
    assert written == sum(p.stat().st_size for p in out.rglob("*")
                          if p.is_file()) > 0
    assert tracer.counts["io.bytes_read"] > 0
    # the counting hooks see what each traced function was given
    iterations, epochs, max_len, min_count = (
        int(config_value(config, key)) for key in (
            "align.iterations", "train.epochs", "align.max_len",
            "train.min_count"))
    props = corpus_properties(out, max_len)
    assert tracer.counts["align.em_iterations"] == 2 * iterations
    assert tracer.counts["align.em_cells"] == \
        iterations * props["em_cells_per_iteration"] > 0
    tagged = Counter(tag + token for pair in read_streams(out)
                     for tag, tokens in zip(("a:", "b:"), pair)
                     for token in tokens)
    kept = [count for count in tagged.values() if count >= min_count]
    assert tracer.counts["embed.vocab_size"] == len(kept) > 0
    assert tracer.counts["embed.train_tokens"] == epochs * sum(kept)
    assert tracer.counts["hier.elements"] == len(composed) > 0
    assert tracer.counts["hier.skipped"] == len(skipped)
