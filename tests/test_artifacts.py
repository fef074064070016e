"""The shared artifact framing: line-numbered errors and atomic writes."""

import re
import stat

import pytest

import numpy as np

from codemap import artifacts
from codemap.align import read_alignments, read_table
from codemap.corpus import read_pair_manifest
from codemap.embed import (EmbeddingTable, Vocabulary, load_embeddings,
                           save_embeddings)
from codemap.hier import read_element_embeddings, read_skips, write_skips
from codemap.retrieve import read_rankings, read_report
from codemap.syntax import read_elements, write_stream
from codemap.syntax.normalize import EnrichedToken, EnrichedTokenStream

# each file has one non-numeric field, on line 3
BAD_NUMBERS = {
    "link": (read_alignments, "p0\t0-0\np1\t0-0 1-x\n"),
    "probability": (read_table, "a\tb\t0.5\na\tc\thalf\n"),
    "similarity": (read_pair_manifest,
                   "x\tx.java\tx.cs\t1.0\ny\ty.java\ty.cs\thigh\n"),
    "element index": (read_elements, "statement\t0\t5\t0\t2\tdecl_stmt\n"
                                     "statement\t6\t9\t3\tx\tdecl_stmt\n"),
    "rank": (read_rankings, "a:q\t1\tb:x\t0.5\na:q\tsecond\tb:y\t0.4\n"),
    "report value": (read_report, "map@1\t0.5\np@1\tgood\n"),
    "embedding value": (load_embeddings, "1 2\na:y 1 y\n"),
    "coverage": (read_element_embeddings,
                 "1 2 uniform\ne1 1 2 full\n"),
}


@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_bad_number_names_its_line(tmp_path, case):
    reader, body = BAD_NUMBERS[case]
    path = tmp_path / "artifact"
    path.write_text("# provenance\n" + body)
    with pytest.raises(ValueError, match=re.escape(f"{path}:3:")):
        reader(path)


def test_failed_write_keeps_previous_artifact(tmp_path):
    out = tmp_path / "compose_skips.tsv"
    write_skips(out, ["e1", "e2"], comments=["first run"])
    before = out.read_bytes()

    def crashing():
        yield "e3"
        raise RuntimeError("stage crashed mid-write")

    with pytest.raises(RuntimeError):
        write_skips(out, crashing(), comments=["second run"])
    assert out.read_bytes() == before
    assert read_skips(out) == ["e1", "e2"]
    assert [p.name for p in tmp_path.iterdir()] == [out.name]

    plain = tmp_path / "plain"
    with open(plain, "w", encoding="utf-8"):
        pass
    assert stat.S_IMODE(out.stat().st_mode) == \
        stat.S_IMODE(plain.stat().st_mode)


def test_whitespace_in_a_space_delimited_field_is_refused(tmp_path):
    vectors = tmp_path / "embeddings.txt"
    with pytest.raises(ValueError, match=re.escape(
            f"{vectors}: id 'a:two words'")):
        save_embeddings(EmbeddingTable(np.ones((2, 2)), np.zeros((2, 2))),
                        Vocabulary(["a:one", "a:two words"]),
                        vectors)
    stream = tmp_path / "x.tok"
    tokens = [EnrichedToken("int", "primitive", 0, 3),
              EnrichedToken("a\tb", "literal_kind", 4, 7)]
    with pytest.raises(ValueError, match=re.escape(
            f"{stream}: token 'a\\tb'")):
        write_stream(EnrichedTokenStream("x.java", "java", tokens), stream)
    assert list(tmp_path.iterdir()) == []


def test_vector_rows_print_each_value_at_nine_digits(tmp_path):
    vector = [1 / 3, -0.0, 1e-300, 123456789012.0, -2.5e-7, np.inf, np.nan]
    path = tmp_path / "vectors.txt"
    artifacts.write_vectors(path, ["x"], np.array([vector]), extras=[0.5])
    assert path.read_text().splitlines() == [
        "1 7", "x " + " ".join(f"{x:.9g}" for x in vector) + " 0.5"]


def test_vector_rows_split_on_any_whitespace(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("# provenance\n2 2\nx\t1.5  -2\n\ny   inf\tnan  \n")
    ids, matrix, extras, tag = artifacts.read_vectors(path)
    assert (ids, extras, tag) == (["x", "y"], None, None)
    assert matrix[0].tolist() == [1.5, -2.0]
    assert matrix[1, 0] == np.inf and np.isnan(matrix[1, 1])


@pytest.mark.parametrize("body,error", [
    ("x 1 2\ny 1\n", ":4: expected 3 fields, got 2"),
    ("x 1 2\ny\n", ":4: expected 3 fields, got 1"),
    ("x 1 2\ny 1 2 3\n", ":4: expected 3 fields, got 4"),
    ("x 1 2 3\ny 1 2 3\n", ":3: expected 3 fields, got 4"),
], ids=["missing value", "no values", "extra value", "every row extra"])
def test_vector_row_of_another_width_names_its_line(tmp_path, body, error):
    path = tmp_path / "vectors.txt"
    # the header also promises a row too many: the row is named first
    path.write_text("# provenance\n3 2\n" + body)
    with pytest.raises(ValueError, match=re.escape(f"{path}{error}")):
        artifacts.read_vectors(path)


@pytest.mark.parametrize("header,body", [
    ("2 0", "x\ny\n"), ("0 0", ""), ("1 -1", "x\n"), ("-1 2", ""),
], ids=["width 0", "empty, width 0", "negative width", "negative rows"])
def test_vector_header_below_its_bounds_names_the_header(tmp_path, header,
                                                         body):
    path = tmp_path / "vectors.txt"
    path.write_text(f"# provenance\n{header}\n{body}")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: header")):
        artifacts.read_vectors(path)


def test_vector_file_of_no_rows_keeps_its_width(tmp_path):
    path = tmp_path / "vectors.txt"
    artifacts.write_vectors(path, [], np.zeros((0, 3)))
    assert path.read_text() == "0 3\n"
    ids, matrix, _, _ = artifacts.read_vectors(path)
    assert ids == [] and matrix.shape == (0, 3)
