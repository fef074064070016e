"""The shared artifact framing: line-numbered errors and atomic writes."""

import re
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from codemap import artifacts
from codemap.align import read_alignments, read_table
from codemap.corpus import read_pair_manifest
from codemap.embed import (EmbeddingTable, Vocabulary, load_embeddings,
                           save_embeddings)
from codemap.hier import read_element_embeddings, read_skips, write_skips
from codemap.retrieve import read_rankings, read_report
from codemap.syntax import read_elements, write_stream
from codemap.syntax.normalize import EnrichedTokenStream

# each file has one non-numeric field, on line 3
BAD_NUMBERS = {
    "link": (read_alignments, "p0\t0-0\np1\t0-0 1-x\n"),
    "probability": (read_table, "a\tb\t0.5\na\tc\thalf\n"),
    "similarity": (read_pair_manifest,
                   "x\tx.java\tx.cs\t1.0\ny\ty.java\ty.cs\thigh\n"),
    "element index": (read_elements,
                      "a\tA.java\tstatement\t0\t5\t0\t2\tdecl_stmt\n"
                      "a\tA.java\tstatement\t6\t9\t3\tx\tdecl_stmt\n"),
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
    with pytest.raises(ValueError, match=re.escape(
            f"{stream}: token 'a\\tb'")):
        write_stream(EnrichedTokenStream(["int", "a\tb"]), stream)
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


# a few distinct rows drawn again and again: a row repeats, or differs
# from another only in the sign of a zero
VALUES = st.sampled_from([0.0, -0.0, 1.0, 1 / 3, -2.5e-7, np.inf]) | \
    st.floats(width=64)
REPEATED_ROWS = st.integers(1, 3).flatmap(lambda dim: st.tuples(
    st.lists(st.lists(VALUES, min_size=dim, max_size=dim), min_size=1,
             max_size=4),
    st.lists(st.integers(0, 3), max_size=12), st.booleans()))


def _vector_file(directory, rows, picks, with_extras):
    """write_vectors of the picked rows, with the last value of each row
    as its extra when `with_extras`; returns (path, ids, matrix, extras)."""
    columns = np.array([rows[pick % len(rows)] for pick in picks],
                       dtype=np.float64).reshape(len(picks), len(rows[0]))
    if with_extras and columns.shape[1] < 2:
        with_extras = False
    matrix, extras = (columns[:, :-1], columns[:, -1].tolist()) \
        if with_extras else (columns, None)
    ids = [f"e{n}" for n in range(len(picks))]
    path = directory / "vectors.txt"
    artifacts.write_vectors(path, ids, matrix, comments=["provenance"],
                            tag="t", extras=extras)
    return path, ids, matrix, extras


@settings(max_examples=200, deadline=None)
@given(REPEATED_ROWS)
def test_vector_writer_equals_the_per_row_oracle(tmp_path_factory, case):
    rows, picks, with_extras = case
    path, ids, matrix, extras = _vector_file(
        tmp_path_factory.mktemp("w"), rows, picks, with_extras)
    columns = matrix if extras is None else \
        np.column_stack((matrix, extras))
    template = " ".join(["%.9g"] * columns.shape[1])
    expected = ["# provenance", f"{len(ids)} {matrix.shape[1]} t"] + [
        f"{item} {template % tuple(row)}" for item, row in zip(ids, columns)]
    assert path.read_text().splitlines() == expected


@settings(max_examples=200, deadline=None)
@given(REPEATED_ROWS)
def test_vector_reader_equals_row_by_row_parsing(tmp_path_factory, case):
    rows, picks, with_extras = case
    path, ids, _, extras = _vector_file(
        tmp_path_factory.mktemp("r"), rows, picks, with_extras)
    lines = path.read_text().splitlines()[2:]
    expected = np.array([[float(text) for text in line.split()[1:]]
                         for line in lines]).reshape(len(lines),
                                                     len(rows[0]))
    got_ids, matrix, got_extras, tag = artifacts.read_vectors(
        path, tags=("t",), extra=extras is not None)
    assert (got_ids, tag) == ([line.split()[0] for line in lines], "t")
    width = matrix.shape[1]
    assert matrix.tobytes() == expected[:, :width].copy().tobytes()
    if extras is None:
        assert got_extras is None and width == expected.shape[1]
    else:
        assert np.array_equal(got_extras, expected[:, width], equal_nan=True)


def test_vector_rows_that_differ_in_the_sign_of_zero_stay_apart(tmp_path):
    path = tmp_path / "vectors.txt"
    signs = [False, False, True, True, False, True]
    matrix = np.array([[-0.0 if sign else 0.0, 1.0] for sign in signs])
    artifacts.write_vectors(path, list("uvwxyz"), matrix)
    assert path.read_text().splitlines()[1:] == [
        f"{item} {'-0' if sign else '0'} 1"
        for item, sign in zip("uvwxyz", signs)]
    _, read, _, _ = artifacts.read_vectors(path)
    assert np.signbit(read[:, 0]).tolist() == signs


def test_malformed_vector_row_repeated_elsewhere_names_its_own_line(
        tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("# provenance\n5 2\nx 1 2\ny 1 2\nz 1 2\n"
                    "u 1 two\nv 1 two\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:6: ")):
        artifacts.read_vectors(path)
