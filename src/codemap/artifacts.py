"""The text framing shared by every pipeline artifact.

An artifact is UTF-8 text, one record per line.  Lines starting with `#`
are comments (the provenance header) and blank lines carry nothing.
Writes go to a sibling temporary file that replaces the artifact only
once every line is written, so a failed stage leaves the previous
artifact in place and never a partial one.  A malformed record fails
with a `path:line:` message.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np


def write_lines(path, lines, comments=()) -> None:
    """Write `# comment` lines, then `lines`, consumed one at a time.

    The parent directory is created if missing.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.writelines(f"# {comment}\n" for comment in comments)
            handle.writelines(f"{line}\n" for line in lines)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def first_line(path) -> str:
    """The artifact's first line, comment or not, without its newline."""
    with open(path, encoding="utf-8") as handle:
        return handle.readline().rstrip("\n")


def records(path, fields=None, sep="\t"):
    """Yield (lineno, parts) for each line that is neither blank nor a
    comment, split on `sep` (None: any whitespace).

    With `fields` set, a line with another number of parts raises.
    """
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.startswith("#") or not line.strip():
                continue
            parts = line.rstrip("\n").split(sep)
            if fields is not None:
                _expect_fields(path, lineno, parts, fields)
            yield lineno, parts


def field(path, lineno, convert, text):
    """`convert(text)`, with a ValueError naming `path:lineno`."""
    try:
        return convert(text)
    except ValueError as err:
        raise ValueError(f"{path}:{lineno}: {err}") from None


def _expect_fields(path, lineno, parts, fields):
    if len(parts) != fields:
        raise ValueError(f"{path}:{lineno}: expected {fields} fields, "
                         f"got {len(parts)}")


def _floats(texts):
    return np.array(texts, dtype=np.float64)


def write_vectors(path, ids, matrix, comments=(), tag=None,
                  extras=None) -> None:
    """The vector format shared by embeddings and element vectors: header
    `<n> <d> [tag]`, then `id v1 ... vd [extra]` rows at 9 significant
    digits."""
    def lines():
        yield " ".join(str(x) for x in (len(ids), matrix.shape[1], tag)
                       if x is not None)
        for row, (item, vector) in enumerate(zip(ids, matrix)):
            values = " ".join(f"{x:.9g}" for x in vector)
            extra = "" if extras is None else f" {extras[row]:.9g}"
            yield f"{item} {values}{extra}"
    write_lines(path, lines(), comments)


def read_vectors(path, tags=None, extra=False):
    """Inverse of write_vectors: (ids, matrix, extras or None, tag).
    `tags` lists the allowed header tags, None for a header without."""
    rows = records(path, sep=None)
    lineno, header = next(rows, (None, None))
    if header is None:
        raise ValueError(f"{path}: missing header")
    _expect_fields(path, lineno, header, 2 if tags is None else 3)
    size, dim = (field(path, lineno, int, text) for text in header[:2])
    tag = None if tags is None else header[2]
    if tags is not None and tag not in tags:
        raise ValueError(f"{path}:{lineno}: header tag {tag!r} is not one "
                         f"of {', '.join(tags)}")
    ids, vectors, extras = [], [], []
    for lineno, parts in rows:
        _expect_fields(path, lineno, parts, dim + 1 + extra)
        ids.append(parts[0])
        vectors.append(field(path, lineno, _floats, parts[1:dim + 1]))
        if extra:
            extras.append(field(path, lineno, float, parts[-1]))
    if len(ids) != size:
        raise ValueError(f"{path}: header promises {size} rows, "
                         f"found {len(ids)}")
    matrix = np.array(vectors) if vectors else np.zeros((0, dim))
    return ids, matrix, extras if extra else None, tag
