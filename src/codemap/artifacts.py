"""The text framing shared by every pipeline artifact.

An artifact is UTF-8 text, one record per line.  Lines starting with `#`
are comments (the provenance header) and blank lines carry nothing.
Writes go to a sibling temporary file that replaces the artifact only
once every line is written, so a failed stage leaves the previous
artifact in place and never a partial one.  A malformed record fails
with a `path:line:` message.

Vector files often repeat rows (elements with the same tokens compose
to the same vector).  A row is formatted on writing, and its value text
parsed on reading, at most twice: its second sight caches it, keyed
exactly.  Only a row whose hash was seen before is cached, so a file of
distinct rows holds no cache.
"""

from __future__ import annotations

import itertools
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


def read_text(path, name=None) -> str:
    """`path`'s UTF-8 text, as `open` reads it, without a leading byte-order
    mark: editors write one, and it is not text.

    A byte that is not UTF-8 fails as `name:line:col:` (`name` defaults
    to `path`), the column counting the characters before it on its line.
    """
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as err:  # read whole, so `object` is the file
        data, bad = err.object, err.start
        line = data.count(b"\n", 0, bad) + 1
        before = data[data.rfind(b"\n", 0, bad) + 1:bad]
        col = len(before.decode("utf-8-sig" if line == 1 else "utf-8")) + 1
        raise ValueError(f"{name or path}:{line}:{col}: not UTF-8 "
                         f"(byte 0x{data[bad]:02x})") from None


def record_lines(lines):
    """Yield (lineno, line) for each of `lines` (an open artifact, say)
    that is neither blank nor a comment, without its newline; the first
    of `lines` is line 1."""
    for lineno, line in enumerate(lines, start=1):
        if not line.startswith("#") and line.strip():
            yield lineno, line.rstrip("\n")


def records(path, fields=None, sep="\t"):
    """Yield (lineno, parts) for each line that is neither blank nor a
    comment, split on `sep` (None: any whitespace).

    With `fields` set, a line with another number of parts raises.
    """
    with open(path, encoding="utf-8") as handle:
        for lineno, line in record_lines(handle):
            parts = line.split(sep)
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


def check_field(path, what, text):
    """`text`, refused if it would not read back as one field."""
    if text.split() != [text]:
        raise ValueError(f"{path}: {what} {text!r} is empty or has whitespace")
    return text


def _floats(texts):
    return np.array(texts, dtype=np.float64)


def write_vectors(path, ids, matrix, comments=(), tag=None,
                  extras=None) -> None:
    """The vector format shared by embeddings and element vectors: header
    `<n> <d> [tag]`, then `id v1 ... vd [extra]` rows at 9 significant
    digits; the extra is one more column."""
    columns = matrix if extras is None else np.column_stack((matrix, extras))
    template = " ".join(["%.9g"] * columns.shape[1])

    def lines():
        yield " ".join(str(x) for x in (len(ids), matrix.shape[1], tag)
                       if x is not None)
        # a row is cached by its bytes (`%.9g` prints -0.0 as `-0`) once
        # its hash has been seen, so only rows that repeat are held
        formatted, seen = {}, set()
        for item, row in zip(ids, columns):
            key = row.tobytes()
            values = formatted.get(key)
            if values is None:
                values = template % tuple(row.tolist())
                if hash(key) in seen:
                    formatted[key] = values
                seen.add(hash(key))
            yield f"{check_field(path, 'id', item)} {values}"
    write_lines(path, lines(), comments)


def read_vectors(path, tags=None, extra=False):
    """Inverse of write_vectors: (ids, matrix, extras or None, tag).
    `tags` lists the allowed header tags, None for a header without.

    The value texts stream through one np.loadtxt, a repeated one at
    most twice.  If a row does not parse there, or the rows have another
    width, the file is read again row by row, which names the first
    malformed row's line."""
    with open(path, encoding="utf-8") as handle:
        rows = record_lines(handle)
        lineno, header = next(rows, (None, None))
        if header is None:
            raise ValueError(f"{path}: missing header")
        header = header.split()
        _expect_fields(path, lineno, header, 2 if tags is None else 3)
        size, dim = (field(path, lineno, int, text) for text in header[:2])
        if size < 0 or dim < 1:
            raise ValueError(f"{path}:{lineno}: header promises {size} "
                             f"rows of width {dim}; need rows >= 0 and "
                             "width >= 1")
        tag = None if tags is None else header[2]
        if tags is not None and tag not in tags:
            raise ValueError(f"{path}:{lineno}: header tag {tag!r} is not "
                             f"one of {', '.join(tags)}")
        ids, columns = _loaded(rows, dim + extra)
    if columns is None:
        rows = records(path, sep=None)
        next(rows)  # the header
        ids, values = [], []
        for lineno, parts in rows:
            _expect_fields(path, lineno, parts, dim + extra + 1)
            ids.append(parts[0])
            values.append(field(path, lineno, _floats, parts[1:]))
        columns = np.array(values)
    if len(ids) != size:
        raise ValueError(f"{path}: header promises {size} rows, "
                         f"found {len(ids)}")
    extras = columns[:, dim].tolist() if extra else None
    return ids, columns[:, :dim], extras, tag


def _loaded(rows, width):
    """(ids, values) of (lineno, `id v1 ... v<width>`) rows, the values
    as one matrix, or None if a row is malformed.  One np.loadtxt parses
    each value text at most twice; rows index back into file order."""
    ids, order, seen, repeated = [], [], set(), {}
    parsed = itertools.count()

    def values():
        for _, line in rows:
            item, text = line.split(None, 1)  # ValueError: no values
            ids.append(item)
            row = repeated.get(text)
            if row is None:  # parsed; cached once its hash has been seen
                row = next(parsed)
                if hash(text) in seen:
                    repeated[text] = row
                seen.add(hash(text))
                yield text
            order.append(row)
    texts = values()
    try:
        first = next(texts, None)
        if first is None:  # np.loadtxt would warn on no rows
            return ids, np.zeros((0, width))
        columns = np.loadtxt(itertools.chain([first], texts),
                             comments=None, ndmin=2)
    except ValueError:
        return ids, None
    return ids, columns[order] if columns.shape[1] == width else None
