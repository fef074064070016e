"""Workload inputs and their recorded properties.

Every generator is a pure function of the benchmark's seed argument; the
program under test only ever sees the files or lists made here.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

DEMO_CLASSES = ("Buffer", "Channel", "Config", "Decoder", "Encoder",
                "Logger", "Metrics", "Parser", "Scanner", "Session")

WHY = {
    "demo": "the shipped example and quality gate; train is about 98% of "
            "run-all, so a train change shows here and an align or "
            "retrieval change must not",
    "bitext-align": "long unchunked pairs make the EM E-step quadratic and "
                    "about all of the run; true links give a quality "
                    "measure; train and retrieval are absent",
    "scaled-map": "a x20 demo copy: 1,920 x 1,920 statement retrieval is "
                  "most of the run, with many exact-duplicate vectors; "
                  "set-up runs align and train on a different shape",
}

# bitext-align: the law of tests/conftest.py::make_bijective_corpus at a
# larger size
BITEXT_VOCAB = 500
BITEXT_PAIRS = 1000
BITEXT_MIN_LEN = 10
BITEXT_MAX_LEN = 40
BITEXT_WINDOW = 3
BITEXT_ITERATIONS = 10

SCALED_COPIES = 20


def make_bitext(seed):
    """Bijective-dictionary bitext with local reordering.

    Target order is a local shuffle of source order: position j gets sort
    key j + U(0, BITEXT_WINDOW).  Returns (bitext, true_links) where
    true_links[p] is the set of (i, j) links of pair p.
    """
    rng = np.random.default_rng(seed)
    sources = [f"s{k:03d}" for k in range(BITEXT_VOCAB)]
    targets = [f"t{k:03d}" for k in range(BITEXT_VOCAB)]
    bitext = []
    true_links = []
    for p in range(BITEXT_PAIRS):
        length = int(rng.integers(BITEXT_MIN_LEN, BITEXT_MAX_LEN + 1))
        ids = rng.integers(0, BITEXT_VOCAB, length)
        keys = np.arange(length) + rng.random(length) * BITEXT_WINDOW
        order = np.argsort(keys, kind="stable")  # order[j] = source position
        tokens_a = [sources[int(k)] for k in ids]
        tokens_b = [targets[int(ids[i])] for i in order]
        bitext.append((tokens_a, tokens_b, f"pair{p}"))
        true_links.append(frozenset((int(i), j)
                                    for j, i in enumerate(order)))
    return bitext, true_links


def bitext_properties(bitext):
    tokens_a = sum(len(a) for a, _, _ in bitext)
    tokens_b = sum(len(b) for _, b, _ in bitext)
    vocab_a = len({t for a, _, _ in bitext for t in a})
    vocab_b = len({t for _, b, _ in bitext for t in b})
    forward = sum((len(a) + 1) * len(b) for a, b, _ in bitext)
    backward = sum((len(b) + 1) * len(a) for a, b, _ in bitext)
    return {"pairs": len(bitext), "tokens": tokens_a + tokens_b,
            "tokens_a": tokens_a, "tokens_b": tokens_b,
            "vocabulary": vocab_a + vocab_b,
            "em_cells_per_iteration": forward + backward}


def scaled_copy_numbers(seed):
    """The seed picks which copy suffixes C000..C999 the project uses."""
    rng = np.random.default_rng(seed)
    return sorted(int(c) for c in rng.choice(1000, size=SCALED_COPIES,
                                             replace=False))


def make_scaled_project(seed, fixture_dir, dest):
    """Write a multi-copy demo project and its config under `dest`.

    Copy c appends `C<c:03d>` to the ten demo class names and file stems
    in both languages.  The config is the demo's with one training epoch,
    statement granularity and no truth file.  Returns the config path.
    """
    fixture_dir = Path(fixture_dir)
    dest = Path(dest)
    pattern = re.compile(r"\b(" + "|".join(DEMO_CLASSES) + r")\b")
    numbers = scaled_copy_numbers(seed)
    for lang_dir, ext in (("java", ".java"), ("csharp", ".cs")):
        out_dir = dest / lang_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        for source in sorted((fixture_dir / lang_dir).glob("*" + ext)):
            text = source.read_text(encoding="utf-8")
            for c in numbers:
                suffix = f"C{c:03d}"
                renamed = pattern.sub(lambda m: m.group(1) + suffix, text)
                (out_dir / f"{source.stem}{suffix}{ext}").write_text(
                    renamed, encoding="utf-8")
    config = dest / "config.txt"
    config.write_text(scaled_config_text(fixture_dir / "config.txt"),
                      encoding="utf-8")
    return config


def scaled_config_text(demo_config):
    overrides = {"train.epochs": "1", "retrieve.granularity": "statement"}
    lines = []
    for line in Path(demo_config).read_text(encoding="utf-8").splitlines():
        key = line.partition("=")[0].strip()
        if key == "retrieve.truth":
            continue
        if key in overrides:
            line = f"{key} = {overrides[key]}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def read_streams(out_dir):
    """(tokens_a, tokens_b) per file pair of a run's stream files."""
    out_dir = Path(out_dir)
    streams = []
    for line in (out_dir / "pairs.tsv").read_text(
            encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        _, path_a, path_b, _ = line.split("\t")
        streams.append((_stream_tokens(out_dir / "streams" / "a"
                                       / (path_a + ".tok")),
                        _stream_tokens(out_dir / "streams" / "b"
                                       / (path_b + ".tok"))))
    return streams


def _stream_tokens(path):
    body = [line for line in path.read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")]
    return body[0].split() if body else []


def corpus_properties(out_dir, max_len):
    """Pairs, tokens, vocabulary and E-step cells of a CLI run's corpus,
    chunked as the align stage chunks it."""
    from codemap.align import build_bitext
    streams = read_streams(out_dir)
    bitext = build_bitext([(a, b, str(n)) for n, (a, b)
                           in enumerate(streams)], max_len=max_len)
    props = bitext_properties(bitext)
    props.update({
        "pairs": len(streams),
        "chunks": len(bitext),
        "tokens": sum(len(a) + len(b) for a, b in streams),
        "vocabulary": len({"a:" + t for a, _ in streams for t in a}
                          | {"b:" + t for _, b in streams for t in b})})
    return props


def config_value(config_path, key):
    for line in Path(config_path).read_text(encoding="utf-8").splitlines():
        name, sep, value = line.partition("=")
        if sep and name.strip() == key:
            return value.split("#")[0].strip()
    raise KeyError(key)


def read_vectors(path, header_fields):
    """(ids, matrix) from an embeddings.txt (header_fields=2) or an
    element_vecs.txt (header_fields=3, trailing coverage column), parsed
    independently of the program."""
    ids, rows = [], []
    header_seen = False
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                header_seen = True
                if len(line.split()) != header_fields:
                    raise ValueError(f"{path}: bad header {line!r}")
                continue
            parts = line.split()
            ids.append(parts[0])
            values = parts[1:-1] if header_fields == 3 else parts[1:]
            rows.append([float(x) for x in values])
    return ids, np.array(rows, dtype=np.float64)


def granularity_rows(ids, matrix, granularity):
    keep = [r for r, i in enumerate(ids)
            if i.rsplit(":", 2)[1] == granularity]
    return [ids[r] for r in keep], matrix[keep]


def retrieval_properties(ids, matrix):
    """Queries, candidates, duplicate-vector share and largest tie group
    of one retrieval: `a:` ids query the `b:` side."""
    is_query = np.array([i.partition(":")[0] == "a" for i in ids],
                        dtype=bool)
    nonzero = np.any(matrix != 0.0, axis=1)
    candidates = matrix[~is_query & nonzero]
    queries = int((is_query & nonzero).sum())
    if len(candidates):
        _, inverse, counts = np.unique(candidates, axis=0,
                                       return_inverse=True,
                                       return_counts=True)
        dup_share = float((counts[inverse.ravel()] > 1).mean())
        largest = int(counts.max())
    else:
        dup_share, largest = 0.0, 0
    return {"queries": queries, "candidates": int(len(candidates)),
            "queries_x_candidates": queries * int(len(candidates)),
            "zero_queries": int((is_query & ~nonzero).sum()),
            "duplicate_vector_share": dup_share,
            "largest_tie_group": largest}
