"""Command-line pipeline driver.

Each subcommand reads its upstream artifacts from --out-dir and writes
its own, so stages can be rerun independently; `run-all` chains them.
Every artifact starts with a provenance comment (tool version, config
hash, seed).  Exit codes: 0 success, 1 usage, 2 I/O or missing
artifact, 3 data or validation failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, align, artifacts, corpus, embed, hier, retrieve
from .config import config_hash, parse_config, provenance
from .syntax import (ParseError, build_symbols, element_ids, extract_elements,
                     id_granularity, normalize, parse, read_elements,
                     read_stream, write_elements, write_stream)


class MissingArtifact(Exception):
    """An upstream stage's output is absent."""


def _require(path, stage):
    if not os.path.exists(path):
        raise MissingArtifact(f"{path} not found; run {stage} first")
    return path


def _summary(stage, text, t0):
    print(f"[{stage}] {text} ({time.perf_counter() - t0:.2f}s)",
          file=sys.stderr)


def _stream_path(out_dir, side, relpath):
    return out_dir / "streams" / side / (relpath + ".tok")


# ---------------------------------------------------------------------------
# stages


def stage_pair(cfg, out_dir, prov):
    t0 = time.perf_counter()
    pairs = corpus.pair_files(cfg.manifest, cfg.threshold)
    corpus.write_pair_manifest(pairs, out_dir / "pairs.tsv",
                               comments=(prov,))
    _summary("pair", f"{len(pairs)} file pairs at threshold "
             f"{cfg.threshold}", t0)
    return pairs


def stage_normalize(cfg, out_dir, prov):
    """Every source parses before any artifact is written, so a source
    that fails leaves the previous corpus whole."""
    t0 = time.perf_counter()
    pairs = corpus.read_pair_manifest(_require(out_dir / "pairs.tsv",
                                               "pair"))
    sides = (("a", cfg.manifest.lang_a_root, cfg.manifest.lang_a),
             ("b", cfg.manifest.lang_b_root, cfg.manifest.lang_b))
    normalized = []
    for pair in pairs:
        for side, root, lang in sides:
            relpath = pair.path_a if side == "a" else pair.path_b
            source = artifacts.read_text(Path(root, relpath), relpath)
            try:
                unit = parse(source, lang)
            except ParseError as err:
                raise ValueError(f"{relpath}: {err}") from None
            stream = normalize(unit, build_symbols(unit))
            normalized.append((side, relpath, stream,
                               extract_elements(unit, stream)))
    for side, relpath, stream, _ in normalized:
        write_stream(stream, _stream_path(out_dir, side, relpath),
                     comments=(prov,))
    write_elements(((side, relpath, *row) for side, relpath, _, rows
                    in normalized for row in rows),
                   out_dir / "elements.tsv", comments=(prov,))
    n_tokens = sum(len(stream.tokens) for _, _, stream, _ in normalized)
    _summary("normalize", f"{2 * len(pairs)} files, {n_tokens} tokens",
             t0)


def _streams(out_dir):
    """(side, source path, tokens) per stream file, a then b of each pair."""
    pairs = corpus.read_pair_manifest(_require(out_dir / "pairs.tsv",
                                               "pair"))
    for pair in pairs:
        for side, relpath in (("a", pair.path_a), ("b", pair.path_b)):
            path = _require(_stream_path(out_dir, side, relpath),
                            "normalize")
            yield side, relpath, read_stream(path)


def _read_bitext(cfg, out_dir):
    """The stream files' token pairs, chunked to the configured maximum
    length, as one integer index."""
    streams = _streams(out_dir)  # side a, then side b, of each pair
    raw = [(tokens_a, tokens_b, path_a) for (_, path_a, tokens_a),
           (_, _, tokens_b) in zip(streams, streams)]
    return align.Bitext(align.build_bitext(raw, max_len=cfg.align_max_len))


def stage_align(cfg, out_dir, prov):
    t0 = time.perf_counter()
    bitext = _read_bitext(cfg, out_dir)
    if not bitext:
        raise ValueError("no non-empty stream pairs; nothing to align")
    history = []
    links, table = align.align_bitext(
        bitext, iterations=cfg.align_iterations, mode=cfg.symmetrization,
        log_likelihoods=history)
    align.write_alignments(links, out_dir / "alignments.pharaoh",
                           comments=(prov,))
    align.write_table(table, out_dir / "ttable.tsv", comments=(prov,))
    n_links = sum(len(s.links) for s in links)
    density = n_links / int(bitext.offsets[1][-1])
    _summary("align", f"{len(bitext)} aligned chunks, {n_links} links "
             f"({density:.2f} per target token), "
             f"{cfg.align_iterations} EM iterations, loglik "
             f"{history[0]:.1f} -> {history[-1]:.1f}", t0)


def stage_train(cfg, out_dir, prov):
    t0 = time.perf_counter()
    bitext = _read_bitext(cfg, out_dir)
    path = _require(out_dir / "alignments.pharaoh", "align")
    links = align.read_alignments(path)
    vocab = embed.vocab_from_bitext(bitext, cfg.train.min_count)
    losses = []
    try:
        table = embed.train_biskip(bitext, links, cfg.train, vocab=vocab,
                                   losses=losses)
    except align.StaleLinks as err:
        raise ValueError(f"{path}: {err}") from None
    embed.save_embeddings(table, vocab, out_dir / "embeddings.txt",
                          comments=(prov,))
    loss = f", loss {losses[0]:.3f} -> {losses[-1]:.3f}" if losses else ""
    _summary("train", f"{len(vocab)} vocabulary entries, dim "
             f"{cfg.train.dim}, {cfg.train.epochs} epochs{loss}", t0)


def _load_elements(out_dir, vocab):
    """Every row of the element table as (element ids, the vocabulary
    ids of their tokens flat, -1 where out of vocabulary, element
    offsets).  Each stream's rows must be one run, in stream order."""
    path = _require(out_dir / "elements.tsv", "normalize")
    table = read_elements(path)
    side_ids = {"a": {}, "b": {}}  # side -> {untagged token: id}
    for token, token_id in vocab.ids.items():
        side, _, text = token.partition(":")
        side_ids.setdefault(side, {})[text] = token_id
    streams, stream_ids = {}, []  # (side, path) -> (offset, size)
    for side, relpath, tokens in _streams(out_dir):
        streams[side, relpath] = len(stream_ids), len(tokens)
        ids = side_ids[side]
        stream_ids += [ids.get(token, -1) for token in tokens]
    base, size = np.array([streams.get(key, (-1, 0)) for key in zip(
        table.side, table.path)], dtype=np.intp).reshape(-1, 2).T
    first, last = table.first, table.last
    for failing, problem in (  # rows in stream order never go back
            (base < 0, "{file} is not a stream of pairs.tsv; rerun normalize"),
            (np.diff(base, prepend=0) < 0, "the rows of {file} are out of "
             "place; rerun normalize"),
            ((first < 0) | (last >= size), "tokens {first}-{last} are "
             "outside the {size}-token stream")):
        if failing.any():
            row = int(np.argmax(failing))  # the first failing row
            raise ValueError(f"{path}:{table.line[row]}: " + problem.format(
                file=f"{table.side[row]}:{table.path[row]}", size=size[row],
                first=first[row], last=last[row]))
    lengths = last - first + 1
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    gather = np.repeat(base + first - offsets[:-1], lengths)
    gather += np.arange(len(gather))  # in place: one array fewer at peak
    return (element_ids(table.side, table.path, table.granularity),
            np.array(stream_ids, dtype=np.intp)[gather], offsets)


def stage_compose(cfg, out_dir, prov):
    t0 = time.perf_counter()
    table, vocab = embed.load_embeddings(
        _require(out_dir / "embeddings.txt", "train"))
    element_ids, token_ids, offsets = _load_elements(out_dir, vocab)
    idf = None
    if cfg.weighting == "tfidf":
        idf = hier.build_idf(token_ids, offsets, len(vocab))
    ids, matrix, coverages, skipped = hier.compose_corpus(
        element_ids, token_ids, offsets, table.input_vecs, cfg.weighting,
        idf)
    hier.write_element_embeddings(out_dir / "element_vecs.txt", ids,
                                  matrix, coverages, cfg.weighting,
                                  comments=(prov,))
    hier.write_skips(out_dir / "compose_skips.tsv", skipped,
                     comments=(prov,))
    _summary("compose", f"{len(ids)} elements embedded "
             f"({cfg.weighting}), {len(skipped)} skipped", t0)


def stage_map(cfg, out_dir, prov):
    t0 = time.perf_counter()
    if cfg.granularity == "token":
        table, vocab = embed.load_embeddings(
            _require(out_dir / "embeddings.txt", "train"))
        ids = list(vocab.tokens)
        matrix = table.input_vecs
    else:
        all_ids, matrix, _, _ = hier.read_element_embeddings(
            _require(out_dir / "element_vecs.txt", "compose"))
        keep = [row for row, element_id in enumerate(all_ids)
                if id_granularity(element_id) == cfg.granularity]
        ids = [all_ids[row] for row in keep]
        matrix = matrix[keep]
    on_query_side = np.array([retrieve.element_side(i) == cfg.side[0]
                              for i in ids], dtype=bool)
    nonzero = np.any(matrix != 0, axis=1)
    queries = [retrieve.Query(ids[row], matrix[row], cfg.side, cfg.k)
               for row in np.flatnonzero(on_query_side & nonzero).tolist()]
    zero_skipped = int(np.count_nonzero(on_query_side & ~nonzero))
    is_candidate = ~on_query_side & nonzero
    rankings, distinct = retrieve.run_queries(queries, ids, matrix)
    if not queries:  # nothing ranked, but the summary counts candidates
        distinct = len(retrieve.distinct_rows(matrix[is_candidate])[0])
    retrieve.write_rankings(out_dir / "mappings" / f"{cfg.granularity}.tsv",
                            rankings, comments=(prov,))
    note = f", {zero_skipped} zero-vector queries skipped" \
        if zero_skipped else ""
    _summary("map", f"{len(queries)} {cfg.granularity} queries ({cfg.side}) "
             f"against {np.count_nonzero(is_candidate)} candidates "
             f"({distinct} distinct), top-{cfg.k}{note}", t0)
    return rankings


def stage_eval(cfg, out_dir, prov):
    t0 = time.perf_counter()
    if cfg.truth is None:
        raise MissingArtifact("no retrieve.truth configured; nothing to "
                              "evaluate")
    rankings = retrieve.read_rankings(
        _require(out_dir / "mappings" / f"{cfg.granularity}.tsv", "map"))
    truth = retrieve.read_truth(_require(cfg.truth, "nothing (supply the "
                                         "ground-truth file)"))
    report = retrieve.evaluate_map(rankings, truth, cfg.ks)
    retrieve.write_report(out_dir / "report.tsv", report,
                          comments=(prov,))
    metrics = " ".join(f"map@{k}={report.map_at_k[k]:.3f}"
                       for k in sorted(report.map_at_k))
    _summary("eval", f"{report.n_queries} queries, {metrics}, "
             f"p@1={report.precision_at_1:.3f}", t0)
    return report


def stage_diff_ref(cfg, out_dir, prov):
    t0 = time.perf_counter()
    if cfg.reference is None:
        raise MissingArtifact("no retrieve.reference configured; nothing "
                              "to compare")
    rankings = retrieve.read_rankings(
        _require(out_dir / "mappings" / f"{cfg.granularity}.tsv", "map"))
    reference = retrieve.read_reference(
        _require(cfg.reference, "nothing (supply the reference file)"))
    diff = retrieve.diff_reference(rankings, reference)
    retrieve.write_diff(out_dir / "diff.tsv", diff, comments=(prov,))
    _summary("diff-ref", f"{len(diff['new'])} new, "
             f"{len(diff['agreeing'])} agreeing, "
             f"{len(diff['conflicting'])} conflicting", t0)
    return diff


def run_all(cfg, out_dir, prov):
    stage_pair(cfg, out_dir, prov)
    stage_normalize(cfg, out_dir, prov)
    stage_align(cfg, out_dir, prov)
    stage_train(cfg, out_dir, prov)
    stage_compose(cfg, out_dir, prov)
    stage_map(cfg, out_dir, prov)
    if cfg.truth is not None:
        stage_eval(cfg, out_dir, prov)
    if cfg.reference is not None:
        stage_diff_ref(cfg, out_dir, prov)


# ---------------------------------------------------------------------------
# argument handling


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


SUBCOMMANDS = ("pair", "normalize", "align", "train", "compose", "map",
               "eval", "diff-ref", "run-all")


def _build_parser():
    parser = _Parser(prog="codemap",
                     description="Cross-language code mapping pipeline.")
    parser.add_argument("--version", action="version",
                        version=f"codemap {__version__}")
    commands = parser.add_subparsers(dest="command", required=True,
                                     parser_class=_Parser)
    for name in SUBCOMMANDS:
        sub = commands.add_parser(name)
        sub.add_argument("--config", required=True,
                         help="pipeline config file")
        sub.add_argument("--out-dir", default="codemap-out",
                         help="artifact directory (default codemap-out)")
        sub.add_argument("--seed", type=int, default=None,
                         help="override train.seed")
        sub.add_argument("--k", type=int, default=None,
                         help="override retrieve.k for map")
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as status:
        return status.code if isinstance(status.code, int) else 0
    try:
        cfg = parse_config(args.config, seed=args.seed)
        prov = provenance(config_hash(args.config), cfg.train.seed)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.k is not None:
            if args.k < 1:
                raise ValueError("--k must be at least 1")
            cfg.k = args.k
        # looked up per call, so a stage wrapped after import still runs
        stages = {
            "pair": stage_pair, "normalize": stage_normalize,
            "align": stage_align, "train": stage_train,
            "compose": stage_compose, "map": stage_map,
            "eval": stage_eval, "diff-ref": stage_diff_ref,
            "run-all": run_all,
        }
        stages[args.command](cfg, out_dir, prov)
    except (MissingArtifact, OSError) as err:
        print(f"codemap: {err}", file=sys.stderr)
        return 2
    except (ValueError, ParseError, FloatingPointError) as err:
        print(f"codemap: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
