"""Spans and counts recorded around calls into the program's layers.

The program itself carries no tracing.  `Tracer.install` replaces each
traced public function with a wrapper at the name its caller looks up, so
the CLI's by-name imports from `codemap.syntax` are patched in
`codemap.cli` and module-qualified calls such as `align.align_bitext` are
patched in their own module.  Spans stay in memory until the run ends.

The hooks that count work (vocabulary lookups, duplicate vectors, file
sizes) run inside the caller's span.  Their time is recorded on every open
span and taken out of its duration, so span times are the program's own.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict

STAGES = ("pair", "normalize", "align", "train", "compose", "map", "eval")

IO_FUNCTIONS = {
    "cli": ("read_elements", "read_stream", "write_elements",
            "write_stream"),
    "corpus": ("read_pair_manifest", "write_pair_manifest"),
    "align": ("read_alignments", "write_alignments", "read_table",
              "write_table"),
    "embed": ("load_embeddings", "save_embeddings"),
    "hier": ("read_element_embeddings", "write_element_embeddings",
             "read_skips", "write_skips"),
    "retrieve": ("read_rankings", "write_rankings", "read_truth",
                 "write_truth", "read_report", "write_report",
                 "read_reference", "write_diff"),
}


class Tracer:
    """In-memory spans (name, start, end, parent index, run id, hook
    seconds) and counts for one traced run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = defaultdict(int)
        self._open = []
        self._patched = []

    def call(self, name, fn, args, kwargs):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.run_id, 0.0])
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def hook_time(self, started):
        """Charge the time since `started` to hooks, not to the spans
        open now."""
        elapsed = time.perf_counter() - started
        for index in self._open:
            self.spans[index][5] += elapsed

    def wrap(self, module, attr, name, before=None, after=None):
        """Patch `module.attr` with a span named `name`.

        `before(bound_args)` and `after(bound_args, result)` record counts
        outside the span's own interval, and their time is taken out of
        the enclosing spans.
        """
        fn = getattr(module, attr)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not (before or after):
                return self.call(name, fn, args, kwargs)
            started = time.perf_counter()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            bound = bound.arguments
            if before:
                before(bound)
            self.hook_time(started)
            result = self.call(name, fn, args, kwargs)
            if after:
                started = time.perf_counter()
                after(bound, result)
                self.hook_time(started)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, fn))

    def install(self):
        """Wrap every traced function of the program."""
        import numpy as np
        from codemap import align, cli, corpus, embed, hier, retrieve

        counts = self.counts
        modules = {"cli": cli, "corpus": corpus, "align": align,
                   "embed": embed, "hier": hier, "retrieve": retrieve}

        for stage in STAGES:
            self.wrap(cli, f"stage_{stage}", f"cli.{stage}")

        def pairs_done(_, result):
            counts["corpus.pairs"] += len(result)
        self.wrap(corpus, "pair_files", "corpus.pair", after=pairs_done)

        def tokens_done(_, stream):
            counts["syntax.tokens"] += len(stream.tokens)
        self.wrap(cli, "parse", "syntax.parse")
        self.wrap(cli, "build_symbols", "syntax.normalize")
        self.wrap(cli, "normalize", "syntax.normalize", after=tokens_done)
        self.wrap(cli, "extract_elements", "syntax.extract")

        def em_cells(bound):
            iterations = bound["iterations"]
            counts["align.em_iterations"] += iterations
            counts["align.em_cells"] += iterations * sum(
                (len(a) + 1) * len(b) for a, b, _ in bound["bitext"])

        def links_done(bound, result):
            link_sets, _ = result
            counts["align.links"] += sum(len(s.links) for s in link_sets)
            counts["align.target_tokens"] += sum(len(b) for _, b, _
                                                 in bound["bitext"])
        self.wrap(align, "align_bitext", "align.align", after=links_done)
        self.wrap(align, "train_model1", "align.em", before=em_cells)
        self.wrap(align, "viterbi_align", "align.viterbi")
        self.wrap(align, "symmetrize", "align.symmetrize")

        def vocab_done(_, vocab):
            counts["embed.vocab_size"] += len(vocab)

        def train_tokens(bound):
            vocab = bound["vocab"]
            if vocab is None:
                return
            in_vocab = sum(sum(1 for t in a if "a:" + t in vocab)
                           + sum(1 for t in b if "b:" + t in vocab)
                           for a, b, _ in bound["bitext"])
            counts["embed.train_tokens"] += bound["cfg"].epochs * in_vocab
        self.wrap(embed, "vocab_from_bitext", "embed.vocab", after=vocab_done)
        self.wrap(embed, "train_biskip", "embed.train", before=train_tokens)

        def composed(_, result):
            ids, _, _, skipped = result
            counts["hier.elements"] += len(ids)
            counts["hier.skipped"] += len(skipped)
        self.wrap(hier, "compose_corpus", "hier.compose", after=composed)

        def ranking_inputs(bound):
            queries, ids, matrix = (bound["queries"], bound["ids"],
                                    bound["matrix"])
            if not queries:
                return
            query_side = "a" if queries[0].side == "a2b" else "b"
            sides = np.array([i.partition(":")[0] for i in ids])
            nonzero = np.any(matrix != 0.0, axis=1)
            rows = matrix[(sides != query_side) & nonzero]
            counts["retrieve.queries"] += len(queries)
            counts["retrieve.candidates"] += len(rows)
            counts["retrieve.scores"] += len(queries) * len(rows)
            counts["retrieve.zero_queries"] += int(
                ((sides == query_side) & ~nonzero).sum())
            if len(rows):
                _, inverse, group = np.unique(rows, axis=0,
                                              return_inverse=True,
                                              return_counts=True)
                counts["retrieve.tied_candidates"] += int(
                    (group[inverse.ravel()] > 1).sum())
        self.wrap(retrieve, "run_queries", "retrieve.rank",
                  before=ranking_inputs)
        self.wrap(retrieve, "evaluate_map", "retrieve.eval")

        def read_bytes(bound):
            counts["io.bytes_read"] += _file_size(_path_arg(bound))

        def written_bytes(bound, _):
            counts["io.bytes_written"] += _file_size(_path_arg(bound))
        for module_name, names in IO_FUNCTIONS.items():
            module = modules[module_name]
            for attr in names:
                if attr.startswith(("read_", "load_")):
                    self.wrap(module, attr, "io.read", before=read_bytes)
                else:
                    self.wrap(module, attr, "io.write", after=written_bytes)

    def uninstall(self):
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)


def _path_arg(bound):
    for key in ("path", "out"):
        if key in bound:
            return bound[key]
    raise KeyError("no path argument")


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def span_totals(spans):
    """Per span name: (total seconds, self seconds).

    A span's seconds are its duration less the hook time charged to it.
    Self time is that less its direct children's; spans of one
    single-threaded run nest without overlapping.
    """
    total = defaultdict(float)
    children = defaultdict(float)
    for name, start, end, parent, _, hooks in spans:
        total[name] += end - start - hooks
        if parent is not None:
            children[parent] += end - start - hooks
    own = defaultdict(float)
    for index, (name, start, end, _, _, hooks) in enumerate(spans):
        own[name] += end - start - hooks - children[index]
    return total, own
