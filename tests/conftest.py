"""Shared synthetic corpora for alignment and embedding tests, and the
helpers of their forked-child tests."""

import os

import numpy as np
import pytest

from codemap.align import AlignmentLinkSet


def make_toy_bitext(rng, max_vocab=20, max_pairs=30):
    """Random small bitext over disjoint source/target vocabularies."""
    n_src = int(rng.integers(2, max_vocab + 1))
    n_tgt = int(rng.integers(2, max_vocab + 1))
    sources = [f"s{k}" for k in range(n_src)]
    targets = [f"t{k}" for k in range(n_tgt)]
    pairs = []
    for p in range(int(rng.integers(1, max_pairs + 1))):
        len_a = int(rng.integers(1, 8))
        len_b = int(rng.integers(1, 8))
        tokens_a = [sources[int(k)] for k in rng.integers(0, n_src, len_a)]
        tokens_b = [targets[int(k)] for k in rng.integers(0, n_tgt, len_b)]
        pairs.append((tokens_a, tokens_b, f"pair{p}"))
    return pairs


def make_bijective_corpus(seed=7, vocab=50, n_pairs=500, window=3,
                          min_len=4, max_len=12):
    """Bitext generated by a bijective dictionary with local reordering.

    Target order is a local shuffle of source order: position j gets sort
    key j + U(0, window).  Returns (bitext, dictionary, true link sets),
    where link (i, j) means source position i produced target position j.
    """
    rng = np.random.default_rng(seed)
    sources = [f"s{k:02d}" for k in range(vocab)]
    dictionary = {s: f"t{k:02d}" for k, s in enumerate(sources)}
    bitext = []
    links = []
    for p in range(n_pairs):
        length = int(rng.integers(min_len, max_len + 1))
        tokens_a = [sources[int(k)] for k in rng.integers(0, vocab, length)]
        keys = np.arange(length) + rng.random(length) * window
        order = np.argsort(keys, kind="stable")  # order[j] = source position
        tokens_b = [dictionary[tokens_a[int(i)]] for i in order]
        pair_id = f"pair{p}"
        bitext.append((tokens_a, tokens_b, pair_id))
        links.append(AlignmentLinkSet(
            pair_id, frozenset((int(i), j) for j, i in enumerate(order))))
    return bitext, dictionary, links


@pytest.fixture(scope="session")
def bijective_corpus():
    return make_bijective_corpus()


def fork_every_time(monkeypatch, module, bound=None):
    """Makes `module` fork wherever it may, whatever the CPU count: its
    work bound named `bound`, if it has one, goes to 0 and two CPUs are
    reported.  Returns the list that each fork appends this process's pid
    to."""
    if bound is not None:
        monkeypatch.setattr(module, bound, 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
