"""`forked.results`: the items of `produce()`, from a forked child or made
in process, and what a failing child leaves."""

import os
import re
import threading

import numpy as np
import pytest

from codemap import forked
from conftest import assert_no_child_left, fork_every_time


def _mixed():
    yield (np.arange(5, dtype=np.int32), np.array([0, 7, 255], np.uint8),
           np.arange(-1, 2 ** 40, 2 ** 24, dtype=np.int64))
    yield 3


# `forked` has no work bound: fork_every_time sets PIPE_BYTES to 0, so the
# pipe gets the system's smallest size (one page on Linux) and an item of
# 512 KB crosses it in many writes
@pytest.mark.parametrize("fork", [False, True])
def test_items_come_back_equal_with_their_dtypes(fork, monkeypatch):
    forks = fork_every_time(monkeypatch, forked, "PIPE_BYTES")
    with forked.results(_mixed, "the child", fork) as results:
        items = list(results)
    assert forks == ([os.getpid()] if fork else [])
    arrays, number = items
    for got, want in zip(arrays, next(_mixed())):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert number == 3 and type(number) is int
    assert_no_child_left()


@pytest.mark.parametrize("fork", [False, True])
def test_exception_surfaces_after_the_items_before_it(fork, monkeypatch):
    fork_every_time(monkeypatch, forked, "PIPE_BYTES")

    def produce():
        yield from range(3)
        raise KeyError("item 3 failed")
    with forked.results(produce, "the child", fork) as results:
        assert [next(results) for _ in range(3)] == [0, 1, 2]
        with pytest.raises(KeyError, match="item 3 failed") as raised:
            next(results)
    assert type(raised.value) is KeyError
    assert_no_child_left()


class Locked(Exception):
    """Does not pickle: it holds a lock."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


class Two(Exception):
    """Pickles, but does not unpickle: its arguments are not its args."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


@pytest.mark.parametrize("fork", [False, True])
@pytest.mark.parametrize("error, text", [
    (lambda: Locked("the lock failed"), "Locked: the lock failed"),
    (lambda: Two("this", "that"), "Two: this and that")],
    ids=["unpicklable_attribute", "other_init_arguments"])
def test_exception_that_does_not_unpickle_names_child_type_and_message(
        fork, error, text, monkeypatch):
    fork_every_time(monkeypatch, forked, "PIPE_BYTES")

    def produce():
        yield 0
        raise error()
    with forked.results(produce, "the test child", fork) as results:
        assert next(results) == 0
        with pytest.raises(Exception) as raised:
            next(results)
    if fork:
        assert type(raised.value) is RuntimeError
        assert str(raised.value) == f"the test child raised {text}"
    else:
        assert type(raised.value) is type(error())
        assert f"{type(raised.value).__name__}: {raised.value}" == text
    assert_no_child_left()


def test_message_that_does_not_unpickle_names_the_child(monkeypatch):
    fork_every_time(monkeypatch, forked, "PIPE_BYTES")

    def produce():
        yield Two("this", "that")
    with forked.results(produce, "the test child", True) as results:
        with pytest.raises(RuntimeError, match=re.escape(
                "the test child sent a message that does not unpickle: "
                "TypeError: ")):
            next(results)
    assert_no_child_left()


def test_child_that_exits_is_named(monkeypatch):
    fork_every_time(monkeypatch, forked, "PIPE_BYTES")

    def produce():
        yield 0
        os._exit(0)
    with forked.results(produce, "the test child", True) as results:
        assert next(results) == 0
        with pytest.raises(RuntimeError,
                           match="the test child ended before its last"):
            next(results)
    assert_no_child_left()


def test_parent_that_fails_leaves_no_child(monkeypatch):
    fork_every_time(monkeypatch, forked, "PIPE_BYTES")
    with pytest.raises(ValueError, match="parent failed"):
        with forked.results(lambda: iter(range(10 ** 6)), "the child",
                            True):
            raise ValueError("parent failed")
    assert_no_child_left()


def test_in_process_items_are_made_as_they_are_read():
    made = []

    def produce():
        made.append("called")
        for k in range(3):
            made.append(k)
            yield k
    with forked.results(produce, "the child", False) as results:
        assert made == []
        assert next(results) == 0 and made == ["called", 0]
        assert next(results) == 1 and made == ["called", 0, 1]
