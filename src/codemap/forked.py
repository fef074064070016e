"""Items made in one forked child that runs beside this process, or here.

`results(produce, name, fork)` is the one place where work forks or
not; it yields an iterator over the items of `produce()`.  Where `fork`
and `available()`, a child forked on entry pickles each item into a pipe
asked for PIPE_BYTES, and the parent, going on with its own work,
unpickles them in order.  Otherwise each item is made here as it is
read, and nothing runs before the first read.  The items are the same
either way: the child starts from a copy of its parent.  The pipe is
opened before the fork and read only by the parent, so pickle reads no
outside input.

The child runs with the garbage collector off, since the parent's
garbage (a buffered file, say) is the parent's to collect, and ends with
`os._exit`, so no frame, buffer or exit handler it shares with its
parent runs twice.  After its items it pickles an end marker, carrying
the exception `produce` raised, if any, which the iterator raises in
place of the next item.  An exception that does not unpickle as itself
(one holding a lock, say) travels as a RuntimeError naming the child and
its type and message.  A child that ends without an end marker (an end
of file, or a truncated pickle) makes the iterator raise RuntimeError,
and so does a message that fails to unpickle.  On every way out of
`results`, the parent's exceptions and interrupts included, the parent
closes the pipe, kills the child with SIGKILL and reaps it (`os.wait4`).

Forking, the pipe and reaping cost about 2 ms on a 2-vCPU host.  Only
align brings a work bound of its own as `fork`; the BiSkip planner always
asks.  `available()` needs `os.fork` and two CPUs in this process's
affinity set, without which the two would only take turns.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
from contextlib import contextmanager
from typing import NamedTuple

# Bytes asked for the pipe, about 13 demo planner blocks: with the
# default 64 KB the BiSkip planner child waits on every block and the
# fork gains nothing.
PIPE_BYTES = 1 << 20


def available() -> bool:
    """Whether a forked child can run beside this process."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1)


class _End(NamedTuple):
    """What a child pickles after its items."""
    error: BaseException | None  # raised by `produce`


@contextmanager
def results(produce, name: str, fork: bool):
    """Yields an iterator over the items of `produce()`: made in a forked
    child where `fork` and `available()`, else here as they are read.
    `name` names the child in the error of one that ended too soon."""
    if not (fork and available()):
        yield _here(produce)
        return
    import fcntl  # F_SETPIPE_SZ is Linux's, like os.sched_getaffinity
    read, write = os.pipe()
    try:
        fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
    except OSError:  # above the system's pipe-max-size: the default stays
        pass
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if not pid:
        os.close(read)
        _run(produce, write, name)
    os.close(write)
    try:
        with open(read, "rb") as stream:
            yield _received(stream, name)
    finally:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)


def _here(produce):
    yield from produce()


def _run(produce, fd: int, name: str):
    """The child: pickles each item of `produce()` into the pipe `fd`,
    then the end marker, and ends with os._exit."""
    try:
        gc.disable()
        with open(fd, "wb") as out:
            end = _End(None)
            try:
                for item in produce():
                    pickle.dump(item, out, pickle.HIGHEST_PROTOCOL)
                    out.flush()
            except BaseException as err:  # the parent raises it
                end = _End(err)
            out.write(_pickled(end, name))
    finally:
        os._exit(0)


def _pickled(end: _End, name: str) -> bytes:
    """`end` pickled, or, if it does not unpickle as itself, an end
    marker whose RuntimeError names the child and the exception's type
    and message."""
    try:
        data = pickle.dumps(end, pickle.HIGHEST_PROTOCOL)
        pickle.loads(data)
        return data
    except Exception:
        error = end.error
        return pickle.dumps(_End(RuntimeError(
            f"{name} raised {type(error).__name__}: {error}")),
            pickle.HIGHEST_PROTOCOL)


def _received(stream, name: str):
    """The items unpickled from the parent's end of the pipe, up to the
    end marker, whose exception, if any, is raised here."""
    while True:
        try:
            item = pickle.load(stream)
        except (EOFError, pickle.UnpicklingError):
            raise RuntimeError(
                f"{name} ended before its last message") from None
        except Exception as err:
            raise RuntimeError(f"{name} sent a message that does not "
                               f"unpickle: {type(err).__name__}: {err}"
                               ) from None
        if type(item) is _End:
            if item.error is not None:
                raise item.error
            return
        yield item
