"""Work handed to one forked child that runs beside this process.

`child(task, name)` forks once; the child runs `task(send)` and the
parent, meanwhile, goes on with its own work and reads what the task
sent with `receive()`.  `send(*buffers)` writes one chunk, the buffers
back to back, to a pipe asked for PIPE_BYTES, and `receive()` returns
the next chunk as a uint8 array for the caller to frame.  The child's
results are the same as when computed in one process: it starts from a
copy of its parent, and only what it sends comes back.

The child runs with the garbage collector off, since the parent's
garbage (a buffered file, say) is the parent's to collect, and it ends
with `os._exit`, so none of the frames, buffers and exit handlers it
shares with its parent runs twice.  An exception the task raises is
pickled and sent in place of its next chunk, and `receive` raises it
again with its type and message; a child that ends before the chunk
asked for makes `receive` raise RuntimeError.  On every way out of
`child`, the parent's own exceptions and interrupts included, the
parent closes the pipe, kills the child with SIGKILL and reaps it with
`os.wait4`, so no child outlives it.

Forking, the pipe and reaping cost about 2 ms on a 2-vCPU host, so a
caller forks only above a work bound of its own, and only where
`available()`: with `os.fork`, and with at least two CPUs in this
process's affinity set, without which the two would only take turns.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
from contextlib import contextmanager

import numpy as np

# Bytes asked for the pipe, about 13 demo planner blocks: with the
# default 64 KB the BiSkip planner child waits on every block and the
# fork gains nothing.
PIPE_BYTES = 1 << 20


def available() -> bool:
    """Whether a forked child can run beside this process."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1)


@contextmanager
def child(task, name: str):
    """Runs `task(send)` in a forked child and yields `receive`; `name`
    names the child in the error of a child that ended too soon."""
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
        _run(task, write)
    os.close(write)
    try:
        with open(read, "rb") as stream:
            yield _receiver(stream, name)
    finally:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)


def _run(task, fd: int):
    """The child: runs `task` with a `send` over the pipe `fd`, sends the
    exception it raised, if any, and ends with os._exit."""
    try:
        gc.disable()
        with open(fd, "wb") as out:
            def send(*buffers):
                out.write(np.array([sum(memoryview(buffer).nbytes
                                        for buffer in buffers)], np.int64))
                for buffer in buffers:
                    out.write(buffer)
                out.flush()

            try:
                task(send)
            except BaseException as err:  # the parent raises it
                blob = pickle.dumps(err)
                out.write(np.array([-len(blob)], np.int64))
                out.write(blob)
    finally:
        os._exit(0)


def _receiver(stream, name: str):
    """`receive()` over the parent's end of the pipe: the next chunk, or
    the exception the child sent in its place."""
    size = np.empty(1, np.int64)

    def receive() -> np.ndarray:
        if stream.readinto(size) == size.nbytes:
            length = int(size[0])
            chunk = np.empty(abs(length), np.uint8)
            if stream.readinto(chunk) == chunk.nbytes:
                if length < 0:
                    raise pickle.loads(chunk)
                return chunk
        raise RuntimeError(f"{name} ended before its last message")
    return receive
