"""One thread fan-out for the standardization and KS column blocks and
the Monte-Carlo chunks, and forked workers for the text loader."""

import contextlib
import os
import signal
import warnings
from concurrent.futures import ThreadPoolExecutor

# Under the default thread count each worker gets at least this many cells
# of work (8 MiB of float64), so that a small stage runs inline.
WORKER_CELLS = 1 << 20


def usable_cores():
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def workers(threads, cells):
    """Worker count for `cells` cells of work: `threads` when given, else one
    per WORKER_CELLS cells, at least one and at most usable_cores()."""
    if threads is None:
        return max(1, min(usable_cores(), cells // WORKER_CELLS))
    return threads


def parallel_map(fn, items, threads, cells):
    """[fn(item) for item in items], on workers(threads, cells) worker
    threads (inline when that is 1).

    Callers split their work into pieces fixed without reference to
    `threads`, so results do not depend on it.  numpy's sorts, ufuncs and
    reductions release the interpreter lock, so the workers overlap.
    """
    threads = workers(threads, cells)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(fn, items))
    return [fn(item) for item in items]


@contextlib.contextmanager
def forked(fn, items):
    """fn(item, out) in one forked child process per item, `out` a binary
    file on a pipe; yields the pipes' read ends, unbuffered, in item order.

    A child leaves only by os._exit, so it never flushes the parent's stdio
    buffers or runs its exit handlers, and a warning fails it instead of
    printing.  When the block ends, however it ends, every child is killed
    if it is still running and reaped.
    """
    children = []
    try:
        for item in items:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    warnings.simplefilter("error")
                    with open(w, "wb") as out:
                        fn(item, out)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children.append((pid, open(r, "rb", buffering=0)))
        yield [pipe for _, pipe in children]
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
