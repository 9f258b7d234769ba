"""One thread fan-out for the standardization and KS column blocks and
the null-table chunks."""

import os
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
    """fn over items on workers(threads, cells) worker threads (inline when
    that is 1), results yielded lazily and in order.

    Callers split their work into pieces fixed without reference to
    `threads`, so results do not depend on it.  numpy's sorts, ufuncs and
    reductions release the interpreter lock, so the workers overlap.
    """
    threads = workers(threads, cells)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            yield from ex.map(fn, items)
    else:
        yield from map(fn, items)
