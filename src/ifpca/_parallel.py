"""One thread fan-out for the standardization and KS column blocks and
the null-table chunks."""

from concurrent.futures import ThreadPoolExecutor


def parallel_map(fn, items, threads):
    """fn over items on `threads` worker threads (inline when threads is 1),
    results yielded lazily and in order.

    Callers split their work into pieces fixed without reference to
    `threads`, so results do not depend on it.  numpy's sorts, ufuncs and
    reductions release the interpreter lock, so the workers overlap.
    """
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            yield from ex.map(fn, items)
    else:
        yield from map(fn, items)
