"""The default thread count, every usable core, gives the outputs of one
thread bit for bit; small stages stay on the calling thread."""

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from ifpca import _parallel, matrix, pipeline, screen

C = _parallel.WORKER_CELLS

# SHA-256 of the bytes of build_null_table(n, reps, 19).values, recorded when
# one thread was the default.  n=2 and 71 hold less than WORKER_CELLS cells
# and run inline; n=143, 144 and 577 span two or three chunks and at least
# two workers' worth of cells.  n=143 and 144 lie on either side of the KS
# kernel's pruning size.
NULL_SHA256 = {
    (2, 5000): "d3af50dfba93f2807850fa36afb26a634cf3d3be79fa3d871a1a02169ef90694",
    (71, 10000): "71bfdf4421ac1b4e1084d7b01bdd76758eba73e8182f087bd864702b1e58a40f",
    (143, 60000): "ae1eb21e9e29b36254680b1cdf22ef570aef3bca18b0b54fc280b4f072b9dc2a",
    (144, 30000): "5d711c6e2e6f82d6bf0bd5cb0b54590d6a2d76e8f555667e2c1a1df9fba656c8",
    (577, 15000): "1f3bc6eb01ebc9f6b1acace9d5cd904da12b23c592270a59b4a42345b597604c",
}


@pytest.mark.parametrize("n, reps", sorted(NULL_SHA256))
def test_default_null_table_is_the_one_thread_table(n, reps):
    default = screen.build_null_table(n, reps, 19).values.tobytes()
    assert default == screen.build_null_table(n, reps, 19, threads=1).values.tobytes()
    assert hashlib.sha256(default).hexdigest() == NULL_SHA256[n, reps]


def test_default_stages_are_the_one_thread_stages():
    # 150×15000 is above two workers' worth of cells; the 30000-draw null
    # table spans two chunks.
    rng = np.random.default_rng(5)
    x = rng.standard_normal((150, 15000))
    x[:50, :40] += 2.0
    w, w1 = (matrix.standardize_columns(x, **kw) for kw in ({}, {"threads": 1}))
    assert w.col_mean.tobytes() == w1.col_mean.tobytes()
    assert w.col_sd.tobytes() == w1.col_sd.tobytes()
    assert (screen.ks_scores(w).scores.tobytes()
            == screen.ks_scores(w, threads=1).scores.tobytes())
    opts = pipeline.PipelineOptions(k=2, null_reps=30000, seed=3)
    a = pipeline.run_pipeline(x, opts).to_json(include_timings=False)
    b = pipeline.run_pipeline(x, replace(opts, threads=1)).to_json(
        include_timings=False)
    assert a == b


def test_default_worker_count(monkeypatch):
    monkeypatch.setattr(_parallel, "usable_cores", lambda: 4)
    got = [_parallel.workers(None, cells)
           for cells in (0, C - 1, C, 2 * C, 3 * C + 1, 100 * C)]
    assert got == [1, 1, 1, 2, 3, 4]
    # An explicit count is kept whatever the work or the cores.
    assert _parallel.workers(1, 100 * C) == 1
    assert _parallel.workers(8, 0) == 8


def test_usable_cores_falls_back_to_cpu_count(monkeypatch):
    assert _parallel.usable_cores() >= 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _parallel.usable_cores() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _parallel.usable_cores() == 1


def test_default_fans_out_only_large_stages(monkeypatch):
    pools = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(_parallel, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(_parallel, "usable_cores", lambda: 8)
    # A 71×5000 matrix is a third of WORKER_CELLS: both stages run inline.
    small = matrix.standardize_columns(
        np.random.default_rng(1).standard_normal((71, 5000)))
    screen.ks_scores(small)
    assert pools == []
    # 3 and 5 WORKER_CELLS of work: one worker for each.
    big = matrix.standardize_columns(
        np.random.default_rng(2).standard_normal((128, 3 * C // 128)))
    screen.ks_scores(big)
    screen.build_null_table(128, 5 * C // 128, 0)
    assert pools == [3, 3, 5]
