"""The default thread count, every usable core, gives the outputs of one
thread bit for bit; small stages stay on the calling thread.  The text
loader gives the matrix and the errors of one worker for any worker count."""

import hashlib
import io
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from test_cli import load_matrix_oracle

from ifpca import _parallel, cli, matrix, pipeline, screen

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


def test_alt_scores_do_not_depend_on_the_thread_count():
    # 15000 draws at n=577 span three chunks, the last one short.
    one = screen.simulate_alt_scores(577, 15000, [0.3, 0.7], [1.0, -0.4], 19,
                                     threads=1)
    for threads in (2, 3, None):
        got = screen.simulate_alt_scores(577, 15000, [0.3, 0.7], [1.0, -0.4],
                                         19, threads=threads)
        assert got.tobytes() == one.tobytes()


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


# ---------------------------------------------------------------------------
# The text loader's pieces.

WORKERS = (2, 3, 5)


def cut(path, workers):
    """The byte ranges load_matrix parses on `workers` forked workers."""
    return cli._line_ranges(path, os.path.getsize(path), workers)


@pytest.fixture
def inline_loads(monkeypatch):
    """The paths load_matrix parsed inline, in order."""
    loads = []
    inline = cli._load_inline

    def recorded(path):
        loads.append(path)
        return inline(path)

    monkeypatch.setattr(cli, "_load_inline", recorded)
    return loads


def rows(count, width, seed, end=b"\n"):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, width)) * 10.0 ** rng.integers(-5, 5, (count, width))
    return [",".join("%.17g" % v for v in row).encode() + end for row in x]


BLANK = [b"\n", b"  \n", b"\t \n"]

LOADER_FILES = {
    "header": b"a,b,c\n" + b"".join(rows(30, 3, 1)),
    "header after blank lines": b"".join(BLANK) + b"a,b,c\n" + b"".join(rows(30, 3, 10)),
    "crlf": b"s1,s2\r\n" + b"".join(rows(30, 2, 2, end=b"\r\n")),
    # Blank and whitespace-only lines between every data line, and a run of
    # them long enough to fill a piece on its own.
    "blank lines": b"".join(r + BLANK[i % 3] for i, r in enumerate(rows(20, 4, 3)))
                   + b"".join(BLANK * 300) + b"".join(rows(6, 4, 4)),
    "fewer lines than workers": b"1,2\n3,4\n",
    "one line": b"1,2,3\n",
    "no trailing newline": b"".join(rows(12, 3, 5))[:-1],
    "special values": b"nan,inf,-inf\n1e400,-0,5\n" * 9,
}


@pytest.mark.parametrize("name", sorted(LOADER_FILES))
@pytest.mark.parametrize("transpose", [False, True])
def test_loader_pieces_give_the_inline_matrix(name, transpose, inline_loads,
                                              tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(LOADER_FILES[name])
    one = cli.load_matrix(str(path), transpose=transpose, threads=1)
    assert inline_loads == [str(path)]
    for workers in WORKERS:
        got = cli.load_matrix(str(path), transpose=transpose, threads=workers)
        assert got.shape == one.shape and got.tobytes() == one.tobytes()
    # Every load that had two pieces or more was assembled from them.
    assert len(inline_loads) == 1 + sum(len(cut(path, w)) < 2 for w in WORKERS)
    if not name.startswith(("header", "crlf")):
        oracle = np.array(load_matrix_oracle(path.read_text()))
        assert np.array_equal(one, oracle.T if transpose else oracle,
                              equal_nan=True)


def test_loader_pieces_meet_blank_lines(tmp_path):
    # The fixture above puts blank lines next to some cut, and a piece that
    # holds nothing else.
    path = tmp_path / "m.csv"
    path.write_bytes(LOADER_FILES["blank lines"])
    data = path.read_bytes()
    pieces = [data[a:b] for w in WORKERS for a, b in cut(path, w)]
    assert any(not p.strip() for p in pieces)
    assert any(p.startswith(tuple(BLANK)) for p in pieces)


def test_line_ranges_tile_the_file_after_the_header(tmp_path):
    data = b"h1,h2\n" + b"".join(rows(50, 2, 6)) + b"\n\n" + b"".join(rows(3, 2, 7))
    path = tmp_path / "m.csv"
    for content in (data, data[:-1]):
        path.write_bytes(content)
        for workers in (1, 2, 3, 5, 7, 200):
            pieces = cut(path, workers)
            assert 1 <= len(pieces) <= workers
            assert pieces[0][0] == len(b"h1,h2\n")
            assert pieces[-1][1] == len(content)
            assert all(a < b for a, b in pieces)
            assert all(b == a for (_, b), (a, _) in zip(pieces, pieces[1:]))
            assert all(content[b - 1:b] == b"\n" for _, b in pieces[:-1])


def ragged_at_a_cut():
    # 30 two-column lines of 4 bytes, then 20 three-column ones of 6: the
    # two-worker cut falls at byte 120, where the width changes.
    return b"1,2\n" * 30 + b"1,2,3\n" * 20, 31


@pytest.mark.parametrize("case", ["ragged", "1_0", "empty cell", "undecodable"])
def test_loader_pieces_give_the_inline_errors(case, inline_loads, tmp_path):
    path = tmp_path / "m.csv"
    if case == "ragged":
        content, line = ragged_at_a_cut()
        path.write_bytes(content)
        assert cut(path, 2)[0] == (0, 120)
    else:
        bad = {"1_0": b"1_0,2,3\n", "empty cell": b"1,,2\n",
               "undecodable": b"3,\xff,4\n"}[case]
        # Past the first 8 KiB, which the header check decodes.
        good = b"".join(rows(400, 3, 8))
        content, line = good + bad + b"1,2,3\n", 401
        path.write_bytes(content)
        for workers in WORKERS:
            assert cut(path, workers)[-1][0] <= len(good)
    with pytest.raises(ValueError) as one:
        cli.load_matrix(str(path), threads=1)
    if case != "undecodable":
        assert str(one.value).startswith(f"{path}: line {line}: ")
    for workers in WORKERS:
        with pytest.raises(ValueError) as e:
            cli.load_matrix(str(path), threads=workers)
        assert str(e.value) == str(one.value)
    # Each failed piece sent the load back to the inline reader.
    assert inline_loads == [str(path)] * (1 + len(WORKERS))


parse_piece = cli._parse_piece


def die_on_second_piece(path, piece, out):
    if piece[0] > 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return parse_piece(path, piece, out)


def shape_only_on_second_piece(path, piece, out):
    if piece[0] == 0:
        return parse_piece(path, piece, out)
    parsed = io.BytesIO()
    parse_piece(path, piece, parsed)
    out.write(parsed.getvalue()[:16])


def test_loader_child_that_dies_falls_back_inline(monkeypatch, tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"".join(rows(20, 3, 9)))
    one = cli.load_matrix(str(path), threads=1)
    monkeypatch.setattr(cli, "_parse_piece", die_on_second_piece)
    assert cli.load_matrix(str(path), threads=3).tobytes() == one.tobytes()


def test_loader_piece_without_its_data_falls_back_inline(monkeypatch,
                                                         inline_loads, tmp_path):
    # Every shape arrives; the second piece's values do not.
    path = tmp_path / "m.csv"
    path.write_bytes(b"".join(rows(20, 3, 9)))
    one = cli.load_matrix(str(path), threads=1)
    monkeypatch.setattr(cli, "_parse_piece", shape_only_on_second_piece)
    assert cli.load_matrix(str(path), threads=2).tobytes() == one.tobytes()
    assert inline_loads == [str(path)] * 2


def test_loader_children_write_nothing_to_stderr(tmp_path):
    # A piece of blank lines only, and a piece that fails, under -W always.
    blank = tmp_path / "blank.csv"
    blank.write_bytes(LOADER_FILES["blank lines"])
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"".join(rows(40, 3, 8)) + b"1_0,2,3\n")
    code = ("import sys; from ifpca import cli\n"
            "cli.load_matrix(sys.argv[1], threads=5)\n"
            "try:\n    cli.load_matrix(sys.argv[2], threads=3)\n"
            "except ValueError:\n    pass\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-W", "always", "-c", code,
                           str(blank), str(bad)], capture_output=True,
                          env=env, timeout=60)
    assert done.returncode == 0 and done.stdout == b"" and done.stderr == b""


def test_loader_default_parses_a_few_megabytes_inline(monkeypatch, tmp_path):
    forks = []

    def recorded(fn, items):
        forks.append(len(items))
        return forked(fn, items)

    forked = _parallel.forked
    monkeypatch.setattr(_parallel, "forked", recorded)
    monkeypatch.setattr(_parallel, "usable_cores", lambda: 8)
    path = tmp_path / "m.csv"
    # 4 MB, and 18 MB: above 2 * WORKER_CELLS cells of _TEXT_CELL_BYTES.
    path.write_bytes(b"1.25,-2.5\n" * 400_000)
    assert cli.load_matrix(str(path)).shape == (400_000, 2)
    assert forks == []
    path.write_bytes(b"1.25,-2.5\n" * 1_800_000)
    x = cli.load_matrix(str(path))
    assert x.shape == (1_800_000, 2) and (x == [1.25, -2.5]).all()
    assert forks == [2]


def test_loader_reads_a_pipe_once(tmp_path):
    # The pieces would read the file again; a pipe is parsed inline.
    path = tmp_path / "fifo"
    os.mkfifo(path)
    content = LOADER_FILES["header"]
    with ThreadPoolExecutor(1) as ex:
        ex.submit(path.write_bytes, content)
        got = cli.load_matrix(str(path), threads=3)
    path.unlink()
    path.write_bytes(content)
    assert got.tobytes() == cli.load_matrix(str(path), threads=1).tobytes()


def test_loader_without_fork_parses_inline(monkeypatch, inline_loads, tmp_path):
    monkeypatch.delattr(os, "fork")
    path = tmp_path / "m.csv"
    path.write_bytes(LOADER_FILES["header"])
    assert cli.load_matrix(str(path), threads=3).shape == (30, 3)
    assert inline_loads == [str(path)]


def sleep_for(seconds, out):
    time.sleep(seconds)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_forked_children_are_reaped_when_the_parent_raises(error):
    started = time.monotonic()
    with pytest.raises(error):
        with _parallel.forked(sleep_for, [60, 60, 60]) as pipes:
            assert len(pipes) == 3
            raise error
    # Killed, not waited for.
    assert time.monotonic() - started < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
