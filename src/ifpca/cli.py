"""Command-line front end: cluster, simulate, nulltable, tailcheck."""

import argparse
import csv
import functools
import io
import itertools
import math
import os
import re
import stat
import sys
from dataclasses import replace

import numpy as np

from . import _parallel, acm, pipeline, screen
from .errors import (EmptySelection, IfpcaError, InvalidConfig, InvalidK,
                     NoEligibleIndex, UnknownExperiment, ZeroSpread)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4
EXIT_EMPTY = 5


def _exit_code(exc):
    if isinstance(exc, (EmptySelection, NoEligibleIndex)):
        return EXIT_EMPTY
    if isinstance(exc, ZeroSpread):
        return EXIT_NUMERICAL
    if isinstance(exc, (InvalidConfig, UnknownExperiment)):
        return EXIT_USAGE
    if isinstance(exc, (InvalidK, OSError, ValueError)):
        return EXIT_DATA
    return EXIT_NUMERICAL


# Bytes of text taken as one cell of parsing work: the file's size over
# this is its cell count for _parallel.workers, so by default a file parses
# in pieces from 2 * WORKER_CELLS * 8 bytes (16 MiB) up and a file of a few
# MB inline.  On a 2-core VM two workers took 1.03x the inline time at
# 2 MB, 0.84x at 8 MB, 0.72x at 16 MB and 0.62x at 31 MB.
_TEXT_CELL_BYTES = 8


def load_matrix(path, transpose=False, threads=None):
    """Read a rectangular numeric matrix from a comma-separated text file.

    Blank lines are skipped, and so is the first line when it does not parse
    as numbers (a header).  There is no comment character.  Ragged rows and
    a file with no data rows raise ValueError naming the file and, for a
    bad row, its line.

    The lines after the header are parsed in pieces on
    _parallel.workers(threads, size / _TEXT_CELL_BYTES) forked processes
    when that is more than one; the matrix and every error are those of
    parsing the file inline.
    """
    x = _load_in_pieces(path, threads) if hasattr(os, "fork") else None
    if x is None:
        x = _load_inline(path)
    return x.T if transpose else x


def _load_inline(path):
    try:
        with open(path) as f:
            first = _read_header(f)
            try:
                x = _parse_lines(itertools.chain([first or ""], f))
            except ValueError as e:
                raise ValueError(f"{path}: {_bad_line(path, first is None) or e}") from None
    except UnicodeDecodeError as e:
        # The first lines are decoded here, before loadtxt reads any.
        raise ValueError(f"{path}: {e}") from None
    if not x.size:
        raise ValueError(f"{path}: no data rows")
    return x


def _read_header(f):
    """Read text file f through its first line that is not blank: None when
    that line does not parse as numbers (a header), else the line."""
    line = f.readline()
    while line and not line.strip():
        line = f.readline()
    try:
        [float(c) for c in line.split(",")]
    except ValueError:
        return None
    return line


def _parse_lines(lines):
    """The rows of the lines that are not blank; 0 x 0 when none is."""
    lines = (line for line in lines if line.strip())
    first = next(lines, None)
    return np.empty((0, 0)) if first is None else np.loadtxt(
        itertools.chain([first], lines), delimiter=",", comments=None,
        dtype=np.float64, ndmin=2)


def _load_in_pieces(path, threads):
    """The matrix assembled from pieces parsed by forked workers, or None
    when one worker suffices or any piece fails: a bad cell, a decode error,
    a width unlike the other pieces' or a child that dies.  The inline
    reader then gives the matrix or the error."""
    try:
        st = os.stat(path)
        workers = _parallel.workers(threads, st.st_size // _TEXT_CELL_BYTES)
        # A pipe or a device could not be read again by the pieces.
        if workers < 2 or not stat.S_ISREG(st.st_mode):
            return None
        pieces = _line_ranges(path, st.st_size, workers)
    except (OSError, ValueError):  # UnicodeDecodeError included
        return None
    if len(pieces) < 2:
        return None
    with _parallel.forked(functools.partial(_parse_piece, path), pieces) as pipes:
        shapes = np.empty((len(pipes), 2), dtype=np.int64)
        if not all(_read_into(pipe, memoryview(shape).cast("B"))
                   for pipe, shape in zip(pipes, shapes)):
            return None
        widths = set(shapes[shapes[:, 0] > 0, 1].tolist())
        if len(widths) != 1:
            return None
        x = np.empty((int(shapes[:, 0].sum()), widths.pop()))
        buf, at = memoryview(x).cast("B"), 0
        for pipe, rows in zip(pipes, shapes[:, 0].tolist()):
            nbytes = rows * x.shape[1] * x.itemsize
            if not _read_into(pipe, buf[at:at + nbytes]):
                return None
            at += nbytes
    return x


def _line_ranges(path, end, pieces):
    """Byte ranges that tile the file at `path` up to `end`, from just past
    its header (0 without one), in at most `pieces` of about equal size, each
    but the last ending just after a newline byte.  That byte ends a line in
    every ASCII-compatible encoding and under universal newlines, so the
    pieces hold whole lines."""
    with open(path) as f:
        # Past the end of the file when the decoder holds state there (then
        # nothing is cut).
        start = f.tell() if _read_header(f) is None else 0
    cuts = [start]
    with open(path, "rb") as f:
        for i in range(1, pieces):
            target = start + (end - start) * i // pieces
            if target > cuts[-1]:
                f.seek(target - 1)
                f.readline()
                if f.tell() < end:
                    cuts.append(f.tell())
    cuts.append(end)
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]


def _parse_piece(path, piece, out):
    """Write the rows of one piece of the file to `out`: their shape as two
    int64, then their float64 values in row order.  Blank lines are skipped
    as the inline reader skips them; a piece without rows is 0 x 0."""
    begin, end = piece
    with open(path, "rb") as f:
        f.seek(begin)
        data = f.read(end - begin)
    # Decoded and split into lines as open(path) would.
    x = _parse_lines(io.TextIOWrapper(io.BytesIO(data)))
    out.write(np.array(x.shape, dtype=np.int64).tobytes())
    out.write(x.data)


def _read_into(pipe, view):
    """Fill `view` from an unbuffered pipe; False when the pipe ends first."""
    while view:
        got = pipe.readinto(view)
        if not got:
            return False
        view = view[got:]
    return True


def _bad_line(path, header):
    """'line L: cause' for the first line of `path` that load_matrix rejects,
    L counted in the file, or None.

    loadtxt numbers only the rows it is given, so on the error path the file
    is read again and each data line parsed on its own.  A file that is not
    valid text gives None: the decoder's own message is the cause.
    """
    with open(path) as f:
        numbered = ((num, line) for num, line in enumerate(f, 1) if line.strip())
        try:
            if header:
                next(numbered)
            width = None
            for num, line in numbered:
                try:
                    row = np.loadtxt([line], delimiter=",", comments=None,
                                     dtype=np.float64, ndmin=2)
                except ValueError as e:
                    # loadtxt calls the one line it was given row 0.
                    return f"line {num}: " + re.sub(
                        r" at row 0, (column \d+)", r" in \1", str(e))
                if width is None:
                    width, width_num = row.shape[1], num
                elif row.shape[1] != width:
                    return (f"line {num}: columns changed from {width} on "
                            f"line {width_num} to {row.shape[1]}")
        except UnicodeDecodeError:
            pass
    return None


def load_labels(path, n, k):
    """Class labels of the n samples from a text file, one integer in 1..k
    per line; blank lines are skipped.  A bad label or count raises
    ValueError naming the file and, for a bad label, its line."""
    labels = []
    try:
        with open(path) as f:
            for num, line in enumerate(f, 1):
                cell = line.strip()
                if not cell:
                    continue
                try:
                    label = int(cell)
                except ValueError:
                    raise ValueError(f"{path}: line {num}: {cell!r} is not an "
                                     f"integer label") from None
                if not 1 <= label <= k:
                    raise ValueError(f"{path}: line {num}: label {label} is "
                                     f"outside 1..{k}")
                labels.append(label)
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: {e}") from None
    if len(labels) != n:
        raise ValueError(f"{path}: {len(labels)} labels for {n} samples")
    return np.array(labels, dtype=np.int64)


def cmd_cluster(args):
    x = load_matrix(args.input, transpose=args.transpose, threads=args.threads)
    truth = load_labels(args.labels, len(x), args.k) if args.labels else None
    null = screen.load_null_table(args.null_table) if args.null_table else None
    opts = pipeline.PipelineOptions(
        k=args.k, method=args.method, norm=args.norm, threshold=args.threshold,
        truncate=args.truncate, null_table=null, null_reps=args.null_reps,
        replicates=args.replicates, seed=args.seed, threads=args.threads,
        hc_fallback=args.hc_fallback)
    report = pipeline.run_pipeline(x, opts, truth=truth)
    print(report.to_json())
    if args.out:
        np.savetxt(args.out, report.labels, fmt="%d")
    return EXIT_OK


def _simulate_configs(args):
    if args.config:
        import json
        with open(args.config) as f:
            return [acm.AcmConfig.from_dict(json.load(f))]
    return acm.experiment_preset(args.experiment)


def _setting_tag(cfg):
    parts = [f"K={cfg.k}", f"p={cfg.p}", f"delta={','.join(f'{d:g}' for d in cfg.delta)}",
             f"vartheta={cfg.vartheta:g}", f"r={cfg.r:g}", f"q={cfg.threshold_q:g}",
             f"noise={cfg.noise.kind}"]
    if cfg.noise.kind == "correlated":
        parts.append(f"variant={cfg.noise.variant}({cfg.noise.subset_size})")
    return ";".join(parts)


def simulate_one(cfg, methods, reps, seed, null_cache, null_reps=0, threads=None):
    """Error rates of each method over `reps` generated instances of cfg."""
    n = cfg.n
    if "ifpca" in methods and n not in null_cache:
        size = null_reps if null_reps > 0 else screen.default_null_size(cfg.p)
        null_cache[n] = screen.build_null_table(n, size, seed, threads=threads)
    base = pipeline.PipelineOptions(k=cfg.k, norm="none", seed=seed,
                                    threads=threads)
    # Both IF-PCA rows are method "ifpca": HC against the null, and the fixed
    # simulation threshold sqrt(2 q~ log p).
    variants = {"ifpca": {"null_table": null_cache.get(n)},
                "ifpca-fixed": {"threshold": f"fixed-q:{cfg.threshold_q!r}"}}
    options = {m: replace(base, **variants.get(m, {"method": m})) for m in methods}
    errors = {m: [] for m in methods}
    for rep in range(reps):
        x, truth = acm.generate(cfg, seed=[seed, rep])
        instance = pipeline.Instance(x)
        for m in methods:
            rpt = pipeline.run_pipeline(instance, options[m], truth=truth.y)
            errors[m].append(rpt.error_rate)
        # This rep's matrix and stages go before the next rep is generated.
        del x, instance
    return {m: (float(np.mean(v)), float(np.std(v, ddof=1)) if len(v) > 1 else 0.0)
            for m, v in errors.items()}


def cmd_simulate(args):
    configs = _simulate_configs(args)
    methods = args.methods
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["experiment", "setting", "method", "mean_error",
                     "sd_error", "reps"])
    null_cache = {}
    exp = args.experiment or "config"
    for cfg in configs:
        reps = args.reps if args.reps is not None else cfg.rep
        stats = simulate_one(cfg, methods, reps, args.seed, null_cache,
                             null_reps=args.null_reps, threads=args.threads)
        for m in methods:
            mean, sd = stats[m]
            writer.writerow([exp, _setting_tag(cfg), m,
                             f"{mean:.6f}", f"{sd:.6f}", reps])
    return EXIT_OK


def cmd_nulltable(args):
    table = screen.build_null_table(args.n, args.reps, args.seed,
                                    threads=args.threads)
    screen.save_null_table(table, args.out)
    return EXIT_OK


def cmd_tailcheck(args):
    writer = csv.writer(sys.stdout, lineterminator="\n")
    if args.alt:
        # Useful-feature left tail: empirical miss rate vs the Gaussian bound.
        delta, m = args.alt
        k = len(delta)
        tau_j = float(acm.tau(np.array(m)[:, None], delta, args.n)[0])
        psis = screen.simulate_alt_scores(args.n, args.reps, delta, m,
                                          args.seed, threads=args.threads)
        writer.writerow(["t", "empirical_miss", "bound"])
        for t in args.grid:
            miss = float(np.mean(psis <= t))
            bound = k * math.exp(-(tau_j - t) ** 2 / (2 * k * acm.A0 ** 2))
            writer.writerow([f"{t:g}", f"{miss:.8f}", f"{bound:.8g}"])
    else:
        table = screen.build_null_table(args.n, args.reps, args.seed,
                                        threads=args.threads)
        writer.writerow(["t", "empirical_survival", "theory_lower",
                         "theory_upper", "ratio"])
        for t in args.grid:
            surv = float(np.mean(table.values >= t))
            lower = math.exp(-t ** 2 / (2 * acm.A0 ** 2)) / (math.sqrt(2) * acm.A0)
            ratio = surv / lower if lower > 0 else math.inf
            writer.writerow([f"{t:g}", f"{surv:.8f}", f"{lower:.8g}",
                             f"{2 * lower:.8g}", f"{ratio:.8g}"])
    return EXIT_OK


def _threshold_arg(spec):
    try:
        pipeline.parse_threshold(spec)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return spec


def _int_at_least(least):
    """argparse type for a count: an integer >= least."""
    def count(spec):
        value = int(spec)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    return count


# The rows `simulate` can report, in the default order.
SIMULATE_METHODS = ("ifpca", "ifpca-fixed", "pca", "kmeans", "kmeanspp", "hier")


def _methods_arg(spec):
    """'m1,m2,..' -> a tuple of distinct names from SIMULATE_METHODS."""
    methods = tuple(spec.split(","))
    unknown = [m for m in methods if m not in SIMULATE_METHODS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown method {unknown[0]!r}; choose from "
            f"{','.join(SIMULATE_METHODS)}")
    if len(set(methods)) < len(methods):
        raise argparse.ArgumentTypeError(f"a method is repeated in {spec!r}")
    return methods


def _grid_arg(spec):
    """'t1,t2,..' -> a list of finite thresholds >= 0."""
    try:
        grid = [float(t) for t in spec.split(",")]
    except ValueError:
        grid = None
    if grid is None or not all(math.isfinite(t) and t >= 0 for t in grid):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated finite thresholds >= 0, got {spec!r}")
    return grid


# numpy's own tolerance on a probability vector's sum (Generator.choice).
_DELTA_SUM_TOL = math.sqrt(np.finfo(np.float64).eps)


def _alt_arg(spec):
    """'delta=d1,..,dK;m=m1,..,mK' -> (delta, m), both lists of K finite floats."""
    try:
        fields = dict(part.split("=", 1) for part in spec.split(";"))
        delta = [float(v) for v in fields["delta"].split(",")]
        m = [float(v) for v in fields["m"].split(",")]
    except (KeyError, ValueError):
        raise argparse.ArgumentTypeError(
            f"expected 'delta=d1,..,dK;m=m1,..,mK', got {spec!r}") from None
    if not (len(delta) == len(m) and all(math.isfinite(v) for v in delta + m)
            and min(delta) >= 0 and abs(sum(delta) - 1.0) <= _DELTA_SUM_TOL):
        raise argparse.ArgumentTypeError(
            "delta and m need K finite values each, delta a probability vector")
    return delta, m


_THREADS_HELP = "workers (default: every usable core)"


def build_parser():
    p = argparse.ArgumentParser(prog="ifpca",
                                description="KS-screened spectral clustering")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cluster", help="cluster a samples-by-features matrix")
    c.add_argument("--input", required=True)
    c.add_argument("--k", type=_int_at_least(1), required=True)
    c.add_argument("--labels")
    c.add_argument("--method", default="ifpca", choices=pipeline.METHODS)
    c.add_argument("--norm", default="meanstd", choices=pipeline.NORMS)
    c.add_argument("--threshold", default="hc", type=_threshold_arg)
    c.add_argument("--null-table")
    c.add_argument("--null-reps", type=_int_at_least(0), default=0)
    c.add_argument("--replicates", type=_int_at_least(1), default=30)
    c.add_argument("--seed", type=_int_at_least(0), default=0)
    c.add_argument("--threads", type=_int_at_least(1), help=_THREADS_HELP)
    c.add_argument("--transpose", action="store_true")
    c.add_argument("--truncate", action="store_true")
    c.add_argument("--hc-fallback", action="store_true")
    c.add_argument("--out")
    c.set_defaults(func=cmd_cluster)

    s = sub.add_parser("simulate", help="run synthetic-model experiments")
    g = s.add_mutually_exclusive_group(required=True)
    g.add_argument("--experiment", choices=["1a", "1b", "2a", "2b", "3", "4", "5"])
    g.add_argument("--config", help="JSON file with a single model config")
    s.add_argument("--reps", type=_int_at_least(1), default=None,
                   help="override the preset repetition count")
    s.add_argument("--seed", type=_int_at_least(0), default=0)
    s.add_argument("--methods", type=_methods_arg,
                   default=",".join(SIMULATE_METHODS))
    s.add_argument("--null-reps", type=_int_at_least(0), default=0)
    s.add_argument("--threads", type=_int_at_least(1), help=_THREADS_HELP)
    s.set_defaults(func=cmd_simulate)

    t = sub.add_parser("nulltable", help="simulate and store a null table")
    t.add_argument("--n", type=_int_at_least(2), required=True)
    t.add_argument("--reps", type=_int_at_least(1), required=True)
    t.add_argument("--seed", type=_int_at_least(0), default=0)
    t.add_argument("--out", required=True)
    t.add_argument("--threads", type=_int_at_least(1), help=_THREADS_HELP)
    t.set_defaults(func=cmd_nulltable)

    k = sub.add_parser("tailcheck", help="Monte-Carlo check of the score tails")
    k.add_argument("--n", type=_int_at_least(2), required=True)
    k.add_argument("--reps", type=_int_at_least(1), required=True)
    k.add_argument("--grid", type=_grid_arg, required=True,
                   help="comma-separated thresholds")
    k.add_argument("--alt", type=_alt_arg,
                   help="useful-feature spec 'delta=d1,..,dK;m=m1,..,mK'")
    k.add_argument("--seed", type=_int_at_least(0), default=0)
    k.add_argument("--threads", type=_int_at_least(1), help=_THREADS_HELP)
    k.set_defaults(func=cmd_tailcheck)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (IfpcaError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _exit_code(e)
    except MemoryError as e:
        # numpy names the allocation that failed; a bare MemoryError has no text.
        detail = f": {e}" if str(e) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
