"""Feature screening: KS scores, Monte-Carlo null tables, renormalization, p-values."""

import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from ._parallel import parallel_map
from .errors import EmptySelection, ZeroSpread

# Consistency factor making MAD match the SD under normality.
MAD_SCALE = 1.4826

# Rows per chunk of draws are this over n: fixed so that null-table contents
# do not depend on the worker count.
_NULL_CHUNK_TARGET = 4_000_000

# Cache-sized pieces of work: ks_scores sorts and scores _KS_BLOCK columns at
# a time (2.4 MB at n=577), and _draw_scores draws and scores a chunk
# _NULL_BUFFER_CELLS cells at a time (1.2 MB).  Neither changes any value.
_KS_BLOCK = 512
_NULL_BUFFER_CELLS = 150_000

# Sample size from which _ks_of_sorted evaluates Phi block by block; below
# it, blocks of floor(sqrt(n)/6) < 2 order statistics would save nothing.
_PRUNE_MIN_N = 144


@dataclass(frozen=True)
class KsScores:
    """Per-feature KS scores, raw or normalized (normalize_scores)."""

    scores: np.ndarray

    @property
    def p(self):
        return self.scores.size


@dataclass(frozen=True)
class NullTable:
    """Sorted Monte-Carlo sample of the null screening statistic."""

    n: int
    seed: int
    values: np.ndarray  # ascending

    @property
    def size(self):
        return self.values.size


def _ks_of_sorted(srt, center, scale):
    """sqrt(n) * max over each row of max(i/n - Phi(z_i), Phi(z_i) - (i-1)/n),
    z = (v - center) / scale, srt an r×n array of rows v sorted ascending and
    center, scale length-r arrays with scale > 0.

    The closed form of the sup-distance between the empirical CDF of z and
    the N(0,1) CDF: the sup is attained at a jump point, from one side or the
    other.  (v - c) / s with s > 0 is monotone non-decreasing in v under IEEE
    rounding, so each row of z is sorted too, bit-equal to the row
    standardized first and sorted after, and the map is applied only where
    Phi is evaluated.  srt may be overwritten, so callers pass an array they
    own.

    From n = _PRUNE_MIN_N on, Phi is evaluated only at every B-th order
    statistic (B = floor(sqrt(n)/6)) and the last.  Phi is monotone, so on a
    block [a, a+B) i/n - Phi is at most min(a+B, n)/n - Phi(z_a), and
    Phi - (i-1)/n at most Phi(z at the next block's start, or the last) - a/n.
    Only blocks whose bound reaches the best value at the evaluated points,
    less 1e-12, are evaluated in full.  Every candidate for the maximum is
    the same expression as on the every-entry path, so the result is too.
    """
    # ks_scores and _draw_scores make the first import before their
    # workers start.
    from scipy.special import ndtr

    def phi_at(v, c, s):
        # Phi((v - c) / s), in place: v is a copy or srt itself.  A zero
        # center (the null draws, centered already) is not subtracted:
        # v - 0 is v, up to the sign of a zero, which Phi does not see.
        if c.any():
            v -= c
        v /= s
        return ndtr(v, out=v)

    n = srt.shape[1]
    i = np.arange(1.0, n + 1)
    up, down = i / n, (i - 1.0) / n
    if n < _PRUNE_MIN_N:
        phi = phi_at(srt, center[:, None], scale[:, None])
        above = (up - phi).max(axis=1)
        phi -= down
        return np.sqrt(n) * np.maximum(above, phi.max(axis=1))
    b = math.isqrt(n) // 6
    starts = np.arange(0, n, b)
    probe = np.append(starts, n - 1)
    phi = phi_at(srt[:, probe], center[:, None], scale[:, None])
    best = np.maximum(up[probe] - phi, phi - down[probe]).max(axis=1)
    bound = np.maximum(up[np.minimum(starts + b, n) - 1] - phi[:, :-1],
                       phi[:, 1:] - down[starts])
    rows, blocks = np.divmod(np.flatnonzero(bound >= (best - 1e-12)[:, None]),
                             bound.shape[1])
    # The surviving blocks' entries, one block per column (a short last block
    # repeats index n - 1, which leaves its maximum as it is).
    idx = np.minimum(starts[blocks] + np.arange(b)[:, None], n - 1)
    phi = phi_at(srt[rows, idx], center[rows], scale[rows])
    np.maximum.at(best, rows, np.maximum(up[idx] - phi, phi - down[idx]).max(axis=0))
    return np.sqrt(n) * best


def ks_of_standardized(v):
    """sqrt(n) * sup-distance between the empirical CDF of v and the N(0,1) CDF."""
    v = np.asarray(v, dtype=np.float64)
    if v.size < 1:
        raise ValueError("need at least one value")
    return float(_ks_of_sorted(np.sort(v.ravel())[None], np.zeros(1), np.ones(1))[0])


def ks_scores(w, threads=None):
    """KS score of every column of a StandardizedMatrix, from x's kept
    columns, in blocks of _KS_BLOCK columns on `threads` workers (None: every
    usable core, for a large enough W; see _parallel.workers).  W is not
    formed: _ks_of_sorted standardizes the sorted values where it needs them."""
    xt, kept = w.x.T, w.kept_columns

    def score_block(j):
        cols = slice(j, j + _KS_BLOCK)
        # Rows gathered from x's transpose are a C-ordered copy, which is
        # sorted and overwritten.
        blk = xt[kept[cols]]
        blk.sort(axis=1)
        return _ks_of_sorted(blk, w.col_mean[cols], w.col_sd[cols])

    # The kernel's scipy.special, imported on this thread before the workers
    # start, so that no two of them make the first import at once.
    import scipy.special  # noqa: F401
    return KsScores(scores=np.concatenate(parallel_map(
        score_block, range(0, w.p, _KS_BLOCK), threads, w.n * w.p)))


def _null_psi_batch(z):
    """KS scores for a batch of draws, one draw per row, after row standardization.

    z is overwritten.  Rows are centered in place and scaled, where the
    kernel evaluates Phi, by np.std(ddof=1)'s own arithmetic on the centered
    rows, so the values equal (z - mean) / std.
    """
    z -= z.mean(axis=1, keepdims=True)
    sd = np.sqrt(np.square(z).sum(axis=1) / (z.shape[1] - 1))
    z.sort(axis=1)
    return _ks_of_sorted(z, np.zeros(len(z)), sd)


def _draw_scores(n, reps, seed, threads, draw):
    """`reps` screening statistics at sample size n, in order: draw(rng, z)
    fills each buffer z of r×n samples, which are standardized and scored by
    row.  Chunks of _NULL_CHUNK_TARGET // n draws, each from a generator
    seeded with (seed, chunk index), run on `threads` workers (None: every
    usable core, for enough draws; see _parallel.workers).  Chunk and buffer
    sizes depend only on n, so the draws are identical for any thread count."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    chunk = max(1, _NULL_CHUNK_TARGET // n)
    rows = max(1, _NULL_BUFFER_CELLS // n)
    values = np.empty(reps)

    def fill_chunk(start):
        rng = np.random.default_rng([seed, start // chunk])
        buf = np.empty((rows, n))
        end = min(start + chunk, reps)
        for lo in range(start, end, rows):
            z = buf[:min(rows, end - lo)]
            draw(rng, z)
            values[lo:lo + z.shape[0]] = _null_psi_batch(z)

    # As in ks_scores: the kernel's import, before the workers start.
    import scipy.special  # noqa: F401
    parallel_map(fill_chunk, range(0, reps, chunk), threads, reps * n)
    return values


def build_null_table(n, reps, seed, threads=None):
    """Simulate `reps` draws of the null statistic at sample size n: n iid
    N(0,1) samples, standardized and scored exactly as the pipeline scores a
    feature (see _draw_scores)."""
    values = _draw_scores(n, reps, seed, threads,
                          lambda rng, z: rng.standard_normal(out=z))
    values.sort()
    return NullTable(n=n, seed=seed, values=values)


def simulate_alt_scores(n, reps, delta, m, seed, threads=None):
    """`reps` draws of the screening statistic at a useful feature: n samples
    N(m[c], 1) with class c ~ delta, drawn and scored as build_null_table's
    (see _draw_scores)."""
    m = np.asarray(m, dtype=np.float64)

    def draw(rng, z):
        labels = rng.choice(m.size, size=z.shape, p=delta)
        rng.standard_normal(out=z)
        z += m[labels]

    return _draw_scores(n, reps, seed, threads, draw)


def default_null_size(p):
    """Desk-scale default table size; resolution stays far below 1/p."""
    return max(10**6, 100 * p)


def _center_scale(v, mode, what):
    """(center, scale) of v: mean and SD for 'meanstd', median and MAD_SCALE * MAD
    for 'medmad'.  Raises ValueError, naming `what`, when v holds fewer than
    2 values, and ZeroSpread when the spread is zero."""
    if v.size < 2:
        raise ValueError(f"need at least 2 values in {what}, got {v.size}")
    if mode == "meanstd":
        sd = v.std(ddof=1)
        if sd == 0:
            raise ZeroSpread(f"SD of {what} is zero")
        return v.mean(), sd
    if mode == "medmad":
        med = np.median(v)
        mad = np.median(np.abs(v - med))
        if mad == 0:
            raise ZeroSpread(f"MAD of {what} is zero")
        return med, MAD_SCALE * mad
    raise ValueError(f"unknown normalization mode: {mode}")


def normalize_scores(ks, mode, null=None):
    """Renormalize raw KS scores: 'meanstd', 'medmad', 'lower50', or 'none'."""
    s = ks.scores
    if mode == "none":
        return ks
    if mode == "lower50":
        if null is None:
            raise ValueError("lower50 normalization requires a null table")
        low_obs = np.sort(s)[: s.size // 2]
        low_null = null.values[: null.size // 2]
        center, scale = _center_scale(low_obs, "meanstd", "the lower half of KS scores")
        null_center, null_scale = _center_scale(low_null, "meanstd",
                                                "the lower half of the null table")
        out = (s - center) / scale * null_scale + null_center
    else:
        center, scale = _center_scale(s, mode, "KS scores")
        out = (s - center) / scale
    return KsScores(scores=out)


def null_reference_values(null, mode):
    """Null-table values on the same scale as `mode`-normalized scores.

    The empirical-null matching normalizes both sides: observed scores to
    their own center/spread and the null to its own, which is the same as
    shifting/scaling F0.  lower50 maps the scores onto the null scale, so the
    raw table is the reference.
    """
    v = null.values
    if mode in ("none", "lower50"):
        return v
    center, scale = _center_scale(v, mode, "the null table")
    return (v - center) / scale


def pvalues(scores, null_values):
    """Empirical p-values with add-one smoothing: (1 + #{null >= score}) / (N + 1).

    null_values must be sorted ascending and on the same scale as the scores.
    """
    s = np.atleast_1d(np.asarray(scores, dtype=np.float64))
    nv = np.asarray(null_values)
    big = nv.size - np.searchsorted(nv, s, side="left")
    return (1.0 + big) / (nv.size + 1.0)


def select_features(ks, t):
    """Indices (1-based) of features whose score is >= t; raises EmptySelection if none."""
    idx = np.flatnonzero(ks.scores >= t) + 1
    if idx.size == 0:
        raise EmptySelection(f"no score reaches threshold {t}")
    return idx


# ---------------------------------------------------------------------------
# NullTable serialization: text (.txt or anything non-.bin) and binary (.bin).

def _parse_null_header(line):
    m = re.fullmatch(r"ifpca-null v1, n=(\d+), N=(\d+), seed=(-?\d+)", line)
    n, reps, seed = map(int, m.groups()) if m else (0, 0, 0)
    if n < 2 or reps < 1:
        raise ValueError("expected a header 'ifpca-null v1, n=<n >= 2>, "
                         f"N=<N >= 1>, seed=<int>', got {line!r}")
    return n, reps, seed


def save_null_table(table, path):
    path = str(path)
    header = f"ifpca-null v1, n={table.n}, N={table.size}, seed={table.seed}"
    if path.endswith(".bin"):
        with open(path, "wb") as f:
            f.write((header + "\n").encode("ascii"))
            f.write(table.values.astype("<f8").tobytes())
    else:
        # Through a handle, so that a name ending in .gz is not compressed.
        with open(path, "w") as f:
            np.savetxt(f, table.values, fmt="%.17g", header=header, comments="")


def load_null_table(path):
    """Read a table written by save_null_table.  A file that does not decode,
    parse or hold N finite ascending values raises ValueError naming it."""
    path = str(path)
    try:
        if path.endswith(".bin"):
            with open(path, "rb") as f:
                header = f.readline().decode("ascii").rstrip("\n")
                n, reps, seed = _parse_null_header(header)
                values = np.frombuffer(f.read(8 * reps), dtype="<f8").copy()
                if f.read(1):
                    raise ValueError(f"bytes left after the {reps} values")
        else:
            with open(path) as f:
                n, reps, seed = _parse_null_header(f.readline().rstrip("\n"))
                with warnings.catch_warnings():
                    # A table without values is reported below as found 0.
                    warnings.filterwarnings(
                        "ignore", "loadtxt: input contained no data")
                    values = np.loadtxt(f, dtype=np.float64, ndmin=1)
        if values.size != reps:
            raise ValueError(f"expected {reps} values, found {values.size}")
        # pvalues (searchsorted) and lower50 (the lower half by position) read
        # it sorted.
        if not (np.isfinite(values).all() and (values[1:] >= values[:-1]).all()):
            raise ValueError("null-table values must be finite and ascending")
    except ValueError as e:  # UnicodeDecodeError included
        raise ValueError(f"{path}: {e}") from None
    return NullTable(n=n, seed=seed, values=values)
