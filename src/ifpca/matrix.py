"""Dense matrix primitives: column standardization, Gram matrix, truncated left SVD, clipping."""

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from ._parallel import parallel_map
from .errors import DegenerateGapWarning

# Relative trailing-gap size below which the leading subspace is flagged.
GAP_TOL = 1e-10

# Columns per block of standardize_columns.  At n=577 a block's one
# temporary, its centered copy squared in place, is 2.4 MB per worker, no
# larger than a KS block's copy; 1024-column blocks raised the peak RSS of a
# run of 1b ops by ~6 MB.
_STD_BLOCK = 512


@dataclass(frozen=True)
class StandardizedMatrix:
    """The data x with the per-column statistics that standardize it.

    W[i, j] = (x[i, k] - col_mean[j]) / col_sd[j] for k = kept_columns[j],
    with col_sd using the n-1 denominator.  kept_columns maps W's columns
    back to x's, whose constant columns W leaves out.
    W is not stored: columns(cols) forms the columns asked for, and a Gram
    sums W·W′ from blocks of them.
    """

    x: np.ndarray
    col_mean: np.ndarray
    col_sd: np.ndarray
    kept_columns: np.ndarray

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def p(self):
        return self.kept_columns.size

    def columns(self, cols=slice(None)):
        """W[:, cols] in a new array, cols a slice or an index array into W's
        columns, centered and scaled in place.  An index array gathers x's
        columns row by row (np.take, faster than x[:, cols]) in C order; a
        slice reads them in x's memory order, from a view of x when no column
        was dropped."""
        view = isinstance(cols, slice) and self.p == self.x.shape[1]
        if view:
            src = self.x[:, cols]
        elif isinstance(cols, slice):
            src = self.x[:, self.kept_columns[cols]]
        else:
            src = np.take(self.x, self.kept_columns[cols], axis=1)
        w = np.subtract(src, self.col_mean[cols], out=None if view else src)
        w /= self.col_sd[cols]
        return w


@dataclass(frozen=True)
class SpectralEmbedding:
    """Leading left singular vectors (columns of u) with singular values, descending."""

    u: np.ndarray
    singular_values: np.ndarray


def standardize_columns(x, threads=None):
    """Column means and sample SDs (n-1 denominator) of x, as the
    StandardizedMatrix that forms W from x; W itself is not formed here.

    Constant columns (every entry equal, or a computed SD of 0) have no
    standardized values: they are left out of W, and kept_columns records
    the columns that remain.  A matrix of constant columns only, and a
    column whose mean or SD overflows, raise ValueError.  Blocks of about
    _STD_BLOCK columns run on `threads` workers (None: every usable core,
    for a large enough x; see _parallel.workers); values do not depend on
    either.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("data matrix must be 2-dimensional")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 samples (rows)")
    if x.shape[1] < 1:
        raise ValueError("need at least 1 feature (column)")
    n, p = x.shape
    mean, sd = np.empty(p), np.empty(p)
    finite, constant = np.empty(p, dtype=bool), np.empty(p, dtype=bool)

    # Non-finite entries and sums that overflow are refused below; errstate
    # is set per thread.
    @np.errstate(over="ignore", invalid="ignore")
    def standardize_block(cols):
        # x.mean(axis=0) and x.std(axis=0, ddof=1)'s own arithmetic, one
        # pass over the block: a column sum over n, divided by n; the
        # centered block; the sum of its squares, divided by n - 1.
        xb = x[:, cols]
        finite[cols] = np.isfinite(xb).all(axis=0)
        mean[cols] = xb.sum(axis=0) / n
        centered = xb - mean[cols]
        sd[cols] = np.sqrt(np.square(centered, out=centered).sum(axis=0) / (n - 1))
        # A constant column whose mean does not round to its value gets an
        # SD of order eps, not 0, so constancy is equality to the first row.
        constant[cols] = (xb == xb[0]).all(axis=0) | (sd[cols] == 0.0)

    # numpy sums a lone column of a C-ordered block pairwise, not row by
    # row as it does a wider block or the whole matrix, so a last block of
    # one column joins the block before it.
    edges = list(range(0, p, _STD_BLOCK)) + [p]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    parallel_map(standardize_block, map(slice, edges[:-1], edges[1:]),
                 threads, n * p)
    if not finite.all():
        raise ValueError("data matrix contains non-finite entries")
    # A non-finite mean makes the SD non-finite too.
    overflow = np.flatnonzero(~constant & ~np.isfinite(sd))
    if overflow.size:
        raise ValueError(f"column {overflow[0]}: its mean or SD overflows")
    keep = np.flatnonzero(~constant)
    if not keep.size:
        raise ValueError("every column is constant (zero variance)")
    return StandardizedMatrix(x=x, col_mean=mean[keep], col_sd=sd[keep],
                              kept_columns=keep)


def sq_dists(a, b, a_sq=None):
    """Squared Euclidean distances between the rows of a (n×p) and of b:
    n×K for b K×p, r×n×K for a stack b r×K×p.  |a|² + |b|² − 2ab′ from one
    matrix product; a_sq is |a|² when the caller has it.

    The product is b a′, much faster than a b′ for the n×p by p×K product,
    so the distances are formed K×n and returned as a transposed view.
    """
    if a_sq is None:
        a_sq = np.einsum("ij,ij->i", a, a)
    b_sq = np.einsum("...j,...j->...", b, b)
    return _sq_dists_of(a_sq, b_sq, b @ a.T, a.shape[1])


def _sq_dists_of(a_sq, b_sq, ba, p):
    """sq_dists from the norms and the product ba = b a′ of rows of width p.
    Adding the norms first keeps the distances of a to itself exactly
    symmetric.  Values within the rounding error 2(p+2)·eps·(|a|²+|b|²) of 0
    are set to 0, so equal rows are at distance 0 and tie exactly."""
    ab2 = np.multiply(ba, 2.0)
    d2 = b_sq[..., None] + a_sq
    tol = d2 * (2 * (p + 2) * np.finfo(np.float64).eps)
    d2 -= ab2
    d2[d2 <= tol] = 0.0
    return np.swapaxes(d2, -1, -2)


# Cells of W per block a Gram is summed from: 4 MiB of float64, about 900
# columns at n=577.  More, smaller products cost time: at n=577 on two cores
# these blocks formed the Gram of 5,000 or 20,000 columns 15-18 % slower
# than one product of all of them, which holds 23 or 92 MB.  A W of at most
# this many cells is one block, whose Gram is the one product W·W′.
GRAM_CELLS = 1 << 19


class Gram:
    """g = W·W′ of a float64 n×p matrix W, W's row norms `sq`, and what is
    derived from them, each formed on first use: eigh(g), the squared
    distances `d2` between W's rows, and W's `row_space`.  truncated_left_svd,
    cluster.kmeans and cluster.hierarchical_complete take it in place of W.
    W's columns must be centered for the last two: d2 is |a|² + |b|² − 2ab′,
    whose rounding error grows with the distance of the rows from the origin.

    W is given by its `shape` and by `columns(s)`, which forms W[:, s] for a
    slice s of its columns; Gram.of(w) takes an array.  g and sq are sums
    over blocks of at most GRAM_CELLS cells, each formed, multiplied and
    dropped, so W is never held whole.  row_space's check of rows at
    distance 0 forms them again.
    """

    def __init__(self, columns, shape):
        self.columns, self.shape = columns, tuple(shape)
        n, p = self.shape
        step = max(1, GRAM_CELLS // max(n, 1))
        self.slices = [slice(j, min(j + step, p)) for j in range(0, max(p, 1), step)]
        for s in self.slices:
            b = columns(s)
            if s.start == 0:
                self.g, self.sq = b @ b.T, np.einsum("ij,ij->i", b, b)
            else:
                self.g += b @ b.T
                self.sq += np.einsum("ij,ij->i", b, b)
            del b       # before the next block is formed

    @classmethod
    def of(cls, w):
        return cls(lambda s: w[:, s], w.shape)

    @functools.cached_property
    def eigh(self):
        return np.linalg.eigh(self.g)

    @functools.cached_property
    def d2(self):
        """sq_dists(W, W): n×n, exactly symmetric, 0 within its tolerance band."""
        return _sq_dists_of(self.sq, self.sq, self.g, self.shape[1])

    def _row_classes(self):
        """Class ids of W's rows, equal for rows equal in every entry: refined
        block by block by the bytes of the block's rows (adding 0.0 turns
        -0.0 into 0.0, so that equal bytes are equal values)."""
        n = self.shape[0]
        ids = np.zeros(n, dtype=np.intp)
        for s in self.slices:
            b = np.ascontiguousarray(self.columns(s) + 0.0)
            rows = b.view(np.dtype((np.void, b.itemsize * b.shape[1])))[:, 0]
            ids = np.unique(ids * n + np.unique(rows, return_inverse=True)[1],
                            return_inverse=True)[1]
        return ids

    @functools.cached_property
    def row_space(self):
        """(Y, |Y|²) for W with centered columns: the rows of Y = Q·sqrt(Λ),
        from eigh of the Gram matrix QΛQ′ of W's distinct rows, are n points
        in m ≤ n dimensions (m distinct rows) with W's pairwise distances,
        and the same distances to any mean of them (classical MDS, Torgerson
        1952).

        Equal rows get bit-equal rows of Y, so exact ties stay exact.  Only
        rows at distance 0 in d2 are compared; when every row is distinct, Q
        and Λ are g's own eigh.
        """
        n = self.shape[0]
        first = np.arange(n)        # the lowest index of each row's equal rows
        pairs = np.argwhere(np.triu(self.d2 == 0, 1))
        if len(pairs):
            ids = self._row_classes()
            for i, j in pairs[ids[pairs[:, 0]] == ids[pairs[:, 1]]]:
                if first[i] == i and first[j] == j:
                    first[j] = i
        distinct = first == np.arange(n)
        lam, q = self.eigh if distinct.all() else \
            np.linalg.eigh(self.g[np.ix_(distinct, distinct)])
        y = (q * np.sqrt(np.clip(lam, 0.0, None)))[(np.cumsum(distinct) - 1)[first]]
        return y, np.einsum("ij,ij->i", y, y)


def _fix_signs(u):
    # Largest-magnitude entry of each column made positive; ties to lowest row.
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[idx, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs


def truncated_left_svd(a, k):
    """Leading k left singular vectors/values of a, from one eigendecomposition.

    One symmetric eigensolver call on the smaller Gram matrix (a a' when
    n <= p, else a' a, of order m) gives its top min(k+1, m) eigenpairs; on
    the tall side u = a v / sigma, re-orthonormalized.  Given Gram(a) in
    place of a, its eigh of a a' is used.  Warns DegenerateGapWarning when
    the k-th and (k+1)-th singular values are closer than GAP_TOL * sigma_1.

    The solver is numpy's, here and in Gram: numpy and scipy each load
    their own OpenBLAS, and each keeps worker threads spinning for a while
    after a call, so calling both in one pipeline can leave more busy
    threads than cores and slow the interpreter thread.  No run loads
    scipy.linalg.  scipy.special, which the KS statistic imports, maps
    scipy's OpenBLAS and starts one idle worker thread, but calls none of it.
    """
    gram = a if isinstance(a, Gram) else None
    if gram is None:
        a = np.asarray(a, dtype=np.float64)
    n, p = a.shape
    if not 1 <= k <= min(n, p):
        raise ValueError(f"k={k} must lie in [1, min(n, p)={min(n, p)}]")

    if gram is None and n <= p:
        gram = Gram.of(a)
    evals, vecs = np.linalg.eigh(a.T @ a) if gram is None else gram.eigh
    kb = min(k + 1, len(evals))
    eigs, q = evals[::-1][:kb], vecs[:, ::-1][:, :kb]

    sigma = np.sqrt(np.clip(eigs, 0.0, None))
    if kb > k and sigma[0] > 0 and (sigma[k - 1] - sigma[k]) < GAP_TOL * sigma[0]:
        warnings.warn("singular-value gap below GAP_TOL * sigma_1", DegenerateGapWarning)
    sigma = sigma[:k]

    if gram is not None:
        u = q[:, :k]
    else:
        v = q[:, :k]
        av = a @ v
        safe = np.where(sigma > 0, sigma, 1.0)
        u = av / safe
        # Re-orthonormalize against roundoff for tiny singular values.
        u, _ = np.linalg.qr(u)
    u = _fix_signs(u)
    return SpectralEmbedding(u=u, singular_values=sigma)


def entrywise_truncate(emb, threshold):
    """Clip every entry of the embedding to [-threshold, threshold].

    Column orthonormality is not preserved.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    u = np.clip(emb.u, -threshold, threshold)
    return SpectralEmbedding(u=u, singular_values=emb.singular_values.copy())
