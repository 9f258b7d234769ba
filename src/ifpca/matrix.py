"""Dense matrix primitives: column standardization, Gram matrix, truncated left SVD, clipping."""

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGapWarning, ZeroVarianceColumn

# Relative trailing-gap size below which the leading subspace is flagged.
GAP_TOL = 1e-10


@dataclass(frozen=True)
class StandardizedMatrix:
    """Column-standardized data with the per-column provenance that produced it.

    values[i, j] = (X[i, j] - col_mean[j]) / col_sd[j], with col_sd using the
    n-1 denominator.  kept_columns maps output columns back to input columns
    when constant columns were dropped (identity otherwise).
    """

    values: np.ndarray
    col_mean: np.ndarray
    col_sd: np.ndarray
    kept_columns: np.ndarray

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def p(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class SpectralEmbedding:
    """Leading left singular vectors (columns of u) with singular values, descending."""

    u: np.ndarray
    singular_values: np.ndarray


def standardize_columns(x, drop_constant=False):
    """Center each column and scale to unit sample SD (n-1 denominator).

    Constant columns (every entry equal, or a computed SD of 0) raise
    ZeroVarianceColumn unless drop_constant is set, in which case they are
    removed and the surviving index map is recorded.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("data matrix must be 2-dimensional")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 samples (rows)")
    if x.shape[1] < 1:
        raise ValueError("need at least 1 feature (column)")
    if not np.all(np.isfinite(x)):
        raise ValueError("data matrix contains non-finite entries")
    mean = x.mean(axis=0)
    # np.std's temporary is freed before the centered copy is made, so the
    # peak is the input and one copy.
    sd = x.std(axis=0, ddof=1)
    # A constant column whose mean does not round to its value gets an SD
    # of order eps, not 0, so constancy is equality to the first row.
    constant = (x == x[0]).all(axis=0) | (sd == 0.0)
    w = x - mean
    zero = np.flatnonzero(constant)
    keep = np.arange(x.shape[1])
    if zero.size:
        if not drop_constant:
            raise ZeroVarianceColumn(int(zero[0]))
        keep = np.flatnonzero(~constant)
        if keep.size == 0:
            raise ZeroVarianceColumn(int(zero[0]))
        w, mean, sd = w[:, keep], mean[keep], sd[keep]
    w /= sd
    return StandardizedMatrix(values=w, col_mean=mean, col_sd=sd,
                              kept_columns=keep)


def sq_dists(a, b, a_sq=None, ba=None):
    """Squared Euclidean distances between the rows of a (n×p) and of b:
    n×K for b K×p, r×n×K for a stack b r×K×p.  |a|² + |b|² − 2ab′ from one
    matrix product; a_sq is |a|², and ba the product b a′ (for b = a, the g
    of Gram), when the caller has them.

    The product is b a′, much faster than a b′ for the n×p by p×K product,
    so the distances are formed K×n and returned as a transposed view.
    Adding the norms first keeps sq_dists(a, a) exactly symmetric.  Values
    within the rounding error 2(p+2)·eps·(|a|²+|b|²) of 0 are set to 0, so
    equal rows are at distance 0 and tie exactly.
    """
    ab2 = np.multiply(b @ a.T if ba is None else ba, 2.0)
    if a_sq is None:
        a_sq = np.einsum("ij,ij->i", a, a)
    b_sq = a_sq if b is a else np.einsum("...j,...j->...", b, b)
    d2 = b_sq[..., None] + a_sq
    tol = d2 * (2 * (a.shape[1] + 2) * np.finfo(np.float64).eps)
    d2 -= ab2
    d2[d2 <= tol] = 0.0
    return np.swapaxes(d2, -1, -2)


class Gram:
    """g = W·W′ of a float64 n×p matrix W, W's row norms `sq`, and what is
    derived from them, each formed on first use: eigh(g), the squared
    distances `d2` between W's rows, and W's `row_space`.  truncated_left_svd,
    cluster.kmeans and cluster.hierarchical_complete take it in place of W.
    """

    def __init__(self, rows):
        self.rows, self.shape = rows, rows.shape
        self.g = rows @ rows.T
        self.sq = np.einsum("ij,ij->i", rows, rows)

    @functools.cached_property
    def eigh(self):
        return np.linalg.eigh(self.g)

    @functools.cached_property
    def d2(self):
        """sq_dists(W, W): n×n, exactly symmetric, 0 within its tolerance band."""
        return sq_dists(self.rows, self.rows, self.sq, self.g)

    @functools.cached_property
    def row_space(self):
        """(Y, |Y|²) for W with centered columns: the rows of Y = Q·sqrt(Λ),
        from eigh of the Gram matrix QΛQ′ of W's distinct rows, are n points
        in m ≤ n dimensions (m distinct rows) with W's pairwise distances,
        and the same distances to any mean of them (classical MDS, Torgerson
        1952).

        Equal rows get bit-equal rows of Y, so exact ties stay exact.  Rows
        at distance 0 in d2 are compared; when every row is distinct, Q and
        Λ are g's own eigh.
        """
        n = len(self.rows)
        first = np.arange(n)        # the lowest index of each row's equal rows
        for i, j in zip(*np.nonzero(np.triu(self.d2 == 0, 1))):
            if first[i] == i and first[j] == j and np.array_equal(self.rows[i], self.rows[j]):
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
    threads than cores and slow the interpreter thread.
    """
    gram = a if isinstance(a, Gram) else None
    a = np.asarray(a if gram is None else a.rows, dtype=np.float64)
    n, p = a.shape
    if not 1 <= k <= min(n, p):
        raise ValueError(f"k={k} must lie in [1, min(n, p)={min(n, p)}]")

    if gram is None and n <= p:
        gram = Gram(a)
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
