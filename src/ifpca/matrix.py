"""Dense matrix primitives: column standardization, truncated left SVD, entrywise clipping."""

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

    @property
    def n(self):
        return self.u.shape[0]

    @property
    def k(self):
        return self.u.shape[1]


def validate_data_matrix(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("data matrix must be 2-dimensional")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 samples (rows)")
    if x.shape[1] < 1:
        raise ValueError("need at least 1 feature (column)")
    if not np.all(np.isfinite(x)):
        raise ValueError("data matrix contains non-finite entries")
    return x


def standardize_columns(x, drop_constant=False):
    """Center each column and scale to unit sample SD (n-1 denominator).

    Constant columns raise ZeroVarianceColumn unless drop_constant is set, in
    which case they are removed and the surviving index map is recorded.
    """
    x = validate_data_matrix(x)
    mean = x.mean(axis=0)
    # np.std's temporary is freed before the centered copy is made, so the
    # peak is the input and one copy.
    sd = x.std(axis=0, ddof=1)
    w = x - mean
    zero = np.flatnonzero(sd == 0.0)
    keep = np.arange(x.shape[1])
    if zero.size:
        if not drop_constant:
            raise ZeroVarianceColumn(int(zero[0]))
        keep = np.flatnonzero(sd > 0.0)
        if keep.size == 0:
            raise ZeroVarianceColumn(int(zero[0]))
        w, mean, sd = w[:, keep], mean[keep], sd[keep]
    w /= sd
    return StandardizedMatrix(values=w, col_mean=mean, col_sd=sd,
                              kept_columns=keep)


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
    the tall side u = a v / sigma, re-orthonormalized.  Warns
    DegenerateGapWarning when the k-th and (k+1)-th singular values are
    closer than GAP_TOL * sigma_1.

    The solver is numpy's, as in cluster.row_space: numpy and scipy each
    load their own OpenBLAS, and each keeps worker threads spinning for a
    while after a call, so calling both in one pipeline can leave more busy
    threads than cores and slow the interpreter thread.
    """
    a = np.asarray(a, dtype=np.float64)
    n, p = a.shape
    if not 1 <= k <= min(n, p):
        raise ValueError(f"k={k} must lie in [1, min(n, p)={min(n, p)}]")

    left_side = n <= p
    g = a @ a.T if left_side else a.T @ a
    m = g.shape[0]
    kb = min(k + 1, m)
    evals, vecs = np.linalg.eigh(g)
    eigs, q = evals[::-1][:kb], vecs[:, ::-1][:, :kb]

    sigma = np.sqrt(np.clip(eigs, 0.0, None))
    if kb > k and sigma[0] > 0 and (sigma[k - 1] - sigma[k]) < GAP_TOL * sigma[0]:
        warnings.warn("singular-value gap below GAP_TOL * sigma_1", DegenerateGapWarning)
    sigma = sigma[:k]

    if left_side:
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
