"""Clustering engines: Lloyd k-means with replicates, k-means++ seeding,
complete-linkage agglomerative clustering, and relabeling-minimized Hamming error."""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from ._parallel import parallel_map
from .errors import InvalidK

LLOYD_MAX_ITER = 300


@dataclass(frozen=True)
class KmeansResult:
    labels: np.ndarray          # in {1..K}
    centers: np.ndarray
    wcss: float
    replicate_id: int
    iterations: int


def _sq_dists(a, b):
    """Squared Euclidean distances between the rows of a and of b,
    |a|² + |b|² − 2ab′ from one matrix product.

    (b a′)′ is much faster than a b′ for the n×p by p×K product.  Adding the
    norms first keeps _sq_dists(a, a) exactly symmetric.  Values within the
    rounding error 2(p+2)·eps·(|a|²+|b|²) of 0 are set to 0, so equal rows
    are at distance 0 and tie exactly.
    """
    ab2 = b @ a.T
    ab2 *= 2.0
    d2 = np.add.outer(np.einsum("ij,ij->i", a, a), np.einsum("ij,ij->i", b, b))
    tol = d2 * (2 * (a.shape[1] + 2) * np.finfo(np.float64).eps)
    d2 -= ab2.T
    d2[d2 <= tol] = 0.0
    return d2


def _assign(points, centers):
    d2 = _sq_dists(points, centers)
    # Equal centers get the first one's column, so their ties go to the lower
    # index; the product can give equal centers columns a few ulps apart.
    first = {}
    for c, row in enumerate(centers):
        f = first.setdefault(row.tobytes(), c)
        if f != c:
            d2[:, c] = d2[:, f]
    return d2.argmin(axis=1), d2


def _label_means(points, labels, centers, empty_row):
    """Set row c of centers to the mean of the points labelled c, or to
    points[empty_row(c)] when no point is."""
    for c in range(centers.shape[0]):
        mask = labels == c
        centers[c] = points[mask].mean(axis=0) if mask.any() else points[empty_row(c)]
    return centers


def _lloyd(points, centers):
    n, _ = points.shape
    labels, d2 = _assign(points, centers)
    prev_wcss = np.inf
    for it in range(1, LLOYD_MAX_ITER + 1):
        # An empty cluster is reseeded at the point farthest from its stale center.
        _label_means(points, labels, centers,
                     lambda c: _sq_dists(points, centers[c:c + 1])[:, 0].argmax())
        new_labels, d2 = _assign(points, centers)
        wcss = float(d2[np.arange(n), new_labels].sum())
        assert wcss <= prev_wcss + 1e-9 * max(1.0, abs(prev_wcss)), \
            "Lloyd objective increased"
        prev_wcss = wcss
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    # The returned WCSS comes from the residuals, not from the GEMM distances,
    # so replicates that reach one partition tie exactly.
    wcss = float(((points - centers[labels]) ** 2).sum(axis=1).sum())
    return labels, centers, wcss, it


def kmeanspp_seed(points, k, rng):
    """k-means++ seeding: next center drawn proportional to squared distance
    to the nearest chosen center (uniform fallback when all distances vanish)."""
    n = points.shape[0]
    if n < k:
        raise InvalidK(f"K={k} exceeds n={n}")
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = _sq_dists(points, centers[:1])[:, 0]
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            centers[c] = points[rng.choice(n, p=probs)]
        else:
            centers[c] = points[rng.integers(n)]
        d2 = np.minimum(d2, _sq_dists(points, centers[c:c + 1])[:, 0])
    return centers


def _uniform_seed(points, k, rng):
    idx = rng.choice(points.shape[0], size=k, replace=False)
    return points[idx].copy()


def _row_space(points):
    """Rows of Y = Q·sqrt(Λ), from eigh of the Gram matrix QΛQ′ of the
    distinct rows of `points`: n points in m ≤ n dimensions (m distinct rows)
    with the same pairwise distances, and the same distances to any mean of
    them (classical MDS, Torgerson 1952).

    Equal rows of `points` get bit-equal rows of Y, so exact ties stay exact.
    Rows are matched by the hash of their bytes, confirmed by comparison.
    The eigensolver is numpy's, for the reason in truncated_left_svd.
    """
    buckets, distinct = {}, []
    inverse = np.empty(points.shape[0], dtype=np.intp)
    for i, row in enumerate(points):
        bucket = buckets.setdefault(hash(row.tobytes()), [])
        for j in bucket:
            if np.array_equal(points[distinct[j]], row):
                break
        else:
            j = len(distinct)
            bucket.append(j)
            distinct.append(i)
        inverse[i] = j
    gram = points @ points.T
    lam, q = np.linalg.eigh(gram[np.ix_(distinct, distinct)])
    q *= np.sqrt(np.clip(lam, 0.0, None))
    return q[inverse]


def kmeans(points, k, replicates=30, seed=0, init="uniform-sample", threads=1):
    """Lloyd k-means, best of `replicates` runs by within-cluster sum of squares.

    Each replicate derives its RNG from (seed, replicate index), so the result
    is deterministic for any thread count.  Ties go to the lowest replicate id.
    Replicates run on `threads` workers only on the row-space path below:
    on narrow inputs a replicate is too short to gain from a thread.

    Points wider than tall (p > n) are clustered on their n-dimensional row
    space (_row_space), where a Lloyd step costs O(n²) instead of O(np).  The
    distances are the same up to rounding, so labels, replicate id and
    iterations are those of Lloyd on the full width.  The WCSS is the row
    space's, within 1e-13 of the total sum of squares of the full-width
    value; centers are per-label means of the input rows, within 1e-13 of
    the largest input entry.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    if not 1 <= k <= n:
        raise InvalidK(f"K={k} must lie in [1, n={n}]")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    # Lloyd runs on centered points: |x|² + |c|² − 2x·c loses the distances
    # to cancellation when the data sit far from the origin.
    mean = points.mean(axis=0)
    points = points - mean
    wide = points.shape[1] > n
    space = _row_space(points) if wide else points

    def one(rep):
        rng = np.random.default_rng([seed, rep])
        if init == "plusplus":
            centers = kmeanspp_seed(space, k, rng)
        elif init == "uniform-sample":
            centers = _uniform_seed(space, k, rng)
        else:
            raise ValueError(f"unknown init: {init}")
        return _lloyd(space, centers)

    def wcss_of(rep_run):
        return rep_run[1][2]

    # min holds only the best run so far and keeps the first of equal WCSS,
    # so ties go to the lowest replicate id.
    runs = parallel_map(one, range(replicates), threads if wide else 1)
    best, (labels, centers, wcss, iters) = min(enumerate(runs), key=wcss_of)
    if wide:
        # A cluster empty at the end keeps the row it was reseeded at, the
        # row of the embedding at distance 0 from its center.
        space_centers = centers
        centers = _label_means(
            points, labels, np.empty((k, points.shape[1])),
            lambda c: ((space - space_centers[c]) ** 2).sum(axis=1).argmin())
    return KmeansResult(labels=labels + 1, centers=centers + mean, wcss=wcss,
                        replicate_id=best, iterations=iters)


def hierarchical_complete(points, k):
    """Agglomerative clustering with complete linkage and Euclidean distance.

    One n×n matrix of squared distances (merges depend only on their order)
    keeps memory at O(np + n²).  Each cluster lives at the row of its
    smallest member, and rows merged away are set to inf, so a row-major
    argmin merges the lexicographically smallest (i, j) pair on ties.
    Labels number the clusters by smallest member.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    if not 1 <= k <= n:
        raise InvalidK(f"K={k} must lie in [1, n={n}]")

    d = _sq_dists(points, points)
    np.fill_diagonal(d, np.inf)
    owner = np.arange(n)
    for _ in range(n - k):
        i, j = divmod(int(np.argmin(d)), n)
        if i > j:
            i, j = j, i
        # Complete linkage: the merged distance is the max of the two rows.
        merged = np.maximum(d[i], d[j])
        d[i] = merged
        d[:, i] = merged
        d[i, i] = np.inf
        d[j] = np.inf
        d[:, j] = np.inf
        owner[owner == j] = i
    return np.unique(owner, return_inverse=True)[1] + 1


def hamming_error(yhat, y, k):
    """Fraction of mismatches, minimized over all K! relabelings of the truth.

    The best relabeling is a maximum-weight assignment on the confusion
    matrix (Kuhn 1955), exact for any K.
    """
    yhat = np.asarray(yhat)
    y = np.asarray(y)
    if yhat.size != y.size:
        raise ValueError("label vectors must have equal length")
    if not all(((v >= 1) & (v <= k)).all() for v in (yhat, y)):
        raise ValueError(f"labels must lie in 1..{k}")
    n = y.size
    # Confusion counts: C[a, b] = #{i : yhat_i = a+1, y_i = b+1}.
    conf = np.zeros((k, k), dtype=np.int64)
    np.add.at(conf, (yhat - 1, y - 1), 1)
    rows, cols = linear_sum_assignment(conf, maximize=True)
    best = int(conf[rows, cols].sum())
    return (n - best) / n
