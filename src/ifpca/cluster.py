"""Clustering engines: Lloyd k-means with replicates, k-means++ seeding,
complete-linkage agglomerative clustering, and relabeling-minimized Hamming error."""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InvalidK

LLOYD_MAX_ITER = 300


@dataclass(frozen=True)
class KmeansResult:
    labels: np.ndarray          # in {1..K}
    centers: np.ndarray
    wcss: float
    replicate_id: int
    iterations: int


def _assign(points, centers):
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1), d2


def _lloyd(points, centers, max_iter=LLOYD_MAX_ITER):
    n, _ = points.shape
    k = centers.shape[0]
    labels, d2 = _assign(points, centers)
    prev_wcss = np.inf
    for it in range(1, max_iter + 1):
        for c in range(k):
            mask = labels == c
            if mask.any():
                centers[c] = points[mask].mean(axis=0)
            else:
                # Empty cluster: reseed at the point farthest from the stale center.
                far = ((points - centers[c]) ** 2).sum(axis=1).argmax()
                centers[c] = points[far]
        new_labels, d2 = _assign(points, centers)
        wcss = float(d2[np.arange(n), new_labels].sum())
        assert wcss <= prev_wcss + 1e-9 * max(1.0, abs(prev_wcss)), \
            "Lloyd objective increased"
        prev_wcss = wcss
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    wcss = float(d2[np.arange(n), labels].sum())
    return labels, centers, wcss, it


def kmeanspp_seed(points, k, rng):
    """k-means++ seeding: next center drawn proportional to squared distance
    to the nearest chosen center (uniform fallback when all distances vanish)."""
    n = points.shape[0]
    if n < k:
        raise InvalidK(f"K={k} exceeds n={n}")
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            centers[c] = points[rng.choice(n, p=probs)]
        else:
            centers[c] = points[rng.integers(n)]
        d2 = np.minimum(d2, ((points - centers[c]) ** 2).sum(axis=1))
    return centers


def _uniform_seed(points, k, rng):
    idx = rng.choice(points.shape[0], size=k, replace=False)
    return points[idx].copy()


def kmeans(points, k, replicates=30, seed=0, init="uniform-sample", threads=1):
    """Lloyd k-means, best of `replicates` runs by within-cluster sum of squares.

    Each replicate derives its RNG from (seed, replicate index), so the result
    is deterministic for any thread count.  Ties go to the lowest replicate id.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    if not 1 <= k <= n:
        raise InvalidK(f"K={k} must lie in [1, n={n}]")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")

    def one(rep):
        rng = np.random.default_rng([seed, rep])
        if init == "plusplus":
            centers = kmeanspp_seed(points, k, rng)
        elif init == "uniform-sample":
            centers = _uniform_seed(points, k, rng)
        else:
            raise ValueError(f"unknown init: {init}")
        return _lloyd(points, centers)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            runs = list(ex.map(one, range(replicates)))
    else:
        runs = [one(rep) for rep in range(replicates)]

    best = min(range(replicates), key=lambda r: (runs[r][2], r))
    labels, centers, wcss, iters = runs[best]
    return KmeansResult(labels=labels + 1, centers=centers, wcss=wcss,
                        replicate_id=best, iterations=iters)


def hierarchical_complete(points, k):
    """Agglomerative clustering with complete linkage and Euclidean distance.

    Clusters are kept ordered by smallest member index, so distance ties merge
    the lexicographically smallest (i, j) pair.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    if not 1 <= k <= n:
        raise InvalidK(f"K={k} must lie in [1, n={n}]")

    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(d, np.inf)
    members = [[i] for i in range(n)]
    while len(members) > k:
        m = len(members)
        i, j = divmod(int(np.argmin(d)), m)
        if i > j:
            i, j = j, i
        # Complete linkage: merged distance is the max of the two rows.  The
        # merged cluster stays at position i, keeping the list ordered by
        # smallest member, so row-major argmin realizes the lexicographic
        # (i, j) tie rule.
        merged = np.maximum(d[i], d[j])
        d[i] = merged
        d[:, i] = merged
        d[i, i] = np.inf
        members[i] = members[i] + members[j]
        d = np.delete(np.delete(d, j, axis=0), j, axis=1)
        members.pop(j)
    labels = np.empty(n, dtype=np.int64)
    for c, mem in enumerate(members):
        labels[mem] = c + 1
    return labels


def hamming_error(yhat, y, k):
    """Fraction of mismatches, minimized over all K! relabelings of the truth.

    The best relabeling is a maximum-weight assignment on the confusion
    matrix (Kuhn 1955), exact for any K.
    """
    yhat = np.asarray(yhat)
    y = np.asarray(y)
    if yhat.size != y.size:
        raise ValueError("label vectors must have equal length")
    n = y.size
    # Confusion counts: C[a, b] = #{i : yhat_i = a+1, y_i = b+1}.
    conf = np.zeros((k, k), dtype=np.int64)
    np.add.at(conf, (yhat - 1, y - 1), 1)
    rows, cols = linear_sum_assignment(conf, maximize=True)
    best = int(conf[rows, cols].sum())
    return (n - best) / n
