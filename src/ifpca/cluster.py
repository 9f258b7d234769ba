"""Clustering engines: Lloyd k-means with replicates, k-means++ seeding,
complete-linkage agglomerative clustering, and relabeling-minimized Hamming error."""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InvalidK

LLOYD_MAX_ITER = 300

# Replicates run Lloyd together in groups of at most this many n×K cells per
# stacked array (128 KiB of float64), so memory does not grow with their number.
GROUP_CELLS = 1 << 14


@dataclass(frozen=True)
class KmeansResult:
    labels: np.ndarray          # in {1..K}
    centers: np.ndarray
    wcss: float
    replicate_id: int
    iterations: int


def _sq_dists(a, b, a_sq=None):
    """Squared Euclidean distances between the rows of a (n×p) and of b:
    n×K for b K×p, r×n×K for a stack b r×K×p.  |a|² + |b|² − 2ab′ from one
    matrix product; a_sq is |a|² when the caller has it.

    The product is b a′, much faster than a b′ for the n×p by p×K product,
    so the distances are formed K×n and returned as a transposed view.
    Adding the norms first keeps _sq_dists(a, a) exactly symmetric.  Values
    within the rounding error 2(p+2)·eps·(|a|²+|b|²) of 0 are set to 0, so
    equal rows are at distance 0 and tie exactly.
    """
    ab2 = b @ a.T
    ab2 *= 2.0
    if a_sq is None:
        a_sq = np.einsum("ij,ij->i", a, a)
    d2 = np.einsum("...j,...j->...", b, b)[..., None] + a_sq
    tol = d2 * (2 * (a.shape[1] + 2) * np.finfo(np.float64).eps)
    d2 -= ab2
    d2[d2 <= tol] = 0.0
    return np.swapaxes(d2, -1, -2)


def _assign(points, x_sq, centers):
    """Nearest center of each point for each set of a r×K×d stack of centers,
    the lowest index on ties: labels (r×n) and squared distances (r×K×n);
    x_sq is |points|²."""
    d2 = np.swapaxes(_sq_dists(points, centers, x_sq), 1, 2)
    # Equal centers get the first one's row, so their ties go to the lower
    # index; the product can give equal centers distances a few ulps apart.
    # Equal centers are found by a stable sort of their bytes.
    r, k, d = centers.shape
    rows = np.ascontiguousarray(centers).view(np.dtype((np.void, 8 * d)))[..., 0]
    order = np.argsort(rows, axis=1, kind="stable")
    ranked = np.take_along_axis(rows, order, axis=1)
    repeat = np.zeros((r, k), dtype=bool)
    repeat[:, 1:] = ranked[:, 1:] == ranked[:, :-1]
    if repeat.any():
        # Each run of equal rows begins at its lowest index.
        start = np.maximum.accumulate(np.where(repeat, 0, np.arange(k)), axis=1)
        first = np.empty_like(order)
        np.put_along_axis(first, order, np.take_along_axis(order, start, axis=1),
                          axis=1)
        d2 = np.take_along_axis(d2, first[:, :, None], axis=1)
    # argmax finds the first center at the least distance.
    return (d2 == d2.min(axis=1, keepdims=True)).argmax(axis=1), d2


def _label_means(points, labels, k, empty_row):
    """Centers r×k×d of a stack of labelings (r×n): center c of set i is the
    mean of the points labelled c in row i, or points[empty_row(i, c)] when
    no point is.

    The sums are one product with the one-hot label matrix, which adds each
    label's points in row order as numpy's mean over rows does.
    """
    onehot = (labels[:, None, :] == np.arange(k)[:, None]).astype(np.float64)
    counts = onehot.sum(axis=2)[..., None]
    means = np.einsum("rkn,nd->rkd", onehot, points)
    np.divide(means, counts, out=means, where=counts > 0)
    for i, c in zip(*np.nonzero(counts[..., 0] == 0)):
        means[i, c] = points[empty_row(i, c)]
    return means


def _residual_wcss(points, centers, labels):
    """Σ|x − c(x)|² of each labeling of a stack, from the residuals, in slices
    of at most GROUP_CELLS residual cells."""
    r, k, d = centers.shape
    size = max(1, GROUP_CELLS // (len(points) * d))
    rows = labels + k * np.arange(r)[:, None]
    flat = centers.reshape(r * k, d)
    return np.concatenate([
        ((points - flat[rows[s:s + size]]) ** 2).sum(axis=2).sum(axis=1)
        for s in range(0, r, size)])


def _lloyd(points, centers, x_sq=None):
    """Lloyd's algorithm from each set of a r×K×d stack of seeds at once.

    Each step assigns and updates every replicate whose labels still
    changed; a replicate leaves when they stop.  Returns labels (r×n),
    centers, WCSS (r,) and iterations (r,), each replicate's as if it had
    run alone.  x_sq is |points|² when the caller has it.
    """
    k = centers.shape[1]
    if x_sq is None:
        x_sq = np.einsum("ij,ij->i", points, points)
    labels, _ = _assign(points, x_sq, centers)
    prev_wcss = np.full(len(centers), np.inf)
    iterations = np.zeros(len(centers), dtype=np.intp)
    live = np.arange(len(centers))
    for it in range(1, LLOYD_MAX_ITER + 1):
        stale = centers[live]
        # An empty cluster is reseeded at the point farthest from its stale center.
        fresh = _label_means(
            points, labels[live], k,
            lambda i, c: _sq_dists(points, stale[i, c:c + 1], x_sq)[:, 0].argmax())
        new_labels, d2 = _assign(points, x_sq, fresh)
        wcss = d2.min(axis=1).sum(axis=1)
        prev = prev_wcss[live]
        assert (wcss <= prev + 1e-9 * np.maximum(1.0, np.abs(prev))).all(), \
            "Lloyd objective increased"
        prev_wcss[live] = wcss
        moved = (new_labels != labels[live]).any(axis=1)
        centers[live] = fresh
        labels[live] = new_labels
        iterations[live] = it
        live = live[moved]
        if not live.size:
            break
    # The returned WCSS comes from the residuals, not from the GEMM distances,
    # so replicates that reach one partition tie exactly.
    return labels, centers, _residual_wcss(points, centers, labels), iterations


def kmeanspp_seed(points, k, rng, x_sq=None):
    """k-means++ seeding: next center drawn proportional to squared distance
    to the nearest chosen center (uniform fallback when all distances vanish).
    x_sq is |points|² when the caller has it."""
    n = points.shape[0]
    if n < k:
        raise InvalidK(f"K={k} exceeds n={n}")
    if x_sq is None:
        x_sq = np.einsum("ij,ij->i", points, points)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = _sq_dists(points, centers[:1], x_sq)[:, 0]
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            centers[c] = points[rng.choice(n, p=probs)]
        else:
            centers[c] = points[rng.integers(n)]
        d2 = np.minimum(d2, _sq_dists(points, centers[c:c + 1], x_sq)[:, 0])
    return centers


def _uniform_seed(points, k, rng):
    idx = rng.choice(points.shape[0], size=k, replace=False)
    return points[idx].copy()


@dataclass(frozen=True)
class RowSpace:
    """Points as k-means runs on them (row_space): their column mean, the
    centered points (n×p), and `coords`, the rows Lloyd clusters, with
    |coords|² in `sq`."""
    mean: np.ndarray
    centered: np.ndarray
    coords: np.ndarray
    sq: np.ndarray


def row_space(points):
    """RowSpace of float64 n×p `points`.  The coordinates are the centered
    points, or for p > n the rows of Y = Q·sqrt(Λ), from eigh of the Gram
    matrix QΛQ′ of the distinct centered rows: n points in m ≤ n dimensions
    (m distinct rows) with the same pairwise distances, and the same
    distances to any mean of them (classical MDS, Torgerson 1952).

    Equal rows get bit-equal rows of Y, so exact ties stay exact.  Rows are
    matched by the hash of their bytes, confirmed by comparison.  The
    eigensolver is numpy's, for the reason in truncated_left_svd.
    """
    mean = points.mean(axis=0)
    centered = coords = points - mean
    if centered.shape[1] > centered.shape[0]:
        buckets, distinct = {}, []
        inverse = np.empty(centered.shape[0], dtype=np.intp)
        for i, row in enumerate(centered):
            bucket = buckets.setdefault(hash(row.tobytes()), [])
            for j in bucket:
                if np.array_equal(centered[distinct[j]], row):
                    break
            else:
                j = len(distinct)
                bucket.append(j)
                distinct.append(i)
            inverse[i] = j
        gram = centered @ centered.T
        lam, q = np.linalg.eigh(gram[np.ix_(distinct, distinct)])
        q *= np.sqrt(np.clip(lam, 0.0, None))
        coords = q[inverse]
    return RowSpace(mean, centered, coords, np.einsum("ij,ij->i", coords, coords))


def kmeans(points, k, replicates=30, seed=0, init="uniform-sample"):
    """Lloyd k-means, best of `replicates` runs by within-cluster sum of squares.

    Each replicate derives its RNG from (seed, replicate index), so the result
    is deterministic.  Ties go to the lowest replicate id.  Replicates run
    Lloyd together, in groups of at most GROUP_CELLS n×K cells (_lloyd).

    Points wider than tall (p > n) are clustered on their n-dimensional row
    space (row_space), where a Lloyd step costs O(n²) instead of O(np).  The
    distances are the same up to rounding, so labels, replicate id and
    iterations are those of Lloyd on the full width.  The WCSS is the row
    space's, within 1e-13 of the total sum of squares of the full-width
    value; centers are per-label means of the input rows, within 1e-13 of
    the largest input entry.  `points` may be given as row_space(points),
    which a caller clustering the same points more than once forms once.
    """
    space = points if isinstance(points, RowSpace) else None
    points = np.asarray(points, dtype=np.float64) if space is None else space.centered
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    if not 1 <= k <= n:
        raise InvalidK(f"K={k} must lie in [1, n={n}]")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if points.shape[1] == 0:
        raise ValueError("points must have at least one column")
    if init not in ("plusplus", "uniform-sample"):
        raise ValueError(f"unknown init: {init}")
    # Lloyd runs on centered points: |x|² + |c|² − 2x·c loses the distances
    # to cancellation when the data sit far from the origin.
    if space is None:
        space = row_space(points)
    coords = space.coords

    group = max(1, GROUP_CELLS // (n * k))
    best = None
    for first in range(0, replicates, group):
        rngs = [np.random.default_rng([seed, rep])
                for rep in range(first, min(first + group, replicates))]
        if init == "plusplus":
            seeds = np.stack([kmeanspp_seed(coords, k, rng, space.sq) for rng in rngs])
        else:
            seeds = np.stack([_uniform_seed(coords, k, rng) for rng in rngs])
        labels, centers, wcss, iters = _lloyd(coords, seeds, space.sq)
        # argmin and the strict < keep the first of equal WCSS, so ties go to
        # the lowest replicate id.
        i = int(wcss.argmin())
        if best is None or wcss[i] < best[2]:
            best = labels[i], centers[i], float(wcss[i]), first + i, int(iters[i])
    labels, centers, wcss, best_rep, iters = best
    if points.shape[1] > n:
        # A cluster empty at the end keeps the row it was reseeded at, the
        # row of the embedding at distance 0 from its center.
        space_centers = centers
        centers = _label_means(
            space.centered, labels[None], k,
            lambda _, c: ((coords - space_centers[c]) ** 2).sum(axis=1).argmin())[0]
    return KmeansResult(labels=labels + 1, centers=centers + space.mean, wcss=wcss,
                        replicate_id=best_rep, iterations=iters)


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

    # Exactly symmetric: its transpose is the same matrix, in C order.
    d = _sq_dists(points, points).T
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
