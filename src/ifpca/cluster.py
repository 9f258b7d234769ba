"""Clustering engines: Lloyd k-means with replicates, k-means++ seeding,
complete-linkage agglomerative clustering, and relabeling-minimized Hamming error."""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidK
from .matrix import Gram, sq_dists

LLOYD_MAX_ITER = 300

# Replicates run Lloyd together in groups of at most this many n×K cells per
# stacked array (128 KiB of float64), so memory does not grow with their number.
GROUP_CELLS = 1 << 14


@dataclass(frozen=True)
class KmeansResult:
    labels: np.ndarray          # in {1..K}
    wcss: float
    replicate_id: int
    iterations: int


def _assign(points, x_sq, centers):
    """Nearest center of each point for each set of a r×K×d stack of centers,
    the lowest index on ties: labels (r×n), their squared distances (r×n)
    and all squared distances (r×K×n); x_sq is |points|² or None."""
    d2 = np.swapaxes(sq_dists(points, centers, x_sq), 1, 2)
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
    # argmin finds the first center at the least distance.
    return d2.argmin(axis=1), d2.min(axis=1), d2


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
    changed; a replicate leaves when they stop.  Returns labels (r×n), WCSS
    (r,) and iterations (r,), each replicate's as if it had run alone.  x_sq
    is |points|² when the caller has it.
    """
    k = centers.shape[1]
    labels = _assign(points, x_sq, centers)[0]
    prev_wcss = np.full(len(centers), np.inf)
    iterations = np.zeros(len(centers), dtype=np.intp)
    live = np.arange(len(centers))
    for it in range(1, LLOYD_MAX_ITER + 1):
        stale = centers[live]
        # An empty cluster is reseeded at the point farthest from its stale center.
        fresh = _label_means(
            points, labels[live], k,
            lambda i, c: sq_dists(points, stale[i, c:c + 1], x_sq)[:, 0].argmax())
        new_labels, nearest, _ = _assign(points, x_sq, fresh)
        wcss = nearest.sum(axis=1)
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
    return labels, _residual_wcss(points, centers, labels), iterations


def kmeanspp_seed(points, k, rngs, x_sq=None):
    """k-means++ seeding with each generator of `rngs`, as a stack r×K×d: next
    center drawn proportional to squared distance to the nearest chosen
    center (uniform fallback when all distances vanish), as rng.choice(n,
    p=d2/Σd2) draws it without its checks of p.  x_sq is |points|² when the
    caller has it."""
    n = points.shape[0]
    if n < k:
        raise InvalidK(f"K={k} exceeds n={n}")
    idx = np.empty((len(rngs), k), dtype=np.intp)
    idx[:, 0] = [rng.integers(n) for rng in rngs]
    d2 = sq_dists(points, points[idx[:, :1]], x_sq)[..., 0]
    for c in range(1, k):
        total = d2.sum(axis=1)
        drawn = total > 0
        u = np.array([rng.random() if ok else rng.integers(n)
                      for rng, ok in zip(rngs, drawn)])
        cdf = np.cumsum(d2[drawn] / total[drawn, None], axis=1)
        cdf /= cdf[:, -1:]
        idx[~drawn, c] = u[~drawn]
        idx[drawn, c] = (cdf <= u[drawn, None]).sum(axis=1)
        d2 = np.minimum(d2, sq_dists(points, points[idx[:, c:c + 1]], x_sq)[..., 0])
    return points[idx]


@functools.lru_cache(maxsize=32)
def _uniform_rows(seed, n, k, first, last):
    """Uniform seeding's rows of n for replicates [first, last) of `seed`,
    read only; cached, as kmeans calls with one seed, n and K draw the same."""
    rows = np.array([np.random.default_rng([seed, rep]).choice(n, size=k, replace=False)
                     for rep in range(first, last)])
    rows.flags.writeable = False
    return rows


def kmeans(points, k, replicates=30, seed=0, init="uniform-sample"):
    """Lloyd k-means, best of `replicates` runs by within-cluster sum of squares.

    Each replicate derives its RNG from (seed, replicate index), so the result
    is deterministic.  Ties go to the lowest replicate id.  Replicates run
    Lloyd together, in groups of at most GROUP_CELLS n×K cells (_lloyd).

    Points wider than tall (p > n) are clustered on their n-dimensional row
    space (matrix.Gram.row_space), where a Lloyd step costs O(n²) instead of
    O(np).  The distances are the same up to rounding, so labels, replicate
    id and iterations are those of Lloyd on the full width.  The WCSS is the
    row space's, within 1e-13 of the total sum of squares of the full-width
    value.  Points whose columns are centered may be given as a matrix.Gram
    of them, whose row space is then formed once for all calls.
    """
    gram = points if isinstance(points, Gram) else None
    if gram is None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points[:, None]
    n, d = points.shape
    if not 1 <= k <= n:
        raise InvalidK(f"K={k} must lie in [1, n={n}]")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if d == 0:
        raise ValueError("points must have at least one column")
    if init not in ("plusplus", "uniform-sample"):
        raise ValueError(f"unknown init: {init}")
    # Lloyd runs on centered points: |x|² + |c|² − 2x·c loses the distances
    # to cancellation when the data sit far from the origin.
    if gram is None:
        coords = points - points.mean(axis=0)
        if d > n:
            gram = Gram.of(coords)
        else:
            sq = np.einsum("ij,ij->i", coords, coords)
    if gram is not None:
        coords, sq = gram.row_space

    group = max(1, GROUP_CELLS // (n * k))
    best = None
    for first in range(0, replicates, group):
        last = min(first + group, replicates)
        if init == "plusplus":
            seeds = kmeanspp_seed(coords, k, [np.random.default_rng([seed, rep])
                                              for rep in range(first, last)], sq)
        else:
            seeds = coords[_uniform_rows(seed, n, k, first, last)]
        labels, wcss, iters = _lloyd(coords, seeds, sq)
        # argmin and the strict < keep the first of equal WCSS, so ties go to
        # the lowest replicate id.
        i = int(wcss.argmin())
        if best is None or wcss[i] < best.wcss:
            best = KmeansResult(labels=labels[i] + 1, wcss=float(wcss[i]),
                                replicate_id=first + i, iterations=int(iters[i]))
    return best


def hierarchical_complete(points, k):
    """Agglomerative clustering with complete linkage and Euclidean distance.

    One n×n matrix of squared distances (merges depend only on their order)
    keeps memory at O(np + n²).  Each cluster lives at the row of its
    smallest member, and rows merged away are set to inf, so a row-major
    argmin merges the lexicographically smallest (i, j) pair on ties.
    Labels number the clusters by smallest member.  A bare array is first
    translated to put its first row at the origin: far from it, the
    tolerance band of |a|² + |b|² − 2ab′ would swallow the distances.
    Points whose columns are centered may be given as a matrix.Gram of them,
    whose distances d2 are then copied, not formed; a Gram is used as given,
    untranslated, so far from the origin it has lost its distances already.
    """
    if not isinstance(points, Gram):
        points = np.asarray(points, dtype=np.float64)
        points = points[:, None] if points.ndim == 1 else points
        points = Gram.of(points - points[:1])
    n = points.shape[0]
    if not 1 <= k <= n:
        raise InvalidK(f"K={k} must lie in [1, n={n}]")

    # Exactly symmetric: its transpose is the same matrix, in C order.
    d = points.d2.T.copy()
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


def _max_assignment(w):
    """Largest sum of w[i, σ(i)] over the permutations σ of a square integer
    matrix: Kuhn's Hungarian method in its O(K³) shortest-augmenting-path
    form.  Row i joins the matching along a shortest path (Dijkstra over
    the reduced costs −w − u − v ≥ 0, one vectorized step per column
    reached) from a root column K that stands for it.
    """
    k = len(w)
    u = np.zeros(k, dtype=np.int64)        # row potentials
    v = np.zeros(k + 1, dtype=np.int64)    # column potentials, root last
    row_of = np.full(k + 1, -1)            # the row matched to each column
    for i in range(k):
        row_of[k] = i
        col = k
        dist = np.full(k, np.iinfo(np.int64).max)
        via = np.empty(k, dtype=np.intp)   # previous column on the path
        reached = np.zeros(k + 1, dtype=bool)
        # Each step reaches a new column, so a free one is found within K
        # steps, and the path back to the root is no longer.
        for _ in range(k):
            reached[col] = True
            r = row_of[col]
            free = ~reached[:k]
            reduced = -w[r] - u[r] - v[:k]
            closer = free & (reduced < dist)
            dist[closer] = reduced[closer]
            via[closer] = col
            col = np.flatnonzero(free)[dist[free].argmin()]
            delta = dist[col]
            u[row_of[reached]] += delta
            v[reached] -= delta
            dist[free] -= delta
            if row_of[col] < 0:
                break
        else:
            raise RuntimeError(f"no free column reached for row {i} in {k} steps")
        for _ in range(k):
            row_of[col] = row_of[via[col]]
            col = via[col]
            if col == k:
                break
        else:
            raise RuntimeError(f"no path back to the root for row {i} in {k} steps")
    return int(w[row_of[:k], np.arange(k)].sum())


def hamming_error(yhat, y, k):
    """Fraction of mismatches, minimized over all K! relabelings of the truth.

    The best relabeling is a maximum-weight assignment on the confusion
    matrix (Kuhn 1955), exact for any K.  The labels must be 1-D integer
    vectors of one non-zero length with entries in 1..K; ValueError
    otherwise.
    """
    yhat = np.asarray(yhat)
    y = np.asarray(y)
    if yhat.ndim != 1 or y.ndim != 1:
        raise ValueError("labels must be 1-D vectors")
    if not all(np.issubdtype(v.dtype, np.integer) for v in (yhat, y)):
        raise ValueError("labels must be integers")
    if yhat.size != y.size:
        raise ValueError("label vectors must have equal length")
    if not y.size:
        raise ValueError("label vectors must not be empty")
    if not all(((v >= 1) & (v <= k)).all() for v in (yhat, y)):
        raise ValueError(f"labels must lie in 1..{k}")
    n = y.size
    # Confusion counts: C[a, b] = #{i : yhat_i = a+1, y_i = b+1}.  The cell
    # index is formed in intp, as a narrow label dtype could overflow.
    cells = (yhat.astype(np.intp) - 1) * k + (y.astype(np.intp) - 1)
    conf = np.bincount(cells, minlength=k * k).reshape(k, k)
    return (n - _max_assignment(conf)) / n
