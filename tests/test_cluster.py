import itertools
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ifpca import cluster
from ifpca.cluster import (LLOYD_MAX_ITER, hamming_error, hierarchical_complete,
                           kmeans, kmeanspp_seed)
from ifpca.errors import InvalidK
from ifpca.matrix import Gram, sq_dists


# Oracle: Lloyd one replicate at a time, as kmeans ran it before replicates
# ran together (_assign, _label_means and _lloyd, verbatim).

def _assign(points, centers):
    d2 = sq_dists(points, centers)
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


def _uniform_seed(points, k, rng):
    return points[rng.choice(points.shape[0], size=k, replace=False)]


def _lloyd(points, centers):
    n, _ = points.shape
    labels, d2 = _assign(points, centers)
    prev_wcss = np.inf
    for it in range(1, LLOYD_MAX_ITER + 1):
        # An empty cluster is reseeded at the point farthest from its stale center.
        _label_means(points, labels, centers,
                     lambda c: sq_dists(points, centers[c:c + 1])[:, 0].argmax())
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


def hamming_oracle(yhat, y, k):
    """Literal definition: count mismatches per relabeling of the truth."""
    n = len(y)
    best = n
    for perm in itertools.permutations(range(1, k + 1)):
        mis = sum(1 for a, b in zip(yhat, y) if a != perm[b - 1])
        best = min(best, mis)
    return best / n


def complete_linkage_oracle(points, k):
    """Literal complete linkage: clusters ordered by smallest member, the
    pair with the smallest largest member distance merges, and ties go to
    the lexicographically smallest (i, j)."""
    pts = [tuple(row) for row in points]

    def d2(a, b):
        return sum((u - v) ** 2 for u, v in zip(pts[a], pts[b]))

    clusters = [[i] for i in range(len(pts))]
    while len(clusters) > k:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                link = max(d2(a, b) for a in clusters[i] for b in clusters[j])
                if best is None or link < best[0]:
                    best = (link, i, j)
        _, i, j = best
        clusters[i] = clusters[i] + clusters.pop(j)
    labels = [0] * len(pts)
    for c, members in enumerate(clusters):
        for m in members:
            labels[m] = c + 1
    return labels


def test_kmeans_separated_pairs():
    pts = np.array([0.0, 1.0, 10.0, 11.0])
    res = kmeans(pts, 2, replicates=5, seed=0)
    assert res.labels[0] == res.labels[1]
    assert res.labels[2] == res.labels[3]
    assert res.labels[0] != res.labels[2]
    assert res.wcss == pytest.approx(1.0)


def test_kmeans_k1_is_mean():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((20, 3))
    res = kmeans(pts, 1, replicates=1, seed=0)
    assert res.wcss == pytest.approx(((pts - pts.mean(axis=0)) ** 2).sum())


def test_kmeans_k_equals_n():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((6, 2))
    res = kmeans(pts, 6, replicates=3, seed=0)
    assert res.wcss == pytest.approx(0.0, abs=1e-12)
    assert len(set(res.labels.tolist())) == 6


def test_kmeans_invalid_k():
    with pytest.raises(InvalidK):
        kmeans(np.zeros((3, 1)), 4, replicates=1, seed=0)


def test_kmeans_rejects_points_without_columns():
    # Equal centers are found by their bytes, and an empty row has none.
    with pytest.raises(ValueError, match="column"):
        kmeans(np.zeros((5, 0)), 2, replicates=1, seed=0)


def test_kmeans_wcss_matches_recompute():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((40, 2))
    res = kmeans(pts, 3, replicates=10, seed=5)
    centers = [pts[res.labels == c].mean(axis=0) for c in (1, 2, 3)]
    recomputed = sum(((pts[i] - centers[res.labels[i] - 1]) ** 2).sum()
                     for i in range(40))
    assert res.wcss == pytest.approx(recomputed, abs=1e-8)


def test_kmeans_winner_beats_single_replicates():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((30, 2))
    best = kmeans(pts, 4, replicates=8, seed=9)
    for rep in range(8):
        r = np.random.default_rng([9, rep])
        _, _, wcss, _ = _lloyd(pts, _uniform_seed(pts, 4, r))
        assert best.wcss <= wcss + 1e-12


def test_kmeanspp_k1_uniform():
    pts = np.arange(10.0)[:, None]
    rng = np.random.default_rng(0)
    c = kmeanspp_seed(pts, 1, [rng])[0]
    assert c.shape == (1, 1)
    assert c[0, 0] in pts


def test_kmeanspp_duplicates_no_crash():
    pts = np.ones((8, 2))
    rng = np.random.default_rng(1)
    c = kmeanspp_seed(pts, 3, [rng])[0]
    np.testing.assert_allclose(c, 1.0)


def test_kmeanspp_far_point_certain():
    pts = np.array([[0.0], [100.0]])
    for seed in range(20):
        c = kmeanspp_seed(pts, 2, [np.random.default_rng(seed)])[0]
        assert sorted(c[:, 0]) == [0.0, 100.0]


def kmeanspp_oracle(points, k, rng):
    """k-means++ seeding of one replicate, each center drawn by rng.choice
    (as kmeanspp_seed drew them before replicates were seeded together)."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = sq_dists(points, centers[:1])[:, 0]
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            centers[c] = points[rng.choice(n, p=d2 / total)]
        else:
            centers[c] = points[rng.integers(n)]
        d2 = np.minimum(d2, sq_dists(points, centers[c:c + 1])[:, 0])
    return centers


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 80),
       st.integers(1, 40), st.integers(1, 8), st.integers(1, 12))
def test_plusplus_seeds_are_choice_draws(seed, n, p, distinct, k, reps):
    # Replicates seeded together draw the centers rng.choice draws, bit for
    # bit, also when every distance vanishes and the draw falls back to
    # uniform.
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((min(distinct, n), p))[
        rng.integers(0, min(distinct, n), size=n)]
    k = min(k, n)
    got = kmeanspp_seed(points, k, [np.random.default_rng([seed, r])
                                    for r in range(reps)])
    want = [kmeanspp_oracle(points, k, np.random.default_rng([seed, r]))
            for r in range(reps)]
    assert np.array_equal(got, np.stack(want))


def test_uniform_rows_are_each_replicates_draw():
    # Drawn once per (seed, n, K, replicates) and shared read-only by every
    # kmeans call that asks again.
    rows = cluster._uniform_rows(7, 50, 4, 3, 9)
    assert rows is cluster._uniform_rows(7, 50, 4, 3, 9)
    assert not rows.flags.writeable
    for i, rep in enumerate(range(3, 9)):
        want = np.random.default_rng([7, rep]).choice(50, size=4, replace=False)
        assert np.array_equal(rows[i], want)


def test_hier_nearest_pair_first():
    labels = hierarchical_complete(np.array([0.0, 1.0, 5.0]), 2)
    assert labels[0] == labels[1] != labels[2]


def test_hier_k_equals_n():
    labels = hierarchical_complete(np.arange(5.0), 5)
    assert len(set(labels.tolist())) == 5


def test_hier_hand_run():
    # merges: {2,3} (d=1), then {0,2,3} (complete d=3), leaving {10}
    labels = hierarchical_complete(np.array([0.0, 2.0, 3.0, 10.0]), 2)
    assert labels[0] == labels[1] == labels[2] != labels[3]


def test_hier_invalid_k():
    with pytest.raises(InvalidK):
        hierarchical_complete(np.zeros(3), 5)


def test_hier_order_invariant_up_to_relabeling():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((25, 2))
    base = hierarchical_complete(pts, 3)
    for _ in range(5):
        perm = rng.permutation(25)
        shuffled = hierarchical_complete(pts[perm], 3)
        restored = np.empty(25, dtype=np.int64)
        restored[perm] = shuffled
        assert hamming_error(restored, base, 3) == 0.0


def test_hier_matches_literal_oracle_on_integer_grids():
    # Small integer grids: distances are exact and ties are common, so this
    # pins the tie rule, not only the merge order.
    rng = np.random.default_rng(10)
    for _ in range(300):
        n = int(rng.integers(2, 11))
        pts = rng.integers(-2, 3, size=(n, int(rng.integers(1, 4)))).astype(float)
        k = int(rng.integers(1, n + 1))
        assert hierarchical_complete(pts, k).tolist() == \
            complete_linkage_oracle(pts, k)


@given(arrays(np.int64, st.tuples(st.integers(2, 30), st.integers(1, 4)),
              elements=st.integers(-8, 8)),
       st.integers(-10**8, 10**8), st.data())
def test_hier_is_translation_invariant(grid, offset, data):
    # Quarter-integer points plus an integer offset add exactly, so the
    # translated points are the same points, up to 1e8 from the origin,
    # where |a|² + |b|² − 2ab′ alone would lose every distance.
    pts = grid / 4.0
    k = data.draw(st.integers(1, len(pts)))
    assert hierarchical_complete(pts + offset, k).tolist() == \
        hierarchical_complete(pts, k).tolist()


def test_hier_matches_literal_oracle_on_repeated_rows():
    # Real-valued rows drawn with replacement: equal rows must be at
    # distance exactly 0, so that their merges tie and follow the rule.
    rng = np.random.default_rng(13)
    for _ in range(100):
        base = rng.standard_normal((int(rng.integers(2, 6)),
                                    int(rng.integers(2, 60))))
        pts = base[rng.integers(0, len(base), size=int(rng.integers(2, 11)))]
        k = int(rng.integers(1, len(pts) + 1))
        assert hierarchical_complete(pts, k).tolist() == \
            complete_linkage_oracle(pts, k)


def test_gram_distances_are_the_product_distances():
    # hier and the row space take the distances d2 of a matrix.Gram, from its
    # product and einsum row norms, bit for bit those of sq_dists on the
    # points (b a distinct view of a: its norms and the product formed anew).
    rng = np.random.default_rng(15)
    for _ in range(50):
        base = rng.standard_normal((int(rng.integers(2, 12)), int(rng.integers(1, 300))))
        w = base[rng.integers(0, len(base), size=int(rng.integers(2, 30)))]
        assert np.array_equal(Gram.of(w).d2, sq_dists(w, w[:]))


@st.composite
def _row_pairs(draw):
    p = draw(st.integers(1, 8))
    elems = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    a = draw(arrays(np.float64, (draw(st.integers(1, 12)), p), elements=elems))
    b = draw(arrays(np.float64, (draw(st.integers(1, 12)), p), elements=elems))
    return a, b


@given(_row_pairs())
def test_sq_dists_matches_broadcast(pair):
    a, b = pair
    reference = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    got = sq_dists(a, b)
    assert got.shape == reference.shape
    assert (got >= 0).all()
    # The GEMM form cancels |a|² + |b|² against 2ab′, so its error scales
    # with the squared norms, not with the distance; below the normal range
    # rounding is absolute.
    scale = (a ** 2).sum(axis=1)[:, None] + (b ** 2).sum(axis=1)[None, :]
    tol = 1e-13 * scale + np.finfo(np.float64).tiny
    assert (np.abs(got - reference) <= tol).all()


def test_kmeans_replicate_ties_go_to_lowest_id():
    # Three tight blobs: most replicates reach the same partition, under
    # different label orders.  Their WCSS must tie exactly.
    rng = np.random.default_rng(11)
    pts = np.concatenate([rng.standard_normal((15, 4)) * 0.1 + c
                          for c in (0.0, 3.0, -3.0)])
    seed, reps = 2, 12
    res = kmeans(pts, 3, replicates=reps, seed=seed)
    winners, orders = [], set()
    for rep in range(reps):
        centers = _uniform_seed(pts, 3, np.random.default_rng([seed, rep]))
        labels, _, wcss, _ = _lloyd(pts, centers)
        if hamming_error(labels + 1, res.labels, 3) == 0.0:
            winners.append(rep)
            orders.add(tuple(labels))
            assert wcss == res.wcss
    assert len(orders) > 1
    assert res.replicate_id == winners[0]
    # The WCSS is the residual sum, which depends on the partition alone.
    centers = np.array([pts[res.labels == c].mean(axis=0) for c in (1, 2, 3)])
    resid = pts - centers[res.labels - 1]
    assert res.wcss == float((resid ** 2).sum(axis=1).sum())


def test_assign_equal_centers_tie_to_lower_index():
    # Repeated rows with K = the number of distinct rows; uniform seeding has
    # picked the first row twice.  The matrix product alone can leave the two
    # equal centers' columns a few ulps apart and send points to the later
    # one (10 of these 300 cases with OpenBLAS on 2 cores).
    for seed in range(300):
        rng = np.random.default_rng(seed)
        p, n, k = (int(rng.choice(v)) for v in ([20, 50, 100, 300],
                                                [30, 71, 141], range(3, 11)))
        rows = rng.standard_normal((k, p))
        spread = rng.uniform(0.05, 1.0)
        rows[1:] = rows[0] + spread * rng.standard_normal((k - 1, p))
        points = rows[rng.integers(0, k, size=n)]
        centers = rows.copy()
        centers[k - 1] = centers[0]
        labels, _, d2 = cluster._assign(
            points, np.einsum("ij,ij->i", points, points), centers[None])
        labels, d2 = labels[0], d2[0].T
        assert np.array_equal(d2[:, k - 1], d2[:, 0])
        assert not (labels == k - 1).any()


@pytest.mark.parametrize("data_seed, seed", [(0, 1), (4, 2), (11, 1)])
def test_kmeans_far_from_origin(data_seed, seed):
    # |x|² + |c|² − 2x·c cancels badly at an offset of 1e6 with unit spread;
    # on uncentered points these runs failed Lloyd's monotonicity assert.
    x = 1e6 + np.random.default_rng(data_seed).standard_normal((200, 5))
    res = kmeans(x, 4, replicates=3, seed=seed)
    centers = np.array([x[res.labels == c].mean(axis=0) for c in range(1, 5)])
    resid = x - centers[res.labels - 1]
    assert res.wcss == pytest.approx(float((resid ** 2).sum()), rel=1e-6)


def full_width_kmeans(points, k, replicates, seed, init):
    """Oracle: seeding and Lloyd per replicate on the centered full-width
    points, first of the least WCSS; (labels, wcss, replicate, iterations)
    in kmeans' conventions."""
    mean = points.mean(axis=0)
    centered = points - mean
    seeder = kmeanspp_oracle if init == "plusplus" else _uniform_seed
    best = None
    for rep in range(replicates):
        rng = np.random.default_rng([seed, rep])
        run = _lloyd(centered, seeder(centered, k, rng))
        if best is None or run[2] < best[1][2]:
            best = rep, run
    rep, (labels, _, wcss, iters) = best
    return labels + 1, wcss, rep, iters


# Bound of the row-space path against full-width Lloyd, relative to the
# total sum of squares.
ROW_SPACE_RTOL = 1e-13


@st.composite
def _kmeans_inputs(draw, wide):
    """(points, k, seed) with p > n when wide (else p ≤ n), often with rows
    drawn with replacement, and Gaussian entries, so that distinct distances
    do not tie exactly."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2, 30))
    p = draw(st.integers(n + 1, 150) if wide else st.integers(1, n))
    distinct = draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((distinct, p))
    base[:distinct // 2] += draw(st.floats(0.0, 5.0))
    points = base[rng.integers(0, distinct, size=n)] if distinct < n else base
    points += draw(st.floats(-100.0, 100.0))
    return points, draw(st.integers(1, n)), seed


@given(_kmeans_inputs(wide=True), st.sampled_from(["uniform-sample", "plusplus"]),
       st.integers(1, 4))
def test_kmeans_row_space_matches_full_width(case, init, replicates):
    points, k, seed = case
    res = kmeans(points, k, replicates=replicates, seed=seed, init=init)
    labels, wcss, rep, iters = full_width_kmeans(points, k, replicates, seed, init)
    assert np.array_equal(res.labels, labels)
    assert (res.replicate_id, res.iterations) == (rep, iters)
    tss = float(((points - points.mean(axis=0)) ** 2).sum())
    assert abs(res.wcss - wcss) <= ROW_SPACE_RTOL * tss


# Bound of kmeans, whose replicates run Lloyd together, against the oracle run
# one replicate at a time.  With two or more columns the center update adds
# each label's points in row order, as numpy's mean over rows does, and every
# value is bit-identical; one-column means numpy sums pairwise, so the WCSS
# differs in rounding, as on the row space (ROW_SPACE_RTOL).
BATCHED_RTOL = ROW_SPACE_RTOL


@given(st.booleans().flatmap(lambda wide: _kmeans_inputs(wide=wide)),
       st.sampled_from(["uniform-sample", "plusplus"]), st.integers(1, 8),
       st.integers(1, 3))
def test_kmeans_matches_per_replicate_oracle(case, init, replicates, group):
    # Groups of `group` replicates, so that runs cross group boundaries.
    points, k, seed = case
    with mock.patch.object(cluster, "GROUP_CELLS", group * len(points) * k):
        res = kmeans(points, k, replicates=replicates, seed=seed, init=init)
    labels, wcss, rep, iters = full_width_kmeans(points, k, replicates, seed, init)
    assert np.array_equal(res.labels, labels)
    assert (res.replicate_id, res.iterations) == (rep, iters)
    tss = float(((points - points.mean(axis=0)) ** 2).sum())
    assert abs(res.wcss - wcss) <= BATCHED_RTOL * tss


def test_kmeans_empty_final_cluster_keeps_its_reseed_row():
    # Rows drawn with replacement and K at or above the number of distinct
    # rows: clusters can end empty, at the row of their last reseed, not at
    # the mean of no rows (NaN), so the labels and WCSS are the oracle's.
    empty = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        distinct = int(rng.integers(2, 6))
        points = rng.standard_normal((distinct, 200))[
            rng.integers(0, distinct, size=20)]
        k = int(rng.integers(distinct, 13))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = kmeans(points, k, replicates=3, seed=seed)
        labels, wcss, *_ = full_width_kmeans(points, k, 3, seed, "uniform-sample")
        assert np.array_equal(res.labels, labels)
        tss = float(((points - points.mean(axis=0)) ** 2).sum())
        assert abs(res.wcss - wcss) <= ROW_SPACE_RTOL * tss
        empty += k - len(set(res.labels.tolist()))
    assert empty > 0


@pytest.mark.parametrize("call", [lambda x: kmeans(x, 10),
                                  lambda x: hierarchical_complete(x, 10)],
                         ids=["kmeans", "hierarchical_complete"])
def test_cluster_peak_memory_is_linear_in_input(call):
    # No n×K×p or n×n×p temporaries: the traced peak stays within a few
    # copies of the input (1.6 MB).
    x = np.random.default_rng(12).standard_normal((100, 2000))
    tracemalloc.start()
    try:
        call(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * x.nbytes


def test_kmeans_peak_memory_does_not_grow_with_replicates():
    # Replicates run in groups of at most GROUP_CELLS n×K cells, so the
    # traced peak stays within a few copies of the input (40 kB) and a fixed
    # number of group-sized arrays (128 KiB each).  All 2000 at once took
    # over 4000 copies of the input.
    x = np.random.default_rng(14).standard_normal((100, 50))
    tracemalloc.start()
    try:
        kmeans(x, 3, replicates=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * x.nbytes + 12 * 8 * cluster.GROUP_CELLS


def test_hamming_examples():
    y = np.array([1, 1, 2, 2])
    assert hamming_error(y, y, 2) == 0.0
    assert hamming_error(3 - y, y, 2) == 0.0  # fixed relabeling
    yhat = np.array([1, 2, 1, 1])
    assert hamming_error(yhat, y, 2) == pytest.approx(0.25)


def test_hamming_k12_known_answers():
    # K = 12 is past brute-force reach (12! relabelings); the answers are
    # known by construction.  Five points per class; moving r <= K points,
    # at most one out of each class, leaves the relabeling optimal, since
    # any other assignment gives up >= 4 agreements to gain <= 1.
    k, size = 12, 5
    rng = np.random.default_rng(8)
    y = np.repeat(np.arange(1, k + 1), size)
    n = y.size
    relabel = rng.permutation(k) + 1
    yhat = relabel[y - 1]
    assert hamming_error(yhat, y, k) == 0.0
    for r in range(k + 1):
        moved = yhat.copy()
        for c in range(r):
            i = c * size  # first point of class c + 1
            moved[i] = relabel[(c + 1) % k]
        assert hamming_error(moved, y, k) == r / n


def test_hamming_matches_oracle():
    rng = np.random.default_rng(6)
    for _ in range(200):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(5, 40))
        y = rng.integers(1, k + 1, size=n)
        yhat = rng.integers(1, k + 1, size=n)
        assert hamming_error(yhat, y, k) == pytest.approx(
            hamming_oracle(yhat, y, k))


def test_hamming_symmetric_under_relabeling():
    rng = np.random.default_rng(7)
    k, n = 4, 30
    y = rng.integers(1, k + 1, size=n)
    yhat = rng.integers(1, k + 1, size=n)
    base = hamming_error(yhat, y, k)
    perm = rng.permutation(k) + 1
    assert hamming_error(perm[yhat - 1], y, k) == pytest.approx(base)
    assert hamming_error(yhat, perm[y - 1], k) == pytest.approx(base)


@pytest.mark.parametrize("yhat, y", [([1, 3], [1, 2]), ([1, 2], [1, 3]),
                                     ([0, 1], [1, 2]), ([1, 2], [0, 1])])
def test_hamming_rejects_labels_outside_1_to_k(yhat, y):
    with pytest.raises(ValueError, match="1..2"):
        hamming_error(np.array(yhat), np.array(y), 2)


@pytest.mark.parametrize("yhat, y, match", [
    ([1.5, 2], [1, 2], "integers"),
    ([[1, 2], [2, 1]], [1, 2, 2, 1], "1-D"),
    (np.array([], dtype=np.int64), np.array([], dtype=np.int64), "empty"),
], ids=["float", "2-D", "empty"])
def test_hamming_rejects_bad_label_arrays(yhat, y, match):
    with pytest.raises(ValueError, match=match):
        hamming_error(yhat, y, 2)


def _lsa_optimum(w):
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(w, maximize=True)
    return int(w[rows, cols].sum())


@st.composite
def _weight_matrices(draw):
    """K×K counts, K in 1..15: all equal, or drawn from a small range (heavy
    ties) or a wide one, with some rows zeroed."""
    k = draw(st.integers(1, 15))
    if draw(st.booleans()):
        return np.full((k, k), draw(st.integers(0, 50)), dtype=np.int64)
    top = draw(st.sampled_from([1, 2, 5, 10**6]))
    w = draw(arrays(np.int64, (k, k), elements=st.integers(0, top)))
    w[draw(arrays(np.bool_, k))] = 0
    return w


@given(_weight_matrices())
def test_max_assignment_matches_linear_sum_assignment(w):
    assert cluster._max_assignment(w) == _lsa_optimum(w)


def test_max_assignment_k200():
    w = np.random.default_rng(9).integers(0, 30, size=(200, 200))
    assert cluster._max_assignment(w) == _lsa_optimum(w)
