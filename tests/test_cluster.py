import itertools

import numpy as np
import pytest

from ifpca.cluster import (hamming_error, hierarchical_complete, kmeans,
                           kmeanspp_seed)
from ifpca.errors import InvalidK


def hamming_oracle(yhat, y, k):
    """Literal definition: count mismatches per relabeling of the truth."""
    n = len(y)
    best = n
    for perm in itertools.permutations(range(1, k + 1)):
        mis = sum(1 for a, b in zip(yhat, y) if a != perm[b - 1])
        best = min(best, mis)
    return best / n


def test_kmeans_separated_pairs():
    pts = np.array([0.0, 1.0, 10.0, 11.0])
    res = kmeans(pts, 2, replicates=5, seed=0)
    assert res.labels[0] == res.labels[1]
    assert res.labels[2] == res.labels[3]
    assert res.labels[0] != res.labels[2]
    np.testing.assert_allclose(sorted(res.centers[:, 0]), [0.5, 10.5])
    assert res.wcss == pytest.approx(1.0)


def test_kmeans_k1_is_mean():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((20, 3))
    res = kmeans(pts, 1, replicates=1, seed=0)
    np.testing.assert_allclose(res.centers[0], pts.mean(axis=0))
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


def test_kmeans_wcss_matches_recompute():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((40, 2))
    res = kmeans(pts, 3, replicates=10, seed=5)
    recomputed = sum(((pts[i] - res.centers[res.labels[i] - 1]) ** 2).sum()
                     for i in range(40))
    assert res.wcss == pytest.approx(recomputed, abs=1e-8)


def test_kmeans_winner_beats_single_replicates():
    from ifpca.cluster import _lloyd, _uniform_seed

    rng = np.random.default_rng(3)
    pts = rng.standard_normal((30, 2))
    best = kmeans(pts, 4, replicates=8, seed=9)
    for rep in range(8):
        r = np.random.default_rng([9, rep])
        _, _, wcss, _ = _lloyd(pts, _uniform_seed(pts, 4, r))
        assert best.wcss <= wcss + 1e-12


def test_kmeans_thread_invariant():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((50, 3))
    a = kmeans(pts, 3, replicates=6, seed=1, threads=1)
    b = kmeans(pts, 3, replicates=6, seed=1, threads=4)
    assert np.array_equal(a.labels, b.labels)
    assert a.wcss == b.wcss


def test_kmeanspp_k1_uniform():
    pts = np.arange(10.0)[:, None]
    rng = np.random.default_rng(0)
    c = kmeanspp_seed(pts, 1, rng)
    assert c.shape == (1, 1)
    assert c[0, 0] in pts


def test_kmeanspp_duplicates_no_crash():
    pts = np.ones((8, 2))
    rng = np.random.default_rng(1)
    c = kmeanspp_seed(pts, 3, rng)
    np.testing.assert_allclose(c, 1.0)


def test_kmeanspp_far_point_certain():
    pts = np.array([[0.0], [100.0]])
    for seed in range(20):
        c = kmeanspp_seed(pts, 2, np.random.default_rng(seed))
        assert sorted(c[:, 0]) == [0.0, 100.0]


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
