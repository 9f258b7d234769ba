import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifpca.errors import NoEligibleIndex
from ifpca.hc import hc_threshold
from ifpca.screen import KsScores, select_features


def hc_formula(j, p, n, pi_j):
    num = j / p - pi_j
    return math.sqrt(p) * num / math.sqrt(max(math.sqrt(n) * num, 0.0) + j / p)


def test_hc_worked_example():
    # p=10, n=100: eligible ranks are {3, 4}; rank 4 wins.
    pvals = np.array([0.01, 0.05, 0.25, 0.30, 0.40,
                      0.55, 0.60, 0.70, 0.80, 0.90])
    scores = np.sort(np.random.default_rng(0).uniform(0, 2, 10))[::-1].copy()
    # align scores with p-values: largest score <-> smallest p-value
    res = hc_threshold(pvals, scores, n=100)
    assert res.hc_curve[2] == pytest.approx(0.15811 / math.sqrt(0.8), abs=1e-4)
    assert res.hc_curve[3] == pytest.approx(0.31623 / math.sqrt(1.4), abs=1e-4)
    np.testing.assert_array_equal(np.flatnonzero(res.eligible) + 1, [3, 4])
    assert res.j_hat == 4
    assert res.t_hc == np.sort(scores)[::-1][3]


def test_hc_zero_numerator_tie_to_smallest():
    p = 20
    pvals = np.arange(1, p + 1) / p
    scores = np.sort(np.random.default_rng(1).uniform(size=p))[::-1].copy()
    res = hc_threshold(pvals, scores, n=50)
    np.testing.assert_allclose(res.hc_curve, 0.0, atol=1e-12)
    eligible = np.flatnonzero(res.eligible) + 1
    assert res.j_hat == eligible[0]


def test_hc_no_eligible_index():
    p = 10
    pvals = np.full(p, math.log(p) / p)  # floor not strictly exceeded
    scores = np.linspace(1, 0, p)
    with pytest.raises(NoEligibleIndex):
        hc_threshold(pvals, scores, n=30)
    res = hc_threshold(pvals, scores, n=30, allow_fallback=True)
    assert 1 <= res.j_hat < p / 2


def test_hc_curve_matches_definitional_recompute():
    rng = np.random.default_rng(2)
    p, n = 200, 80
    pvals = rng.uniform(size=p)
    scores = rng.uniform(0.3, 1.5, size=p)
    res = hc_threshold(pvals, scores, n=n)
    pi = np.sort(pvals)
    for j in range(1, p + 1):
        assert res.hc_curve[j - 1] == pytest.approx(
            hc_formula(j, p, n, pi[j - 1]), abs=1e-12)


def test_hc_threshold_selects_j_hat_features():
    rng = np.random.default_rng(3)
    p, n = 150, 60
    scores = rng.uniform(0.3, 1.8, size=p)  # distinct a.s.
    null = np.sort(rng.uniform(0.2, 1.9, size=5000))
    from ifpca.screen import pvalues
    pv = pvalues(scores, null)
    res = hc_threshold(pv, scores, n=n)
    sel = select_features(KsScores(scores=scores), res.t_hc)
    assert sel.size == res.j_hat


def test_hc_monotone_relabeling_invariance():
    rng = np.random.default_rng(4)
    p, n = 100, 40
    scores = rng.uniform(0.3, 1.5, size=p)
    null = np.sort(rng.uniform(0.2, 1.7, size=3000))
    from ifpca.screen import pvalues
    res1 = hc_threshold(pvalues(scores, null), scores, n=n)
    f = np.exp  # strictly increasing map applied to both sides
    res2 = hc_threshold(pvalues(f(scores), f(null)), f(scores), n=n)
    assert res1.j_hat == res2.j_hat


@settings(max_examples=200)
@given(p=st.integers(4, 60), data=st.data())
def test_hc_ties_go_to_smallest_j_property(p, data):
    # p-values on the grid m/p make the HC numerator j/p - m/p exactly 0 at
    # several ranks, so the maximum is often tied.
    m = data.draw(st.lists(st.integers(1, p), min_size=p, max_size=p))
    pvals = np.asarray(m, dtype=np.float64) / p
    scores = np.linspace(2.0, 1.0, p)
    res = hc_threshold(pvals, scores, n=data.draw(st.integers(2, 500)),
                       allow_fallback=True)
    j = np.arange(1, p + 1)
    pool = res.eligible if res.eligible.any() else j < p / 2
    best = res.hc_curve[pool].max()
    assert res.j_hat == j[pool & (res.hc_curve == best)].min()
