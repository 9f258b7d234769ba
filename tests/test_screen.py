import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from ifpca import screen
from ifpca.errors import EmptySelection, ZeroSpread
from ifpca.matrix import standardize_columns
from ifpca.screen import (KsScores, build_null_table, ks_of_standardized,
                          ks_scores, load_null_table, normalize_scores,
                          null_reference_values, pvalues, save_null_table,
                          select_features)

B = screen._KS_BLOCK


def ks_sup_brute_force(v):
    """Independent oracle: evaluate |F_n - Phi| at both one-sided limits of
    every jump of the empirical CDF."""
    v = np.sort(np.asarray(v, dtype=float))
    n = v.size
    best = 0.0
    for i, w in enumerate(v, start=1):
        phi = ndtr(w)
        best = max(best, abs(i / n - phi), abs((i - 1) / n - phi))
    return math.sqrt(n) * best


def test_ks_single_point_at_median():
    assert ks_of_standardized([0.0]) == pytest.approx(0.5, abs=1e-15)


def test_ks_two_points():
    # Phi(1) = 0.841345 -> max gap 0.341345 at both jumps
    assert ks_of_standardized([-1.0, 1.0]) == pytest.approx(
        math.sqrt(2) * 0.341345, abs=1e-6)


def test_ks_quantile_grid_exact():
    for n in (5, 25, 100):
        v = ndtri((np.arange(1, n + 1) - 0.5) / n)
        assert ks_of_standardized(v) == pytest.approx(0.5 / math.sqrt(n),
                                                      abs=1e-12)


def test_ks_matches_brute_force_sup():
    rng = np.random.default_rng(10)
    for _ in range(200):
        n = int(rng.integers(1, 201))
        v = rng.standard_normal(n) * rng.uniform(0.5, 2.0) + rng.normal()
        assert ks_of_standardized(v) == ks_sup_brute_force(v)


def test_ks_range_bound():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 100))
        v = rng.standard_normal(n)
        psi = ks_of_standardized(v)
        assert 1.0 / (2.0 * math.sqrt(n)) - 1e-12 <= psi <= math.sqrt(n) + 1e-12


def test_ks_scores_identical_columns():
    rng = np.random.default_rng(12)
    col = rng.standard_normal(30)
    w = standardize_columns(np.tile(col[:, None], (1, 5)))
    s = ks_scores(w).scores
    assert np.ptp(s) == 0.0


def test_ks_scores_row_permutation_invariant():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((40, 8))
    s1 = ks_scores(standardize_columns(x)).scores
    s2 = ks_scores(standardize_columns(x[rng.permutation(40)])).scores
    # column means/sds are recomputed in a different summation order, so the
    # invariance holds only up to roundoff
    np.testing.assert_allclose(s1, s2, rtol=0, atol=1e-12)


def test_ks_scores_affine_invariant():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((50, 1))
    base = ks_scores(standardize_columns(x)).scores[0]
    for a, b in [(2.5, -3.0), (-1.7, 4.0), (0.01, 0.0)]:
        s = ks_scores(standardize_columns(a * x + b)).scores[0]
        assert s == pytest.approx(base, abs=1e-12)


@settings(max_examples=50)
@given(n=st.integers(2, 200), seed=st.integers(0, 2**32 - 1),
       a=st.floats(1e-3, 1e3), b=st.floats(-1e3, 1e3))
def test_ks_scores_affine_invariant_property(n, seed, a, b):
    # a*x + b is exact up to an ulp of |b| + a|x|, and the mean and SD add a
    # relative n*eps, so the standardized values move by at most about
    # n*eps*(|b| + a*max|x|)/(a*sd); Phi is 1/sqrt(2 pi)-Lipschitz and the
    # score carries a factor sqrt(n).
    x = np.random.default_rng(seed).standard_normal((n, 1))
    base = ks_scores(standardize_columns(x)).scores[0]
    s = ks_scores(standardize_columns(a * x + b)).scores[0]
    eps = np.finfo(np.float64).eps
    bound = math.sqrt(n) * 16 * n * eps * (abs(b) / a + np.abs(x).max()) / x.std()
    assert abs(s - base) <= bound


@settings(max_examples=100)
@given(null=st.lists(st.floats(-5, 5), min_size=1, max_size=50),
       scores=st.lists(st.floats(-6, 6), min_size=1, max_size=50))
def test_pvalues_antitone_property(null, scores):
    # Ties in the scores and between scores and the null included.
    null = np.sort(null)
    scores = np.asarray(scores + null[:3].tolist())
    p = pvalues(scores, null)
    order = np.argsort(scores, kind="stable")
    assert np.all(np.diff(p[order]) <= 0)
    assert np.all((p > 0) & (p <= 1))


@settings(max_examples=50)
@given(n=st.integers(2, 300), p=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
def test_ks_scores_match_columnwise_calls(n, p, seed):
    # Both go through one KS kernel, so the agreement is exact.
    rng = np.random.default_rng(seed)
    w = standardize_columns(rng.standard_normal((n, p)))
    vec = ks_scores(w).scores
    for j in range(p):
        assert vec[j] == ks_of_standardized(w.columns()[:, j])


@settings(max_examples=25)
@given(n=st.integers(2, 40),
       p=st.sampled_from([1, B - 1, B, B + 1, 2 * B + 3]) | st.integers(1, 30),
       order=st.sampled_from("CF"), seed=st.integers(0, 2**32 - 1))
def test_ks_scores_blocks_thread_invariant(n, p, order, seed):
    # Blocks of B columns on 1, 2 or 3 workers give the column-by-column
    # scores exactly, and leave the standardized matrix as it was.
    rng = np.random.default_rng(seed)
    w = standardize_columns(np.asarray(rng.standard_normal((n, p)), order=order))
    before = w.columns()
    runs = [ks_scores(w, threads=t).scores for t in (1, 2, 3)]
    assert np.array_equal(w.columns(), before)
    assert all(np.array_equal(r, runs[0]) for r in runs[1:])
    assert runs[0].shape == (p,)
    assert all(runs[0][j] == ks_of_standardized(before[:, j]) for j in range(p))


def test_normalize_meanstd_symmetric():
    ks = KsScores(scores=np.array([1.0, 2.0, 3.0]))
    out = normalize_scores(ks, "meanstd")
    np.testing.assert_allclose(out.scores, [-1.0, 0.0, 1.0])


def test_normalize_none_identity():
    ks = KsScores(scores=np.array([0.3, 0.8]))
    assert normalize_scores(ks, "none") is ks


def test_normalize_medmad_zero_spread():
    ks = KsScores(scores=np.array([1.0, 1.0, 1.0, 10.0]))
    with pytest.raises(ZeroSpread):
        normalize_scores(ks, "medmad")


def test_normalize_meanstd_moments():
    rng = np.random.default_rng(16)
    ks = KsScores(scores=rng.uniform(0.3, 1.5, size=500))
    out = normalize_scores(ks, "meanstd")
    assert abs(out.scores.mean()) < 1e-10
    assert abs(out.scores.std(ddof=1) - 1.0) < 1e-10


def test_normalize_lower50_matches_null_bulk():
    rng = np.random.default_rng(17)
    null = build_null_table(30, 2000, seed=5)
    scores = rng.uniform(0.4, 2.0, size=400)
    out = normalize_scores(KsScores(scores=scores), "lower50", null=null)
    low_out = np.sort(out.scores)[:200]
    low_null = null.values[:1000]
    assert low_out.mean() == pytest.approx(low_null.mean(), abs=1e-10)
    assert low_out.std(ddof=1) == pytest.approx(low_null.std(ddof=1), abs=1e-10)


def test_null_table_single_draw_in_range():
    t = build_null_table(9, 1, seed=0)
    assert 1.0 / (2 * 3.0) <= t.values[0] <= 3.0


def test_null_table_deterministic():
    a = build_null_table(25, 500, seed=7)
    b = build_null_table(25, 500, seed=7)
    assert np.array_equal(a.values, b.values)


def test_null_table_thread_invariant():
    a = build_null_table(50, 10000, seed=3, threads=1)
    b = build_null_table(50, 10000, seed=3, threads=4)
    assert np.array_equal(a.values, b.values)


def ks_rows_every_entry(srt):
    """sqrt(n) * max(i/n - Phi, Phi - (i-1)/n) over each sorted row, with Phi
    evaluated at every entry."""
    n = srt.shape[1]
    i = np.arange(1.0, n + 1)
    phi = ndtr(srt)
    return np.sqrt(n) * np.maximum((i / n - phi).max(axis=1),
                                   (phi - (i - 1.0) / n).max(axis=1))


@settings(max_examples=60)
@given(n=st.integers(1, 12) | st.sampled_from([143, 144, 145, 577, 5000])
       | st.integers(144, 1200),
       rows=st.integers(1, 4), decimals=st.sampled_from([None, 0, 1, 2]),
       constant=st.booleans(), shift=st.sampled_from([0.0, 3.0, -3.0, 40.0, -40.0]),
       center=st.sampled_from([0.0, 0.7, -2.5]), scale=st.sampled_from([1.0, 0.3, 3.7]),
       seed=st.integers(0, 2**32 - 1))
def test_ks_kernel_matches_every_entry_form(n, rows, decimals, constant, shift,
                                            center, scale, seed):
    # The kernel takes raw sorted rows and standardizes only where it
    # evaluates Phi, and the block-pruned path (n >= 144) evaluates Phi only
    # where the maximum can be.  Both must give the every-entry value on the
    # rows standardized first and then sorted, bit for bit: on rows with
    # ties (rounded values), constant rows, and rows shifted so far that the
    # maximum sits at the first (+40) or the last (-40) order statistic.
    z = np.random.default_rng(seed).standard_normal((rows, n)) + shift
    if decimals is not None:
        z = np.round(z, decimals)
    if constant:
        z[0] = z[0, 0]
    c = center + np.arange(rows)
    s = scale * (1.0 + np.arange(rows) / 3)
    want = ks_rows_every_entry(np.sort((z - c[:, None]) / s[:, None], axis=1))
    assert np.array_equal(screen._ks_of_sorted(np.sort(z, axis=1), c, s), want)


def collapsing_column(n):
    """n distinct values next to 1.0 and one at 1e20: the column's mean and SD
    are so large that the distinct values standardize to one value."""
    col = 1.0 + np.finfo(np.float64).eps * np.arange(n)
    col[0] = 1e20
    return col


def test_collapsing_column_standardizes_distinct_values_to_one():
    x = np.stack([collapsing_column(200), np.arange(200.0)], axis=1)
    w = standardize_columns(x).columns()
    assert np.unique(x[1:, 0]).size == 199 and np.unique(w[1:, 0]).size == 1


@settings(max_examples=40)
@given(n=st.sampled_from([2, 3, 71, 143, 144, 145, 577]) | st.integers(2, 300),
       p=st.sampled_from([1, B - 1, B + 1, 2 * B + 3]) | st.integers(1, 40),
       layout=st.sampled_from(["C", "F", "strided"]),
       decimals=st.sampled_from([None, 0, 1]), collapse=st.booleans(),
       constant=st.lists(st.integers(0, 2 * B + 2), max_size=4),
       threads=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_ks_scores_of_raw_x_match_every_entry_form(n, p, layout, decimals, collapse,
                                                    constant, threads, seed):
    # ks_scores sorts x's columns and never forms W.  Its scores equal the
    # every-entry form on W's columns standardized first and then sorted,
    # bit for bit: with constant columns dropped from inside a block, with
    # ties, with distinct x that standardize to equal values, on either side
    # of n = 144, and on an F-ordered x (the transposed view that cluster
    # --transpose passes) and a strided view.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p)) * 3.0 + 1.5
    if decimals is not None:
        x = np.round(x, decimals)
    if collapse:
        x[:, rng.integers(p)] = collapsing_column(n)
    constant = sorted({j for j in constant if j < p})
    x[:, constant] = 2.5
    if layout == "F":
        x = np.ascontiguousarray(x.T).T
    elif layout == "strided":
        x = np.repeat(x, 2, axis=1)[:, ::2]
    if (np.ptp(x, axis=0) == 0).all():
        return
    w = standardize_columns(x, drop_constant=True, threads=threads)
    got = ks_scores(w, threads=threads).scores
    assert not set(constant) & set(w.kept_columns)
    assert np.array_equal(got, ks_rows_every_entry(np.sort(w.columns().T, axis=1)))


def null_table_oracle(n, reps, seed):
    """Whole-chunk formula: each chunk's rows drawn in one call, standardized
    by (z - mean) / std, sorted and scored; all chunks sorted together."""
    chunk = max(1, screen._NULL_CHUNK_TARGET // n)
    parts = []
    for ci, start in enumerate(range(0, reps, chunk)):
        rng = np.random.default_rng([seed, ci])
        z = rng.standard_normal((min(chunk, reps - start), n))
        z = (z - z.mean(axis=1, keepdims=True)) / z.std(axis=1, ddof=1,
                                                         keepdims=True)
        z.sort(axis=1)
        parts.append(ks_rows_every_entry(z))
    return np.sort(np.concatenate(parts))


@pytest.mark.parametrize("n, reps", [
    (577, 15_000),   # chunks of 6932 rows, buffers of 259: both cross
    (2000, 4_567),   # chunks of 2000 rows, buffers of 75
    (5, 2),          # one chunk, one partial buffer
])
def test_null_table_matches_whole_chunk_oracle(n, reps):
    want = null_table_oracle(n, reps, seed=21)
    for threads in (1, 2):
        got = build_null_table(n, reps, seed=21, threads=threads).values
        assert np.array_equal(got, want)


def test_null_table_sorted_and_bounded():
    t = build_null_table(20, 3000, seed=9)
    assert np.all(np.diff(t.values) >= 0)
    assert t.values[0] >= 1.0 / (2 * math.sqrt(20))
    assert t.values[-1] <= math.sqrt(20)


def test_pvalues_boundaries():
    null = np.array([0.4, 0.6, 0.8])
    assert pvalues(0.9, null)[0] == pytest.approx(0.25)
    assert pvalues(0.1, null)[0] == pytest.approx(1.0)
    assert pvalues(0.7, null)[0] == pytest.approx(0.5)


def test_pvalues_antitone():
    rng = np.random.default_rng(18)
    null = np.sort(rng.uniform(0, 2, size=200))
    scores = rng.uniform(0, 2, size=100)
    p = pvalues(scores, null)
    order = np.argsort(scores)
    assert np.all(np.diff(p[order]) <= 0)
    assert np.all((p > 0) & (p <= 1))


def test_select_features_examples():
    ks = KsScores(scores=np.array([0.2, 0.9, 0.5]))
    np.testing.assert_array_equal(select_features(ks, 0.5), [2, 3])
    np.testing.assert_array_equal(select_features(ks, -np.inf), [1, 2, 3])
    with pytest.raises(EmptySelection):
        select_features(ks, 1.0)


def test_null_reference_meanstd_scaling():
    null = build_null_table(30, 1000, seed=2)
    ref = null_reference_values(null, "meanstd")
    assert abs(ref.mean()) < 1e-10
    assert abs(ref.std(ddof=1) - 1.0) < 1e-10
    assert np.array_equal(null_reference_values(null, "none"), null.values)


@pytest.mark.parametrize("ext", ["txt", "bin"])
def test_null_table_round_trip(tmp_path, ext):
    t = build_null_table(15, 300, seed=11)
    path = tmp_path / f"null.{ext}"
    save_null_table(t, path)
    back = load_null_table(path)
    assert back.n == t.n and back.seed == t.seed
    if ext == "bin":
        assert np.array_equal(back.values, t.values)
    else:
        np.testing.assert_allclose(back.values, t.values, rtol=0, atol=0)


def test_null_table_text_header(tmp_path):
    t = build_null_table(15, 10, seed=4)
    path = tmp_path / "null.txt"
    save_null_table(t, path)
    first = path.read_text().splitlines()[0]
    assert first == "ifpca-null v1, n=15, N=10, seed=4"
