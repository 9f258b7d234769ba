import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ifpca.errors import DegenerateGapWarning, ZeroVarianceColumn
from ifpca.matrix import (SpectralEmbedding, entrywise_truncate,
                          standardize_columns, truncated_left_svd)


def test_standardize_symmetric_column():
    w = standardize_columns(np.array([[1.0], [2.0], [3.0]]))
    np.testing.assert_allclose(w.values[:, 0], [-1.0, 0.0, 1.0])
    assert w.col_mean[0] == 2.0
    assert w.col_sd[0] == 1.0


def test_standardize_constant_column_fatal():
    x = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
    with pytest.raises(ZeroVarianceColumn):
        standardize_columns(x)


@pytest.mark.parametrize("n", [3, 71, 577])
@pytest.mark.parametrize("value", [0.1, 1 / 3, 7.7])
def test_standardize_constant_column_whose_mean_rounds(value, n):
    # The mean of n copies of value need not round to value, and then the
    # computed SD is of order eps, not 0 (a column of 0.1 at n=3: 1.7e-17).
    # The column is constant all the same: it raises, or is dropped.
    x = np.random.default_rng(n).standard_normal((n, 4))
    x[:, 2] = value
    with pytest.raises(ZeroVarianceColumn) as err:
        standardize_columns(x)
    assert err.value.column == 2
    w = standardize_columns(x, drop_constant=True)
    assert np.array_equal(w.kept_columns, [0, 1, 3])
    keep = [0, 1, 3]
    assert np.array_equal(w.values, (x[:, keep] - x.mean(0)[keep]) / x.std(0, ddof=1)[keep])


def test_standardize_two_point_column():
    # mean 1, sd sqrt(2) with the n-1 denominator
    w = standardize_columns(np.array([[0.0], [2.0]]))
    np.testing.assert_allclose(w.values[:, 0], [-0.70711, 0.70711], atol=5e-6)


def test_standardize_drop_constant_records_map():
    x = np.array([[5.0, 1.0, 7.0], [5.0, 2.0, 8.0], [5.0, 3.0, 9.0]])
    w = standardize_columns(x, drop_constant=True)
    assert w.values.shape == (3, 2)
    np.testing.assert_array_equal(w.kept_columns, [1, 2])


def test_standardize_columns_have_zero_mean_unit_sd():
    rng = np.random.default_rng(1)
    x = rng.normal(3.0, 5.0, size=(50, 20))
    w = standardize_columns(x)
    assert np.abs(w.values.mean(axis=0)).max() < 1e-10 * 50
    np.testing.assert_allclose(w.values.std(axis=0, ddof=1), 1.0, atol=1e-8)


@given(n=st.integers(2, 30), p=st.integers(1, 30),
       constant=st.sets(st.integers(0, 29), max_size=5),
       order=st.sampled_from("CF"), seed=st.integers(0, 2**32 - 1))
def test_standardize_matches_literal_formula(n, p, constant, order, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p)) * rng.uniform(0.1, 10.0, p) + rng.normal(0, 5, p)
    for j in constant:
        if j < p:
            x[:, j] = 3.0
    x = np.asarray(x, order=order)
    keep = np.flatnonzero(x.std(0, ddof=1) > 0)
    if keep.size < p:
        # Without drop_constant a constant column is an error.
        with pytest.raises(ZeroVarianceColumn):
            standardize_columns(x)
    if keep.size == 0:
        return
    w = standardize_columns(x, drop_constant=True)
    want = (x[:, keep] - x.mean(0)[keep]) / x.std(0, ddof=1)[keep]
    assert np.array_equal(w.values, want)
    assert np.array_equal(w.col_mean, x.mean(0)[keep])
    assert np.array_equal(w.col_sd, x.std(0, ddof=1)[keep])
    assert np.array_equal(w.kept_columns, keep)
    if keep.size == p:
        assert np.array_equal(standardize_columns(x).values, want)


def test_standardize_idempotent():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((30, 10)) * 4 + 1
    w = standardize_columns(x)
    w2 = standardize_columns(w.values)
    np.testing.assert_allclose(w2.values, w.values, atol=1e-8)


def test_svd_rank_one():
    u = np.array([3.0, 4.0])
    v = np.array([1.0, -2.0, 2.0])
    emb = truncated_left_svd(np.outer(u, v), 1)
    np.testing.assert_allclose(emb.u[:, 0], [0.6, 0.8], atol=1e-10)
    np.testing.assert_allclose(emb.singular_values[0], 5.0 * 3.0, atol=1e-10)


def test_svd_identity_flags_degenerate_gap():
    with pytest.warns(DegenerateGapWarning):
        emb = truncated_left_svd(np.eye(3), 2)
    np.testing.assert_allclose(emb.singular_values, [1.0, 1.0], atol=1e-10)
    np.testing.assert_allclose(emb.u.T @ emb.u, np.eye(2), atol=1e-8)


def test_svd_matches_dense_oracle():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((20, 50))
    emb = truncated_left_svd(a, 3)
    s_ref = np.linalg.svd(a, compute_uv=False)[:3]
    np.testing.assert_allclose(emb.singular_values, s_ref, atol=1e-8)


def test_svd_small_matrices_match_oracle():
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = rng.integers(2, 13)
        p = rng.integers(2, 13)
        k = int(rng.integers(1, min(n, p) + 1))
        a = rng.standard_normal((n, p))
        emb = truncated_left_svd(a, k)
        s_ref = np.linalg.svd(a, compute_uv=False)[:k]
        np.testing.assert_allclose(emb.singular_values, s_ref, atol=1e-8)


def test_svd_exact_rank_reconstruction():
    rng = np.random.default_rng(5)
    k = 3
    a = rng.standard_normal((15, 4)) @ rng.standard_normal((4, 40))
    a = a[:, :]  # rank 4
    emb = truncated_left_svd(a, 4)
    sigma = emb.singular_values
    v = a.T @ emb.u / sigma
    recon = emb.u @ np.diag(sigma) @ v.T
    assert np.linalg.norm(recon - a) < 1e-6 * np.linalg.norm(a)
    del k


def test_svd_sign_convention():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((12, 30))
    emb = truncated_left_svd(a, 2)
    for col in emb.u.T:
        assert col[np.argmax(np.abs(col))] > 0


def test_svd_tall_matrix_gram_side():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((60, 8))
    emb = truncated_left_svd(a, 3)
    u_ref, s_ref, _ = np.linalg.svd(a, full_matrices=False)
    np.testing.assert_allclose(emb.singular_values, s_ref[:3], atol=1e-8)
    for j in range(3):
        dot = abs(emb.u[:, j] @ u_ref[:, j])
        assert dot > 1 - 1e-8


def test_truncate_clips_above():
    emb = SpectralEmbedding(u=np.array([[0.9], [-0.3]]),
                            singular_values=np.array([1.0]))
    out = entrywise_truncate(emb, 0.5)
    np.testing.assert_allclose(out.u[:, 0], [0.5, -0.3])


def test_truncate_identity_below_threshold():
    u = np.array([[0.2, -0.4], [0.1, 0.3]])
    emb = SpectralEmbedding(u=u, singular_values=np.array([1.0, 0.5]))
    out = entrywise_truncate(emb, 0.5)
    assert np.array_equal(out.u, u)


def test_truncate_is_contraction():
    rng = np.random.default_rng(8)
    for _ in range(20):
        u = rng.standard_normal((10, 3))
        emb = SpectralEmbedding(u=u, singular_values=np.ones(3))
        t = float(rng.uniform(0.1, 2.0))
        out = entrywise_truncate(emb, t)
        assert np.linalg.norm(out.u) <= np.linalg.norm(u) + 1e-12
        assert np.abs(out.u).max() <= t + 1e-15
