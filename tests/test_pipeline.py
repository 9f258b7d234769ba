import json

import numpy as np
import pytest

from ifpca.acm import AcmConfig, DistributionSpec, generate
from ifpca.errors import EmptySelection
from ifpca.pipeline import (
    PipelineOptions,
    baseline,
    canonical_json,
    classical_pca,
    if_hct_pca,
    if_hct_variant,
    if_pca_fixed,
    parse_threshold,
    run_pipeline,
)
from ifpca.screen import build_null_table, ks_scores, select_features
from ifpca.matrix import standardize_columns
from ifpca.cluster import hamming_error


def two_class_data(n=120, p=60, n_useful=12, shift=4.5, seed=0):
    """Strongly separated two-class matrix: first n_useful columns carry an
    asymmetric location shift, the rest are pure noise."""
    rng = np.random.default_rng(seed)
    y = np.repeat([1, 2], [n // 3, n - n // 3])
    x = rng.standard_normal((n, p))
    x[y == 1, :n_useful] += shift
    return x, y


@pytest.fixture(scope="module")
def null120():
    return build_null_table(120, 20000, seed=99)


def test_parse_threshold():
    assert parse_threshold("hc") == ("hc", None)
    assert parse_threshold("fixed:1.5") == ("fixed", 1.5)
    assert parse_threshold("fixed-q:0.06") == ("fixed-q", 0.06)
    for bad in ("fixed:inf", "fixed-q:0", "fixed-q:nan", "fixed-q:inf",
                "quantile:0.9"):
        with pytest.raises(ValueError):
            parse_threshold(bad)


def test_options_validation():
    with pytest.raises(ValueError):
        PipelineOptions(k=0)
    with pytest.raises(ValueError):
        PipelineOptions(k=2, method="dbscan")
    with pytest.raises(ValueError):
        PipelineOptions(k=2, norm="rank")
    for threads in (0, -4):
        with pytest.raises(ValueError, match="threads"):
            PipelineOptions(k=2, threads=threads)
    with pytest.raises(ValueError, match="null_reps"):
        PipelineOptions(k=2, null_reps=-5)
    PipelineOptions(k=2, null_reps=0, threads=1)   # 0 = default table size


def test_hc_pipeline_recovers_separated_classes(null120):
    x, y = two_class_data()
    opts = PipelineOptions(k=2, norm="none", null_table=null120, seed=1)
    rep = if_hct_pca(x, opts, truth=y)
    assert rep.error_rate <= 0.05
    # every truly useful column survives selection
    assert set(range(1, 13)) <= set(rep.selected.tolist())
    assert rep.j_hat == len(rep.selected)


def test_fixed_threshold_selected_set_recompute():
    x, _ = two_class_data()
    rep = if_pca_fixed(x, 2, 1.0, norm="none", seed=1)
    scores = ks_scores(standardize_columns(x)).scores
    expect = np.flatnonzero(scores >= 1.0) + 1
    np.testing.assert_array_equal(np.sort(rep.selected), expect)
    assert rep.threshold == 1.0


def test_fixed_zero_threshold_matches_classical_pca():
    # at t = 0 every feature survives, so selection-then-PCA is plain PCA
    x, y = two_class_data()
    a = if_pca_fixed(x, 2, 0.0, norm="none", seed=3, truth=y)
    b = classical_pca(x, 2, seed=3, truth=y)
    assert hamming_error(a.labels, b.labels, 2) == 0.0
    assert len(a.selected) == x.shape[1]
    assert a.error_rate == b.error_rate


def test_empty_selection_raises():
    x, _ = two_class_data()
    with pytest.raises(EmptySelection):
        if_pca_fixed(x, 2, 999.0, norm="none", seed=0)


def test_all_null_data_errors_near_half(null120):
    rng = np.random.default_rng(42)
    x = rng.standard_normal((120, 60))
    y = np.repeat([1, 2], 60)
    rep = if_pca_fixed(x, 2, 0.0, norm="none", seed=0, truth=y)
    assert 0.3 <= rep.error_rate <= 0.5


def test_if_kmeans_with_zero_threshold_matches_kmeans_baseline():
    x, y = two_class_data()
    opts = PipelineOptions(k=2, method="if-kmeans", threshold="fixed:0",
                           norm="none", seed=5)
    a = if_hct_variant(x, opts, truth=y)
    b = baseline(x, 2, "kmeans", seed=5, truth=y)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_baselines_on_separated_blobs():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((60, 5)) * 0.2
    x[30:] += 4.0
    y = np.repeat([1, 2], 30)
    for method in ("kmeans", "kmeanspp", "hier"):
        rep = baseline(x, 2, method, truth=y, seed=0)
        assert rep.error_rate == 0.0, method


def test_label_permutation_invariance_of_error(null120):
    x, y = two_class_data()
    opts = PipelineOptions(k=2, norm="none", null_table=null120, seed=1)
    rep = run_pipeline(x, opts, truth=y)
    flipped = 3 - y
    rep2 = run_pipeline(x, opts, truth=flipped)
    assert rep.error_rate == rep2.error_rate


def test_thread_count_does_not_change_results(null120):
    x, y = two_class_data()
    a = PipelineOptions(k=2, norm="none", null_table=null120, seed=2, threads=1)
    b = PipelineOptions(k=2, norm="none", null_table=null120, seed=2, threads=4)
    ja = run_pipeline(x, a, truth=y).to_json(include_timings=False)
    jb = run_pipeline(x, b, truth=y).to_json(include_timings=False)
    assert ja == jb


def test_run_is_deterministic(null120):
    x, y = two_class_data()
    opts = PipelineOptions(k=2, norm="none", null_table=null120, seed=2)
    ja = run_pipeline(x, opts, truth=y).to_json(include_timings=False)
    jb = run_pipeline(x, opts, truth=y).to_json(include_timings=False)
    assert ja == jb


def test_report_json_round_trip(null120):
    x, y = two_class_data()
    opts = PipelineOptions(k=2, norm="none", null_table=null120, seed=2)
    blob = run_pipeline(x, opts, truth=y).to_json(include_timings=False)
    assert canonical_json(json.loads(blob)) == blob


def test_meanstd_norm_on_generated_data():
    cfg = AcmConfig(k=2, p=400, theta=0.8, vartheta=0.25, r=2.0, rep=1,
                    delta=(1.0 / 3.0, 2.0 / 3.0), gamma=(0.5, 0.0, 0.5),
                    g_mubar=DistributionSpec("normal", (0.0, 1.0)),
                    g_mu=DistributionSpec("uniform", (1.0, 0.2)),
                    g_sigma=DistributionSpec("pointmass", (1.0,)))
    x, truth = generate(cfg, seed=17)
    null = build_null_table(cfg.n, 20000, seed=50)
    opts = PipelineOptions(k=2, norm="meanstd", null_table=null, seed=0)
    rep = if_hct_pca(x, opts, truth=truth.y)
    assert rep.error_rate <= 0.15


def test_null_table_n_mismatch_rejected(null120):
    x, _ = two_class_data(n=60)
    opts = PipelineOptions(k=2, norm="none", null_table=null120, seed=0)
    with pytest.raises(ValueError):
        run_pipeline(x, opts)


def test_method_guards():
    x, _ = two_class_data()
    with pytest.raises(ValueError):
        if_hct_pca(x, PipelineOptions(k=2, threshold="fixed:1.0"))
    with pytest.raises(ValueError):
        if_hct_variant(x, PipelineOptions(k=2, method="ifpca"))
    with pytest.raises(ValueError):
        baseline(x, 2, "pca")
