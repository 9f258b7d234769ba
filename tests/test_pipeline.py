import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifpca import cli, matrix, screen
from ifpca.acm import AcmConfig, DistributionSpec, generate
from ifpca.errors import EmptySelection, InvalidK
from ifpca.pipeline import (
    METHODS,
    NORMS,
    Instance,
    PipelineOptions,
    canonical_json,
    parse_threshold,
    run_pipeline,
)
from ifpca.cluster import hierarchical_complete, kmeans
from ifpca.screen import (build_null_table, ks_scores, normalize_scores,
                          null_reference_values, pvalues, select_features)
from ifpca.matrix import (Gram, entrywise_truncate, standardize_columns,
                          truncated_left_svd)


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
    with pytest.raises(ValueError, match="seed must be >= 0"):
        PipelineOptions(k=2, seed=-1)
    # Refused even for hier, which draws no replicate.
    with pytest.raises(ValueError, match="replicates must be >= 1"):
        PipelineOptions(k=2, method="hier", replicates=0)
    PipelineOptions(k=2, null_reps=0, threads=1)   # 0 = default table size
    assert PipelineOptions(k=2).threads is None     # None = every usable core
    PipelineOptions(k=2, threads=None)


def test_hc_pipeline_recovers_separated_classes(null120):
    x, y = two_class_data()
    opts = PipelineOptions(k=2, norm="none", null_table=null120, seed=1)
    rep = run_pipeline(x, opts, truth=y)
    assert rep.error_rate <= 0.05
    # every truly useful column survives selection
    assert set(range(1, 13)) <= set(rep.selected.tolist())
    assert rep.j_hat == len(rep.selected)


def test_fixed_threshold_selected_set_recompute():
    x, _ = two_class_data()
    opts = PipelineOptions(k=2, threshold="fixed:1.0", norm="none", seed=1)
    rep = run_pipeline(x, opts)
    scores = ks_scores(standardize_columns(x)).scores
    expect = np.flatnonzero(scores >= 1.0) + 1
    np.testing.assert_array_equal(np.sort(rep.selected), expect)
    assert rep.threshold == 1.0


def test_fixed_q_threshold_known_answer():
    # sqrt(2 q~ log p) at q~ = 0.06, p = 4e4
    x = np.random.default_rng(8).standard_normal((12, 4 * 10**4))
    opts = PipelineOptions(k=2, threshold="fixed-q:0.06", norm="none", seed=0)
    rep = run_pipeline(x, opts)
    np.testing.assert_allclose(rep.threshold, 1.1276507, atol=1e-6)
    scores = ks_scores(standardize_columns(x)).scores
    np.testing.assert_array_equal(rep.selected,
                                  np.flatnonzero(scores >= rep.threshold) + 1)


@pytest.mark.parametrize("screened, unscreened", [
    ("ifpca", "pca"), ("if-kmeans", "kmeans"), ("if-hier", "hier")])
def test_zero_threshold_matches_unscreened_method(screened, unscreened):
    # at t = 0 every feature survives, so screening first changes nothing
    x, y = two_class_data()
    a = run_pipeline(x, PipelineOptions(k=2, method=screened, norm="none",
                                        threshold="fixed:0", seed=3), truth=y)
    b = run_pipeline(x, PipelineOptions(k=2, method=unscreened, seed=3),
                     truth=y)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.selected, np.arange(1, x.shape[1] + 1))
    np.testing.assert_array_equal(b.selected, a.selected)
    assert a.error_rate == b.error_rate


@pytest.mark.parametrize("method", ["ifpca", "pca"])
def test_truncate_clusters_the_clipped_embedding(method):
    # Four far samples put their entries of the leading singular vector
    # past the clip level log(p)/sqrt(n) = 0.37.
    x = np.random.default_rng(4).standard_normal((120, 60))
    x[:4, :12] += 6.0
    rep = run_pipeline(x, PipelineOptions(k=2, method=method, norm="none",
                                          threshold="fixed:1.0", truncate=True,
                                          seed=2))
    emb = truncated_left_svd(standardize_columns(x).columns()[:, rep.selected - 1], 1)
    clipped = entrywise_truncate(emb, math.log(60) / math.sqrt(120))
    assert not np.array_equal(clipped.u, emb.u)
    np.testing.assert_array_equal(rep.labels, kmeans(clipped.u, 2, seed=2).labels)


def test_drop_constant_reports_input_columns():
    # Five constant columns in front; the useful columns are 11..18 of the
    # input (1-based), i.e. 6..13 after the drop.
    rng = np.random.default_rng(0)
    y = np.repeat([1, 2], [20, 40])
    x = rng.standard_normal((60, 40))
    x[:, :5] = 2.5
    x[y == 1, 10:18] += 4.5
    w = standardize_columns(x)
    scores = ks_scores(w).scores
    screened = run_pipeline(x, PipelineOptions(
        k=2, threshold="fixed:1.0", norm="none"), truth=y)
    np.testing.assert_array_equal(screened.selected,
                                  np.flatnonzero(scores >= 1.0) + 6)
    assert set(range(11, 19)) <= set(screened.selected.tolist())
    assert screened.selected.min() > 5
    baseline = run_pipeline(x, PipelineOptions(k=2, method="kmeans"), truth=y)
    np.testing.assert_array_equal(baseline.selected, np.arange(6, 41))


def test_empty_selection_raises():
    x, _ = two_class_data()
    with pytest.raises(EmptySelection):
        run_pipeline(x, PipelineOptions(k=2, threshold="fixed:999",
                                        norm="none"))


def test_all_null_data_errors_near_half(null120):
    rng = np.random.default_rng(42)
    x = rng.standard_normal((120, 60))
    y = np.repeat([1, 2], 60)
    rep = run_pipeline(x, PipelineOptions(k=2, threshold="fixed:0",
                                          norm="none"), truth=y)
    assert 0.3 <= rep.error_rate <= 0.5


def test_baselines_on_separated_blobs():
    # p = 500 > n: k-means runs on the row-space embedding.
    y = np.repeat([1, 2], 30)
    for p in (5, 500):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((60, p)) * 0.2
        x[30:] += 4.0
        for method in ("kmeans", "kmeanspp", "hier"):
            rep = run_pipeline(x, PipelineOptions(k=2, method=method), truth=y)
            assert rep.error_rate == 0.0, (method, p)


def test_label_permutation_invariance_of_error(null120):
    x, y = two_class_data()
    opts = PipelineOptions(k=2, norm="none", null_table=null120, seed=1)
    rep = run_pipeline(x, opts, truth=y)
    flipped = 3 - y
    rep2 = run_pipeline(x, opts, truth=flipped)
    assert rep.error_rate == rep2.error_rate


@pytest.mark.parametrize("method", METHODS)
def test_thread_count_does_not_change_results(method, null120):
    # p > n, so the baselines' k-means runs on the row-space embedding, and
    # p spans three standardization blocks, the last with a joined tail.
    x, y = two_class_data(p=2 * matrix._STD_BLOCK + 1)
    a = PipelineOptions(k=2, method=method, norm="none", null_table=null120,
                        seed=2, threads=1)
    b = replace(a, threads=4)
    ja = run_pipeline(x, a, truth=y).to_json(include_timings=False)
    jb = run_pipeline(x, b, truth=y).to_json(include_timings=False)
    assert ja == jb


@settings(max_examples=15)
@given(seed=st.integers(0, 2**32 - 1))
def test_column_permutation_equivariance(seed, null120):
    # Screening scores each column on its own, so the selected set permutes
    # with the columns; on separated classes the labels stay the same.  A
    # column's mean and SD may round differently at another position, so the
    # threshold agrees only up to rounding.
    x, y = two_class_data(seed=seed % 1000)
    perm = np.random.default_rng(seed).permutation(x.shape[1])
    opts = PipelineOptions(k=2, norm="none", null_table=null120, seed=1)
    a = run_pipeline(x, opts)
    b = run_pipeline(x[:, perm], opts)
    assert np.array_equal(np.sort(perm[b.selected - 1] + 1), a.selected)
    assert np.array_equal(b.labels, a.labels)
    assert b.threshold == pytest.approx(a.threshold, rel=1e-12)
    assert b.j_hat == a.j_hat


@pytest.fixture(scope="module")
def null40():
    return build_null_table(40, 5000, seed=98)


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(100, 600),
       norm=st.sampled_from(["none", "meanstd"]))
def test_hc_rank_obeys_its_constraints_on_null_data(seed, p, norm, null40):
    # On pure N(0,1) data HC's rank lands on null fluctuations; the rank rule
    # holds all the same: j_hat < p/2, pi_(j_hat) > log(p)/p, and no smaller
    # eligible rank has an HC value at least as high.  pi and the HC curve
    # are computed here from the p-values, not read from hc.
    n = 40
    x = np.random.default_rng(seed).standard_normal((n, p))
    rep = run_pipeline(x, PipelineOptions(k=2, norm=norm, null_table=null40))
    scores = normalize_scores(ks_scores(standardize_columns(x)), norm,
                              null=null40).scores
    pi = np.sort(pvalues(scores, null_reference_values(null40, norm)))
    frac = np.arange(1, p + 1) / p
    curve = math.sqrt(p) * (frac - pi) / np.sqrt(
        np.maximum(math.sqrt(n) * (frac - pi), 0.0) + frac)
    eligible = (frac < 0.5) & (pi > math.log(p) / p)
    j = rep.j_hat
    assert j < p / 2
    assert pi[j - 1] > math.log(p) / p
    assert not (eligible[:j - 1] & (curve[:j - 1] >= curve[j - 1])).any()
    assert curve[j - 1] == curve[eligible].max()
    assert rep.threshold == np.sort(scores)[::-1][j - 1]


X4 = [[1.0, 5.0], [2.0, 3.0], [4.0, 5.0], [8.0, 1.0]]
# name: (options, with null_table the n of a table to build, the data matrix,
# the error and its message)
SHAPE_ERRORS = {
    "K > n": ({"k": 5}, X4, InvalidK, "K=5 must lie in [1, n=4]"),
    "null table n": ({"k": 2, "null_table": 5}, X4, ValueError,
                     "null table was built at n=5, data has n=4"),
    "truncate p=1 after drop": (
        {"k": 2, "truncate": True}, [[1.0, 5.0], [2.0, 5.0], [4.0, 5.0], [8.0, 5.0]],
        ValueError, "--truncate needs p >= 2 columns: its clip level "
                    "log(p)/sqrt(n) is 0 at p=1"),
}


@pytest.mark.parametrize("case", sorted(SHAPE_ERRORS))
def test_shape_errors_come_before_scoring(case, monkeypatch):
    # Each used to be found only after the KS scores and the null table,
    # which take seconds at the default table size.
    changes, x, error, message = SHAPE_ERRORS[case]
    if "null_table" in changes:
        changes = {**changes,
                   "null_table": build_null_table(changes["null_table"], 100, seed=0)}

    def unreached(*args, **kwargs):
        raise AssertionError("scoring was reached")

    monkeypatch.setattr(screen, "ks_scores", unreached)
    monkeypatch.setattr(screen, "build_null_table", unreached)
    with pytest.raises(error) as err:
        run_pipeline(np.array(x), PipelineOptions(**changes))
    assert str(err.value) == message
    assert cli._exit_code(err.value) == cli.EXIT_DATA


def _outcome(x, opts, truth):
    """The timing-free report of a run, or the error it raised."""
    try:
        return run_pipeline(x, opts, truth=truth).to_json(include_timings=False)
    except Exception as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=30)
@given(options=st.lists(st.builds(
           PipelineOptions, k=st.integers(2, 3), method=st.sampled_from(METHODS),
           norm=st.sampled_from(NORMS),
           threshold=st.sampled_from(["hc", "fixed:1.0", "fixed-q:0.1"]),
           replicates=st.integers(1, 4), seed=st.integers(0, 3),
           threads=st.sampled_from([1, 2])),
           min_size=1, max_size=8),
       seed=st.integers(0, 999), wide=st.booleans(), constant=st.booleans())
def test_shared_instance_matches_separate_runs(options, seed, wide, constant,
                                               null40):
    # Runs on one Instance reuse its standardized matrix, KS scores and row
    # space; each report, or error, is the one a run on the bare array gives.
    x, y = two_class_data(n=40, p=80 if wide else 30, n_useful=6, seed=seed)
    if constant:
        x[:, 3] = 1.0
    options = [replace(o, null_table=null40) for o in options]
    instance = Instance(x)
    shared = [_outcome(instance, o, y) for o in options]
    assert shared == [_outcome(x, o, y) for o in options]


# Repeated rows can leave the K-th and (K+1)-th singular values equal.
@pytest.mark.filterwarnings("ignore::ifpca.errors.DegenerateGapWarning")
@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 24),
       extra=st.integers(1, 60), distinct=st.integers(2, 24), k=st.integers(1, 4))
def test_gram_stage_matches_bare_array(seed, n, extra, distinct, k):
    # Wide matrices with repeated rows.  pca, the k-means baselines and hier
    # share one Gram stage and its eigh on an Instance; each report is the
    # one a run on the bare array gives.  Given the Gram stage in place of
    # the standardized matrix, complete linkage and the SVD are exactly those
    # of the matrix, and equal rows get bit-equal row-space coordinates.
    rng = np.random.default_rng(seed)
    distinct = min(distinct, n)
    rows = np.concatenate([np.arange(distinct), rng.integers(0, distinct, n - distinct)])
    x = rng.standard_normal((distinct, n + extra))[rng.permutation(rows)]
    instance = Instance(x)
    for method in ("pca", "kmeans", "kmeanspp", "hier"):
        opts = PipelineOptions(k=k, method=method, replicates=3, seed=seed % 5)
        assert _outcome(instance, opts, None) == _outcome(x, opts, None)

    w = standardize_columns(x).columns()
    gram = Gram.of(w)
    assert np.array_equal(hierarchical_complete(gram, k), hierarchical_complete(w, k))
    a, b = truncated_left_svd(gram, k), truncated_left_svd(w, k)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.singular_values, b.singular_values)
    coords = gram.row_space[0]
    equal = (w[:, None] == w[None]).all(axis=2)
    assert ((coords[:, None] == coords[None]).all(axis=2) == equal).all()


@pytest.mark.parametrize("call", [
    lambda x, null: standardize_columns(x),
    lambda x, null: run_pipeline(x, PipelineOptions(k=2, null_table=null)),
], ids=["standardize_columns", "ifpca"])
def test_screened_path_allocates_no_n_by_p_array(call):
    # Standardization keeps column statistics, KS sorts blocks of x, and
    # ifpca forms only the selected columns of W: the traced peak stays
    # under half of one n×p array (2.9 MB).
    rng = np.random.default_rng(21)
    x = rng.standard_normal((60, 6000))
    x[:20, :40] += 2.0
    null = build_null_table(60, 5000, seed=1)
    tracemalloc.start()
    try:
        call(x, null)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 2


def test_no_method_forms_the_wide_standardized_matrix(monkeypatch):
    # Wider than n, W and the selected W_S are clustered through their Gram,
    # summed from blocks of 200 columns (64 KB at n=40): every method's
    # traced peak stays under half of one n×p array (1.9 MB; KS's blocks of
    # 512 columns take about 0.5 MB), and a screened run times its Gram as
    # the unscreened ones do.
    monkeypatch.setattr(matrix, "GRAM_CELLS", 40 * 200)
    x, _ = two_class_data(n=40, p=6000)
    for method in METHODS:
        opts = PipelineOptions(k=2, method=method, threshold="fixed:0", replicates=3)
        tracemalloc.start()
        try:
            report = run_pipeline(x, opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 2, method
        assert report.selected.size > 40 and "gram" in report.timings


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6))
def test_pipeline_gram_merges_as_the_bare_array_far_from_the_origin(seed, k):
    # The Gram stage hier takes is of W, whose columns are centered, so data
    # offset by 1e8 merge as the bare standardized array does (a Gram of
    # the uncentered points would lose every distance to rounding).
    x = np.random.default_rng(seed).standard_normal((30, 40)) + 1e8
    report = run_pipeline(Instance(x), PipelineOptions(k=k, method="hier"))
    w = standardize_columns(x).columns()
    assert np.array_equal(report.labels, hierarchical_complete(w, k))
    assert np.array_equal(hierarchical_complete(Gram.of(w), k), report.labels)


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
    rep = run_pipeline(x, opts, truth=truth.y)
    assert rep.error_rate <= 0.15


def test_null_table_n_mismatch_rejected(null120):
    x, _ = two_class_data(n=60)
    opts = PipelineOptions(k=2, norm="none", null_table=null120, seed=0)
    with pytest.raises(ValueError):
        run_pipeline(x, opts)
