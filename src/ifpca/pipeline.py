"""End-to-end clustering procedures: HC-thresholded and fixed-threshold
influential-feature PCA, classical PCA, direct post-selection variants, and
the no-selection baselines."""

import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import cluster, hc, matrix, screen
from .errors import EmptySelection

METHODS = ("ifpca", "pca", "kmeans", "kmeanspp", "hier", "if-kmeans", "if-hier")


@dataclass(frozen=True)
class PipelineOptions:
    k: int
    method: str = "ifpca"
    norm: str = "meanstd"                 # none | meanstd | medmad | lower50
    threshold: str = "hc"                 # "hc" | "fixed:<t>" | "fixed-q:<q~>"
    truncate: bool = False                # entrywise clip at log(p)/sqrt(n)
    null_table: object = None             # screen.NullTable, or None to simulate
    null_reps: int = 0                    # 0 = default size
    replicates: int = 30
    seed: int = 0
    threads: int = 1
    hc_fallback: bool = False
    drop_constant: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("K must be >= 1")
        if self.method not in METHODS:
            raise ValueError(f"unknown method: {self.method}")
        if self.norm not in ("none", "meanstd", "medmad", "lower50"):
            raise ValueError(f"unknown normalization: {self.norm}")
        parse_threshold(self.threshold)  # validate eagerly
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.null_reps < 0:
            raise ValueError("null_reps must be >= 0 (0 = default size)")

    def config_echo(self):
        return {"k": self.k, "method": self.method, "norm": self.norm,
                "threshold": self.threshold, "truncate": self.truncate,
                "null_reps": self.null_reps, "replicates": self.replicates,
                "seed": self.seed, "hc_fallback": self.hc_fallback,
                "drop_constant": self.drop_constant}


@dataclass
class RunReport:
    labels: np.ndarray
    selected: np.ndarray                  # 1-based feature indices
    threshold: float
    j_hat: int | None
    error_rate: float | None
    timings: dict
    config: dict
    hc_result: object = field(default=None, repr=False)

    def to_dict(self, include_timings=True):
        out = {"labels": self.labels.tolist(),
               "selected": self.selected.tolist(),
               "threshold": self.threshold,
               "j_hat": self.j_hat,
               "error_rate": self.error_rate,
               "config": self.config}
        if include_timings:
            out["timings"] = self.timings
        return out

    def to_json(self, include_timings=True):
        return canonical_json(self.to_dict(include_timings=include_timings))


def canonical_json(obj):
    """Stable serialization: re-parsing and re-dumping is byte-identical."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def parse_threshold(spec):
    """Threshold rule: ('hc', None), ('fixed', t), or ('fixed-q', q~)."""
    if spec == "hc":
        return "hc", None
    if spec.startswith("fixed:"):
        t = float(spec.split(":", 1)[1])
        if not math.isfinite(t):
            raise ValueError("fixed threshold must be finite")
        return "fixed", t
    if spec.startswith("fixed-q:"):
        q = float(spec.split(":", 1)[1])
        if not (math.isfinite(q) and q > 0):
            raise ValueError("fixed-q threshold needs a finite q~ > 0")
        return "fixed-q", q
    raise ValueError(f"unknown threshold rule: {spec}")


def _get_null_table(opts, n, p):
    if opts.null_table is not None:
        if opts.null_table.n != n:
            raise ValueError(f"null table was built at n={opts.null_table.n}, "
                             f"data has n={n}")
        return opts.null_table
    reps = opts.null_reps if opts.null_reps > 0 else screen.default_null_size(p)
    return screen.build_null_table(n, reps, opts.seed, threads=opts.threads)


def _embed_and_cluster(w_sel, opts, n, p, timings):
    t0 = time.perf_counter()
    k_embed = min(opts.k - 1, min(w_sel.shape)) if opts.k > 1 else 1
    emb = matrix.truncated_left_svd(w_sel, k_embed)
    if opts.truncate:
        emb = matrix.entrywise_truncate(emb, math.log(p) / math.sqrt(n))
    timings["svd"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    km = cluster.kmeans(emb.u, opts.k, replicates=opts.replicates,
                        seed=opts.seed, threads=opts.threads)
    timings["kmeans"] = time.perf_counter() - t0
    return km.labels


def _finish(labels, selected, threshold, j_hat, truth, opts, timings, hc_result=None):
    err = None
    if truth is not None:
        err = cluster.hamming_error(labels, np.asarray(truth), opts.k)
    return RunReport(labels=labels, selected=selected, threshold=threshold,
                     j_hat=j_hat, error_rate=err, timings=timings,
                     config=opts.config_echo(), hc_result=hc_result)


def run_pipeline(x, opts, truth=None):
    """Dispatch on opts.method; every path standardizes columns first."""
    timings = {}
    t0 = time.perf_counter()
    w = matrix.standardize_columns(x, drop_constant=opts.drop_constant)
    timings["standardize"] = time.perf_counter() - t0
    n, p = w.n, w.p

    if opts.method in ("kmeans", "kmeanspp", "hier"):
        t0 = time.perf_counter()
        if opts.method == "hier":
            labels = cluster.hierarchical_complete(w.values, opts.k)
        else:
            init = "plusplus" if opts.method == "kmeanspp" else "uniform-sample"
            labels = cluster.kmeans(w.values, opts.k, replicates=opts.replicates,
                                    seed=opts.seed, init=init,
                                    threads=opts.threads).labels
        timings["cluster"] = time.perf_counter() - t0
        all_features = np.arange(1, p + 1)
        return _finish(labels, all_features, -math.inf, None, truth, opts, timings)

    if opts.method == "pca":
        labels = _embed_and_cluster(w.values, opts, n, p, timings)
        all_features = np.arange(1, p + 1)
        return _finish(labels, all_features, -math.inf, None, truth, opts, timings)

    # Screening paths: ifpca, if-kmeans, if-hier.
    t0 = time.perf_counter()
    raw = screen.ks_scores(w, threads=opts.threads)
    timings["ks"] = time.perf_counter() - t0

    rule, value = parse_threshold(opts.threshold)
    j_hat = None
    hc_result = None
    if rule == "hc":
        t0 = time.perf_counter()
        null = _get_null_table(opts, n, p)
        timings["null"] = time.perf_counter() - t0
        scored = screen.normalize_scores(raw, opts.norm, null=null)
        ref = screen.null_reference_values(null, opts.norm)
        pvals = screen.pvalues(scored.scores, ref)
        result = hc.hc_threshold(pvals, scored.scores, n,
                                 allow_fallback=opts.hc_fallback)
        threshold = result.t_hc
        j_hat = result.j_hat
        hc_result = result
    else:
        null = _get_null_table(opts, n, p) if opts.norm == "lower50" else None
        scored = screen.normalize_scores(raw, opts.norm, null=null)
        threshold = value if rule == "fixed" else \
            math.sqrt(2.0 * value * math.log(p))

    sel = screen.select_features(scored, threshold)
    cols = sel.indices - 1
    w_sel = w.values[:, cols]

    if opts.method == "ifpca":
        labels = _embed_and_cluster(w_sel, opts, n, p, timings)
    elif opts.method == "if-kmeans":
        labels = cluster.kmeans(w_sel, opts.k, replicates=opts.replicates,
                                seed=opts.seed, threads=opts.threads).labels
    else:  # if-hier
        labels = cluster.hierarchical_complete(w_sel, opts.k)
    return _finish(labels, sel.indices, threshold, j_hat, truth, opts, timings,
                   hc_result=hc_result)


def if_hct_pca(x, opts, truth=None):
    """KS screening, HC threshold, post-selection PCA, k-means."""
    if parse_threshold(opts.threshold)[0] != "hc":
        raise ValueError("if_hct_pca requires the hc threshold rule")
    return run_pipeline(x, opts, truth=truth)


def if_pca_fixed(x, k, t, opts=None, truth=None, **kwargs):
    """Fixed-threshold variant: features with score >= t are retained."""
    kwargs.update(k=k, method="ifpca", threshold=f"fixed:{t}")
    new = replace(opts, **kwargs) if opts is not None else PipelineOptions(**kwargs)
    return run_pipeline(x, new, truth=truth)


def classical_pca(x, k, opts=None, truth=None, **kwargs):
    """No selection: top K-1 left singular vectors of the full W, then k-means."""
    kwargs.update(k=k, method="pca")
    new = replace(opts, **kwargs) if opts is not None else PipelineOptions(**kwargs)
    return run_pipeline(x, new, truth=truth)


def if_hct_variant(x, opts, truth=None):
    """HC selection followed by k-means or complete-linkage on the raw columns."""
    if opts.method not in ("if-kmeans", "if-hier"):
        raise ValueError("method must be if-kmeans or if-hier")
    return run_pipeline(x, opts, truth=truth)


def baseline(x, k, method, truth=None, **kwargs):
    """kmeans / kmeanspp / hier on the standardized matrix, no selection."""
    if method not in ("kmeans", "kmeanspp", "hier"):
        raise ValueError(f"not a baseline method: {method}")
    kwargs.update(k=k, method=method)
    return run_pipeline(x, PipelineOptions(**kwargs), truth=truth)
