"""End-to-end clustering procedures: HC-thresholded and fixed-threshold
influential-feature PCA, classical PCA, direct post-selection variants, and
the no-selection baselines, all as one path through run_pipeline."""

import json
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from . import cluster, hc, matrix, screen
from .errors import InvalidK

# method -> (screen features first?, clusterer).  "spectral" is k-means on
# the top K-1 left singular vectors; "uniform-sample" and "plusplus" are
# k-means on the standardized columns directly, named by their seeding;
# "hier" is complete linkage on them.
_METHODS = {
    "ifpca": (True, "spectral"),
    "pca": (False, "spectral"),
    "kmeans": (False, "uniform-sample"),
    "kmeanspp": (False, "plusplus"),
    "hier": (False, "hier"),
    "if-kmeans": (True, "uniform-sample"),
    "if-hier": (True, "hier"),
}
METHODS = tuple(_METHODS)
NORMS = ("none", "meanstd", "medmad", "lower50")


@dataclass(frozen=True)
class PipelineOptions:
    k: int
    method: str = "ifpca"
    norm: str = "meanstd"                 # one of NORMS
    threshold: str = "hc"                 # "hc" | "fixed:<t>" | "fixed-q:<q~>"
    truncate: bool = False                # entrywise clip at log(p)/sqrt(n)
    null_table: object = None             # screen.NullTable, or None to simulate
    null_reps: int = 0                    # 0 = default size
    replicates: int = 30
    seed: int = 0
    threads: int | None = None            # None = every usable core
    hc_fallback: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("K must be >= 1")
        if self.method not in METHODS:
            raise ValueError(f"unknown method: {self.method}")
        if self.norm not in NORMS:
            raise ValueError(f"unknown normalization: {self.norm}")
        parse_threshold(self.threshold)  # validate eagerly
        if self.threads is not None and self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.null_reps < 0:
            raise ValueError("null_reps must be >= 0 (0 = default size)")

    def config_echo(self):
        # The table is data, not a setting, and threads change no output.
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("null_table", "threads")}


@dataclass
class RunReport:
    labels: np.ndarray
    selected: np.ndarray                  # 1-based feature indices
    threshold: float
    j_hat: int | None
    error_rate: float | None
    timings: dict
    config: dict

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


class Instance:
    """A data matrix and the stages every method derives from it alike: its
    column statistics (a matrix.StandardizedMatrix), the raw KS scores and,
    for p > n, the matrix.Gram of the standardized matrix W.  Each is formed,
    and timed, by the first call on the instance that needs it.  No stage
    keeps W: the Gram is summed from blocks of its columns, and a screened
    run forms the Gram of its selected columns the same way, or those
    columns when they are no more than n."""

    def __init__(self, x):
        self.x = x
        self._stages = {}

    def _stage(self, name, timings, form):
        if name not in self._stages:
            t0 = time.perf_counter()
            self._stages[name] = form()
            timings[name] = time.perf_counter() - t0
        return self._stages[name]


def _uses_null(opts):
    """Whether the run reads a null table: a screened run under HC or lower50."""
    return _METHODS[opts.method][0] and (opts.threshold == "hc" or opts.norm == "lower50")


def _check_shape(w, opts):
    """Refuse, before any scoring or null table, a run that a later stage
    would refuse for the shape of its standardized matrix w."""
    if opts.k > w.n:
        raise InvalidK(f"K={opts.k} must lie in [1, n={w.n}]")
    if _uses_null(opts) and opts.null_table is not None and opts.null_table.n != w.n:
        raise ValueError(f"null table was built at n={opts.null_table.n}, "
                         f"data has n={w.n}")
    if opts.truncate and _METHODS[opts.method][1] == "spectral" and w.p < 2:
        raise ValueError("--truncate needs p >= 2 columns: its clip level "
                         f"log(p)/sqrt(n) is 0 at p={w.p}")


def _select(inst, w, opts, timings):
    """KS screening and the threshold rule: (0-based columns, threshold, j_hat)."""
    n, p = w.n, w.p
    # The KS kernel's scipy.special, imported before the "ks" clock starts,
    # so that the stage times the scoring alone.
    import scipy.special  # noqa: F401
    # The scores do not depend on the thread count.
    raw = inst._stage("ks", timings,
                      lambda: screen.ks_scores(w, threads=opts.threads))

    rule, value = parse_threshold(opts.threshold)
    null = None
    if _uses_null(opts):
        t0 = time.perf_counter()
        null = opts.null_table
        if null is None:
            reps = opts.null_reps if opts.null_reps > 0 else screen.default_null_size(p)
            null = screen.build_null_table(n, reps, opts.seed, threads=opts.threads)
        timings["null"] = time.perf_counter() - t0
    scored = screen.normalize_scores(raw, opts.norm, null=null)
    j_hat = None
    if rule == "hc":
        ref = screen.null_reference_values(null, opts.norm)
        pvals = screen.pvalues(scored.scores, ref)
        result = hc.hc_threshold(pvals, scored.scores, n,
                                 allow_fallback=opts.hc_fallback)
        threshold, j_hat = result.t_hc, result.j_hat
    elif rule == "fixed":
        threshold = value
    else:  # fixed-q: the simulation threshold sqrt(2 q~ log p)
        threshold = math.sqrt(2.0 * value * math.log(p))

    return screen.select_features(scored, threshold) - 1, threshold, j_hat


def _cluster(data, clusterer, opts, p, timings):
    """Labels of the rows of `data` (an array, or the standardized matrix's
    matrix.Gram); `p` is the standardized width, which sets the spectral
    embedding's truncation level log(p)/sqrt(n)."""
    init = clusterer
    if clusterer == "spectral":
        t0 = time.perf_counter()
        n = data.shape[0]
        k_embed = min(opts.k - 1, min(data.shape)) if opts.k > 1 else 1
        emb = matrix.truncated_left_svd(data, k_embed)
        if opts.truncate:
            emb = matrix.entrywise_truncate(emb, math.log(p) / math.sqrt(n))
        timings["svd"] = time.perf_counter() - t0
        data, init = emb.u, "uniform-sample"
    t0 = time.perf_counter()
    if clusterer == "hier":
        labels = cluster.hierarchical_complete(data, opts.k)
    else:
        labels = cluster.kmeans(data, opts.k, replicates=opts.replicates,
                                seed=opts.seed, init=init).labels
    timings["kmeans" if clusterer == "spectral" else "cluster"] = \
        time.perf_counter() - t0
    return labels


def run_pipeline(x, opts, truth=None):
    """Standardize, screen if the method does, then cluster (see _METHODS).
    `x` is a data matrix, or an Instance shared by several runs on one."""
    inst = x if isinstance(x, Instance) else Instance(x)
    timings = {}
    w = inst._stage("standardize", timings, lambda: matrix.standardize_columns(
        inst.x, threads=opts.threads))
    _check_shape(w, opts)

    # A matrix wider than tall is clustered through the Gram of its
    # columns, which is summed from blocks of them; a narrower one is formed.
    screened, clusterer = _METHODS[opts.method]
    if screened:
        cols, threshold, j_hat = _select(inst, w, opts, timings)
        if cols.size > w.n:
            t0 = time.perf_counter()
            data = matrix.Gram(lambda s: w.columns(cols[s]), (w.n, cols.size))
            timings["gram"] = time.perf_counter() - t0
        else:
            data = w.columns(cols)
    else:
        # slice(None) takes every column as a view, without a copy.
        cols, threshold, j_hat = slice(None), -math.inf, None
        if w.p > w.n:
            data = inst._stage("gram", timings,
                               lambda: matrix.Gram(w.columns, (w.n, w.p)))
        else:
            data = w.columns()
    labels = _cluster(data, clusterer, opts, w.p, timings)

    err = None
    if truth is not None:
        err = cluster.hamming_error(labels, np.asarray(truth), opts.k)
    return RunReport(labels=labels, selected=w.kept_columns[cols] + 1,
                     threshold=threshold, j_hat=j_hat, error_rate=err,
                     timings=timings, config=opts.config_echo())
