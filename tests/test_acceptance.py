"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line.  The final check needs externally
supplied microarray data under data/ and is skipped when absent.  Most of
the module's time goes to the two Monte-Carlo null tables (built on every
core) and to the experiment-1b simulations.
"""

import itertools
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from ifpca import acm, pipeline, screen
from ifpca.cluster import _lloyd, hamming_error, kmeans
from ifpca.matrix import standardize_columns, truncated_left_svd
from ifpca.screen import build_null_table, ks_of_standardized

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")


def report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")


@pytest.fixture(scope="module")
def null577():
    # shared across the two simulation criteria (both run at n = 577)
    return build_null_table(577, 10**6, seed=101)


# ---------------------------------------------------------------------------
# 1. Null tail of the screening statistic.

def test_acceptance_1_null_tail():
    table = build_null_table(5000, 10**6, seed=202)
    details = []
    ok = True
    for t in (1.0, 1.2, 1.4):
        surv = float(np.mean(table.values >= t))
        theory = math.exp(-t ** 2 / (2 * acm.A0 ** 2)) / (math.sqrt(2) * acm.A0)
        ratio = surv / theory
        details.append(f"t={t}: ratio={ratio:.3f}")
        ok = ok and 0.8 <= ratio <= 2.5
    report(1, "null tail bound", ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 2. Power at a useful feature whose signal is twice the threshold.

def test_acceptance_2_useful_feature_power():
    n, p, q, reps = 1000, 10**4, 0.05, 10**4
    t = acm.A0 * math.sqrt(2.0 * q * math.log(p))  # theoretical threshold
    # two classes, delta = (1/3, 2/3), contrasts (m, -m/2); then the
    # third-moment diagnostic is sqrt(n) m^3 / (24 sqrt(2 pi)); choose m so
    # that it equals 2t
    m1 = (48.0 * t * math.sqrt(2.0 * math.pi) / math.sqrt(n)) ** (1.0 / 3.0)
    contrasts = np.array([m1, -m1 / 2.0])
    delta = np.array([1.0 / 3.0, 2.0 / 3.0])
    tau_val = acm.tau(contrasts[:, None], delta, n)[0]
    assert abs(tau_val - 2 * t) < 1e-12

    psis = screen.simulate_alt_scores(n, reps, delta, contrasts, seed=303)
    miss = float(np.mean(psis <= t))
    ok = miss < 0.05
    report(2, "useful-feature power", ok, f"miss={miss:.4f} at t={t:.4f}")
    assert ok


# ---------------------------------------------------------------------------
# 3. Scaled reproduction of the first simulation experiment.

def _mean_error_1b(r, null, reps, seed):
    cfg = [c for c in acm.experiment_preset("1b")
           if c.delta == (1.0 / 3.0, 2.0 / 3.0) and abs(c.r - r) < 1e-9][0]
    opts = pipeline.PipelineOptions(k=2, norm="none", null_table=null, seed=0)
    errs = []
    for rep in range(reps):
        x, truth = acm.generate(cfg, seed=[seed, rep])
        errs.append(pipeline.run_pipeline(x, opts, truth=truth.y).error_rate)
    return float(np.mean(errs))

def test_acceptance_3_experiment_1b(null577):
    reps = 30
    err_lo = _mean_error_1b(0.20, null577, reps, seed=404)
    err_hi = _mean_error_1b(0.65, null577, reps, seed=404)
    ok = err_hi <= 0.25 and err_hi < err_lo
    report(3, "experiment 1b reproduction", ok,
           f"mean err r=.20: {err_lo:.3f}, r=.65: {err_hi:.3f}")
    assert ok


# ---------------------------------------------------------------------------
# 4. Data-driven threshold tracks the best fixed threshold.

def test_acceptance_4_hc_vs_fixed_grid(null577):
    cfg = [c for c in acm.experiment_preset("2a") if c.vartheta == 0.68][0]
    reps = 10
    grid = (0.03, 0.04, 0.05, 0.06)
    hc_errs = []
    fixed_errs = {q: [] for q in grid}
    opts = pipeline.PipelineOptions(k=2, norm="none", null_table=null577,
                                    seed=0)
    for rep in range(reps):
        x, truth = acm.generate(cfg, seed=[505, rep])
        # The five runs share one standardization and one KS pass.
        instance = pipeline.Instance(x)
        hc_errs.append(pipeline.run_pipeline(instance, opts,
                                             truth=truth.y).error_rate)
        for q in grid:
            fixed = replace(opts, null_table=None, threshold=f"fixed-q:{q}")
            rpt = pipeline.run_pipeline(instance, fixed, truth=truth.y)
            fixed_errs[q].append(rpt.error_rate)
    hc_mean = float(np.mean(hc_errs))
    best_fixed = min(float(np.mean(v)) for v in fixed_errs.values())
    ok = hc_mean <= 1.5 * best_fixed + 0.05
    report(4, "adaptive vs fixed threshold", ok,
           f"adaptive={hc_mean:.3f}, best fixed={best_fixed:.3f}")
    assert ok


# ---------------------------------------------------------------------------
# 5. Exact agreement with independent oracles.

def _ks_oracle(v):
    v = np.sort(np.asarray(v, dtype=float))
    n = v.size
    from scipy.special import ndtr
    best = 0.0
    for i, w in enumerate(v, start=1):
        phi = ndtr(w)
        best = max(best, abs(i / n - phi), abs((i - 1) / n - phi))
    return math.sqrt(n) * best


def _hamming_oracle(yhat, y, k):
    n = len(y)
    best = n
    for perm in itertools.permutations(range(1, k + 1)):
        best = min(best, sum(1 for a, b in zip(yhat, y) if a != perm[b - 1]))
    return best / n


def test_acceptance_5_oracle_equivalences():
    rng = np.random.default_rng(606)
    ks_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        v = rng.standard_normal(n) * rng.uniform(0.5, 2.0) + rng.normal()
        if ks_of_standardized(v) != _ks_oracle(v):
            ks_ok = False
            break

    ham_ok = True
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(k, 40))
        y = rng.integers(1, k + 1, size=n)
        yhat = rng.integers(1, k + 1, size=n)
        if hamming_error(yhat, y, k) != _hamming_oracle(yhat, y, k):
            ham_ok = False
            break

    svd_ok = True
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 25))
        p = int(rng.integers(3, 25))
        a = rng.standard_normal((n, p))
        k = int(rng.integers(1, min(n, p)))
        got = truncated_left_svd(a, k).singular_values
        ref = np.linalg.svd(a, compute_uv=False)[:k]
        worst = max(worst, float(np.abs(got - ref).max()))
    svd_ok = worst <= 1e-8

    ok = ks_ok and ham_ok and svd_ok
    report(5, "oracle equivalences", ok,
           f"ks exact: {ks_ok}, hamming exact: {ham_ok}, "
           f"svd max dev: {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 6. Structural invariants.

def test_acceptance_6_invariants():
    rng = np.random.default_rng(707)

    # Lloyd objective never increases (the implementation asserts this on
    # every sweep; run it on varied inputs)
    lloyd_ok = True
    try:
        for _ in range(100):
            n = int(rng.integers(5, 60))
            d = int(rng.integers(1, 5))
            k = int(rng.integers(2, min(6, n)))
            pts = rng.standard_normal((n, d)) * rng.uniform(0.1, 5.0)
            _lloyd(pts, pts[rng.choice(len(pts), size=k, replace=False)][None])
    except AssertionError:
        lloyd_ok = False

    # standardization idempotence
    x = rng.standard_normal((50, 20)) * 3.0 + 1.0
    w = standardize_columns(x).columns()
    w2 = standardize_columns(w).columns()
    std_ok = bool(np.allclose(w, w2, atol=1e-12))

    # generator zero-sum identity
    zs_ok = True
    for k, delta in ((2, (1 / 3, 2 / 3)), (4, (0.25, 0.25, 1 / 3, 1 / 6))):
        cfg = acm.AcmConfig(
            k=k, p=300, theta=0.75, vartheta=0.3, r=0.5, rep=1, delta=delta,
            gamma=(0.4, 0.1, 0.5),
            g_mubar=acm.DistributionSpec("normal", (0.0, 1.0)),
            g_mu=acm.DistributionSpec("uniform", (1.0, 0.2)),
            g_sigma=acm.DistributionSpec("pointmass", (1.0,)))
        _, truth = acm.generate(cfg, seed=70)
        if np.abs(np.asarray(delta) @ truth.mu).max() > 1e-12:
            zs_ok = False

    # determinism across thread counts, bit-identical serialized output
    y = np.repeat([1, 2], 30)
    x = rng.standard_normal((60, 40))
    x[y == 1, :8] += 4.0
    null = build_null_table(60, 20000, seed=71)
    reports = []
    for threads in (1, 4):
        opts = pipeline.PipelineOptions(k=2, norm="none", null_table=null,
                                        seed=5, threads=threads)
        reports.append(pipeline.run_pipeline(x, opts, truth=y)
                       .to_json(include_timings=False))
    det_ok = reports[0] == reports[1]

    ok = lloyd_ok and std_ok and zs_ok and det_ok
    report(6, "invariant suites", ok,
           f"lloyd: {lloyd_ok}, standardize: {std_ok}, zero-sum: {zs_ok}, "
           f"threads: {det_ok}")
    assert ok


# ---------------------------------------------------------------------------
# 7. Real-data spot checks (requires user-supplied microarray files).

def _load_dataset(stem):
    xpath = os.path.join(DATA_DIR, f"{stem}.csv")
    ypath = os.path.join(DATA_DIR, f"{stem}.labels.txt")
    if not (os.path.exists(xpath) and os.path.exists(ypath)):
        return None
    x = np.loadtxt(xpath, delimiter=",")
    y = np.loadtxt(ypath, dtype=int)
    return x, y


def test_acceptance_7_microarray_spot_checks():
    lung = _load_dataset("lungcancer1")
    leuk = _load_dataset("leukemia")
    if lung is None and leuk is None:
        report(7, "microarray spot checks", True,
               "SKIP: no datasets under data/")
        pytest.skip("microarray datasets not supplied (expected "
                    "data/lungcancer1.csv|.labels.txt, data/leukemia.*)")

    details = []
    ok = True
    if lung is not None:
        x, y = lung
        opts = pipeline.PipelineOptions(k=2, norm="meanstd", seed=7)
        rpt = pipeline.run_pipeline(x, opts, truth=y)
        details.append(f"lung err={rpt.error_rate:.3f}, "
                       f"selected={len(rpt.selected)}")
        ok = ok and abs(rpt.error_rate - 0.033) <= 0.02
        ok = ok and 150 <= len(rpt.selected) <= 400
        fixed = pipeline.run_pipeline(
            x, replace(opts, threshold="fixed:0.938"), truth=y)
        details.append(f"fixed t=.938 selected={len(fixed.selected)}")
        ok = ok and abs(len(fixed.selected) - 484) <= 30
    if leuk is not None:
        x, y = leuk
        opts = pipeline.PipelineOptions(k=2, norm="meanstd", seed=7)
        rpt = pipeline.run_pipeline(x, opts, truth=y)
        details.append(f"leukemia err={rpt.error_rate:.3f}")
        ok = ok and abs(rpt.error_rate - 0.069) <= 0.04
    report(7, "microarray spot checks", ok, "; ".join(details))
    assert ok
