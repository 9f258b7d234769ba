"""Higher-Criticism functional over sorted p-values and the threshold rule."""

from dataclasses import dataclass

import numpy as np

from .errors import NoEligibleIndex


@dataclass(frozen=True)
class HcResult:
    hc_curve: np.ndarray        # HC value at each rank j = 1..p
    eligible: np.ndarray        # boolean mask over ranks
    j_hat: int                  # selected rank (1-based)
    t_hc: float                 # j_hat-th largest score
    sorted_pvalues: np.ndarray


def hc_threshold(pvals, scores, n, allow_fallback=False):
    """Select the feature-count rank by maximizing the HC functional.

    HC_{p,j} = sqrt(p) (j/p - pi_(j)) / sqrt(max(sqrt(n) (j/p - pi_(j)), 0) + j/p)
    over ranks with pi_(j) > log(p)/p and j < p/2; ties go to the smallest j.
    The threshold is the j_hat-th largest score.  With allow_fallback, an empty
    constraint set drops the p-value floor (keeping j < p/2) before failing.
    """
    pvals = np.asarray(pvals, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    p = pvals.size
    if p < 2:
        raise ValueError("need at least 2 p-values")
    if scores.size != p:
        raise ValueError("pvals and scores must be index-aligned")

    pi = np.sort(pvals)
    j = np.arange(1, p + 1, dtype=np.float64)
    num = j / p - pi
    hc = np.sqrt(p) * num / np.sqrt(np.maximum(np.sqrt(n) * num, 0.0) + j / p)

    below_half = j < p / 2.0
    eligible = below_half & (pi > np.log(p) / p)
    pool = eligible
    if not pool.any():
        if not allow_fallback or not below_half.any():
            raise NoEligibleIndex("no rank satisfies the HC constraints")
        pool = below_half

    cand = np.flatnonzero(pool)
    j_hat = int(cand[np.argmax(hc[cand])]) + 1  # argmax returns first max: smallest j
    t_hc = float(np.sort(scores)[::-1][j_hat - 1])
    return HcResult(hc_curve=hc, eligible=eligible, j_hat=j_hat, t_hc=t_hc,
                    sorted_pvalues=pi)
