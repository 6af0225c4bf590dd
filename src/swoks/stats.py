"""One-sided two-sample Kolmogorov-Smirnov machinery for shift detection.

The statistic is the signed supremum ``sup_x (P[X1 < x] - P[X2 < x])``:
it is large when the second sample sits above the first, and near zero
when the second sample is stochastically smaller. Detection on streams
of non-negative distance values scales the reference sample up by a
factor ``beta >= 1`` first, so mild upward drift of the new sample is
tolerated and only genuine excursions score.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KsResult",
    "ks_one_sided",
    "ks_critical",
    "ks_pvalue",
    "detect_shift",
]

_P_FLOOR = 1e-300


@dataclass(frozen=True)
class KsResult:
    """Outcome of a one-sided shift test.

    statistic is in [0, 1]; p_value in (0, 1]; n1/n2 are the reference
    and candidate sample sizes.
    """

    statistic: float
    p_value: float
    n1: int
    n2: int


def _as_sample(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1D sample, got ndim={arr.ndim}")
    if arr.shape[0] < 1:
        raise ValueError(f"{name} must be non-empty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def ks_one_sided(x1, x2) -> float:
    """Signed supremum of the ECDF difference, ``sup_x (F1(x-) - F2(x-))``.

    The supremum over all real thresholds of ``P[X1 < x] - P[X2 < x]``
    is attained at a pooled sample value or past the largest one, where
    the difference is 0, so the strict counts at the pooled values are
    the only candidates. The result is clamped below at 0.

    Parameters
    ----------
    x1, x2 : array-like of shape (n1,), (n2,)
        Sizes may differ.

    Returns
    -------
    float in [0, 1]
    """
    return _ks_sorted(np.sort(_as_sample(x1, "x1")), np.sort(_as_sample(x2, "x2")))


def _ks_sorted(sa: np.ndarray, sb: np.ndarray) -> float:
    """:func:`ks_one_sided` of two samples, each in ascending order.

    Only the values of the second sample are candidates. The difference
    is constant between consecutive pooled values, so its value just
    above one is its strict value at the next, and past the largest it
    is 0. Going up, it rises past a value of the first sample only and
    falls past one of the second, so a positive maximum is reached at
    the first value of the second sample above a run of the first
    sample's values; a maximum of 0 or less is clamped to 0 anyway. A
    repeated value repeats its difference, which cannot change the
    maximum.
    """
    f1 = sa.searchsorted(sb, "left") / sa.shape[0]
    f2 = sb.searchsorted(sb, "left") / sb.shape[0]
    return min(1.0, max(0.0, float((f1 - f2).max())))


def ks_critical(n1: int, n2: int, alpha: float) -> float:
    """Critical value of the one-sided statistic at significance ``alpha``.

    ``sqrt(-0.5 * (n1 + n2) * ln(alpha / 2) / (n1 * n2))``.

    Parameters
    ----------
    n1, n2 : int
        Sample sizes, at least 1.
    alpha : float in (0, 1)

    Returns
    -------
    float
    """
    if n1 < 1 or n2 < 1:
        raise ValueError(f"sample sizes must be >= 1, got n1={n1}, n2={n2}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return math.sqrt(-0.5 * (n1 + n2) * math.log(0.5 * alpha) / (n1 * n2))


def ks_pvalue(statistic: float, n1: int, n2: int) -> float:
    """Asymptotic one-sided tail probability of the statistic.

    ``p = min(1, exp(-2 * statistic^2 * n_e))`` with the effective size
    ``n_e = n1 * n2 / (n1 + n2)``. Consistent with :func:`ks_critical`:
    the critical value at ``alpha`` maps back to ``p = alpha / 2``.

    Parameters
    ----------
    statistic : float in [0, 1]
    n1, n2 : int
        Sample sizes, at least 1.

    Returns
    -------
    float in (0, 1], floored at 1e-300.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError(f"sample sizes must be >= 1, got n1={n1}, n2={n2}")
    if not 0.0 <= statistic <= 1.0:
        raise ValueError(f"statistic must lie in [0, 1], got {statistic}")
    n_e = (n1 * n2) / (n1 + n2)
    p = math.exp(-2.0 * statistic * statistic * n_e)
    return max(_P_FLOOR, min(1.0, p))


def detect_shift(w_new, w_old, beta: float = 1.1) -> KsResult:
    """Test whether ``w_new`` has shifted up relative to ``w_old``.

    The reference sample is scaled by ``beta`` first, then the
    one-sided statistic of (scaled reference, new sample) and its
    p-value are computed. The decision itself is the caller's: declare
    a shift when ``p_value < alpha``.

    Parameters
    ----------
    w_new : array-like
        Fresh distance values under scrutiny.
    w_old : array-like
        Non-negative reference distance values.
    beta : float >= 1
        Reference scaling; larger values tolerate more upward drift.

    Returns
    -------
    KsResult
    """
    new = np.sort(_as_sample(w_new, "w_new"))
    old = np.sort(_as_sample(w_old, "w_old"))
    if old[0] < 0.0:
        raise ValueError("w_old values must be non-negative")
    if beta < 1.0:
        raise ValueError(f"beta must be >= 1, got {beta}")
    ref = old * beta  # scaling keeps the order
    if not math.isfinite(ref[-1]):  # the largest is the one to overflow
        raise ValueError("w_old scaled by beta is not finite")
    statistic = _ks_sorted(ref, new)
    n1, n2 = ref.shape[0], new.shape[0]
    return KsResult(statistic=statistic, p_value=ks_pvalue(statistic, n1, n2), n1=n1, n2=n2)
