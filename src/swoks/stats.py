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
    "scaled_reference",
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
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def ks_one_sided(x1, x2) -> float:
    """Signed supremum of the ECDF difference, ``sup_x (F1(x-) - F2(x-))``.

    The supremum over all real thresholds of ``P[X1 < x] - P[X2 < x]``
    is attained either at a pooled sample value (strict counts) or just
    above one (inclusive counts), so those finitely many candidates are
    enumerated. The result is clamped below at 0.

    Parameters
    ----------
    x1, x2 : array-like of shape (n1,), (n2,)
        Sizes may differ.

    Returns
    -------
    float in [0, 1]
    """
    return _ks_statistic(_as_sample(x1, "x1"), _as_sample(x2, "x2"))


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """:func:`ks_one_sided` of two samples already checked by ``_as_sample``."""
    n1, n2 = a.shape[0], b.shape[0]
    sa = np.sort(a, kind="stable")
    sb = np.sort(b, kind="stable")
    # Every pooled value is a candidate; a repeated one repeats its
    # differences, which cannot change the maximum.
    candidates = np.concatenate([sa, sb])
    # F(x-) at the candidate itself: strict counts. Just above: inclusive.
    f1_lt = np.searchsorted(sa, candidates, side="left") / n1
    f2_lt = np.searchsorted(sb, candidates, side="left") / n2
    f1_le = np.searchsorted(sa, candidates, side="right") / n1
    f2_le = np.searchsorted(sb, candidates, side="right") / n2
    sup = max(float(np.max(f1_lt - f2_lt)), float(np.max(f1_le - f2_le)))
    return min(1.0, max(0.0, sup))


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


def scaled_reference(values, beta: float) -> np.ndarray:
    """Scale a non-negative reference sample up by ``beta >= 1``."""
    arr = _as_sample(values, "values")
    if np.any(arr < 0.0):
        raise ValueError("reference values must be non-negative")
    if beta < 1.0:
        raise ValueError(f"beta must be >= 1, got {beta}")
    return arr * beta


def detect_shift(w_new, w_old, alpha: float = 0.001, beta: float = 1.1) -> KsResult:
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
    alpha : float in (0, 1)
        Intended decision threshold; validated here, applied by the caller.
    beta : float >= 1
        Reference scaling; larger values tolerate more upward drift.

    Returns
    -------
    KsResult
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    new = _as_sample(w_new, "w_new")
    ref = scaled_reference(w_old, beta)
    if not math.isfinite(ref.max()):  # non-negative, so the max is the one to overflow
        raise ValueError("w_old scaled by beta is not finite")
    statistic = _ks_statistic(ref, new)
    p_value = ks_pvalue(statistic, ref.shape[0], new.shape[0])
    return KsResult(statistic=statistic, p_value=p_value, n1=ref.shape[0], n2=new.shape[0])
