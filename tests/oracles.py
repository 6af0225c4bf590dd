"""Reference computations that only tests call: exact transport, the sliced
distance of two unsorted sets, the one-sided KS statistic and its critical
value, and the policy gradient recomputed for a whole episode.

``swoks`` runs none of them. The sliced distance, the KS statistic and the
gradient are built from the package's own pieces (sorted projections, the
statistic of two sorted samples, the row softmax and the outer-product sum),
so they equal the detector's and the policy's results bit for bit by
construction; exact transport is computed independently.

Costs are unnormalized: matching two singletons at distance c gives c,
not c/n.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from swoks.agent import _coefficients, _outer_sum, _rows_probs
from swoks.ot import sorted_distance, sorted_projections
from swoks.stats import _as_sample, _ks_sorted

# Brute force enumerates n! couplings; 8! = 40320 keeps the oracle fast.
EXACT_SIZE_LIMIT = 8


def _as_point_set(points, name: str) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, np.newaxis]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2D array of shape (n, dim), got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must contain at least one point with at least one coordinate")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _check_pair(d1, d2) -> tuple[np.ndarray, np.ndarray]:
    a = _as_point_set(d1, "d1")
    b = _as_point_set(d2, "d2")
    if a.shape != b.shape:
        raise ValueError(f"point sets must have identical shapes, got {a.shape} and {b.shape}")
    return a, b


def wasserstein_1d(a, b) -> float:
    """Exact transport distance between two equal-size 1D samples.

    Sorting both samples and matching in order is optimal, giving
    ``sqrt(sum_i (a_(i) - b_(i))^2)`` over the order statistics.

    Parameters
    ----------
    a, b : array-like of shape (n,)

    Returns
    -------
    float
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("wasserstein_1d expects 1D samples")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"samples must have equal size, got {x.shape[0]} and {y.shape[0]}")
    if x.shape[0] < 1:
        raise ValueError("samples must be non-empty")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("samples contain non-finite values")
    # kind="stable" pins tie order; the distance is tie-invariant anyway.
    diff = np.sort(x, kind="stable") - np.sort(y, kind="stable")
    return float(np.linalg.norm(diff))


def wasserstein_exact(d1, d2) -> float:
    """Brute-force transport distance between two small point sets.

    Minimises ``sqrt(sum_i ||d1[i] - d2[sigma(i)]||^2)`` over all
    permutations ``sigma``. Exponential cost; refuses sets larger than
    :data:`EXACT_SIZE_LIMIT`.

    Parameters
    ----------
    d1, d2 : array-like of shape (n, dim) with ``n <= 8``

    Returns
    -------
    float
    """
    a, b = _check_pair(d1, d2)
    n = a.shape[0]
    if n > EXACT_SIZE_LIMIT:
        raise ValueError(
            f"wasserstein_exact is limited to {EXACT_SIZE_LIMIT} points, got {n}"
        )
    # Pairwise squared distances once; each permutation is then a sum of lookups.
    sq = np.sum((a[:, np.newaxis, :] - b[np.newaxis, :, :]) ** 2, axis=2)
    idx = np.arange(n)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = float(sq[idx, perm].sum())
        if cost < best:
            best = cost
    return math.sqrt(best)


def sliced_wasserstein(d1, d2, directions) -> float:
    """Monte-Carlo sliced transport distance between equal-size point sets.

    Projects both sets onto every direction, solves each 1D problem by
    sorting, and averages the per-direction distances in direction
    order (a deterministic reduction).

    Parameters
    ----------
    d1, d2 : array-like of shape (n, dim)
    directions : array-like of shape (count, dim)

    Returns
    -------
    float
        Non-negative; zero when the sets are identical.
    """
    a, b = _check_pair(d1, d2)
    dirs = np.asarray(directions, dtype=float)
    if dirs.ndim != 2 or dirs.shape[0] < 1:
        raise ValueError("directions must be a non-empty (count, dim) array")
    if dirs.shape[1] != a.shape[1]:
        raise ValueError(
            f"direction dim {dirs.shape[1]} does not match point dim {a.shape[1]}"
        )
    return sorted_distance(sorted_projections(a, dirs), sorted_projections(b, dirs))


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


def _episode_probs(params: np.ndarray, episode):
    """Feature rows ``[phi; 1]``, actions and action probabilities of every step."""
    phis, actions, _ = zip(*episode)
    x = np.ones((len(phis), params.shape[1]))
    x[:, :-1] = phis
    return x, actions, _rows_probs(params, x)


def episode_log_prob(params: np.ndarray, episode) -> float:
    """Sum of log action probabilities along an episode.

    ``episode`` is a sequence of (phi, action, reward) steps. Together
    with a constant advantage this is the surrogate objective whose
    gradient :func:`episode_gradient` returns.
    """
    _, actions, probs = _episode_probs(params, episode)
    return float(np.log(probs[np.arange(len(actions)), actions]).sum())


def episode_gradient(params: np.ndarray, episode) -> np.ndarray:
    """Gradient of :func:`episode_log_prob` with respect to ``params``.

    The probabilities are recomputed for the whole episode at once, so
    this is the reference for the rows :meth:`~swoks.agent.Policy.act` records.
    """
    x, actions, probs = _episode_probs(params, episode)
    coeff = np.array([_coefficients(p, a) for p, a in zip(probs.tolist(), actions)])
    return _outer_sum(coeff[:, :, None], x[:, None, :])
