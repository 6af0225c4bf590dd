"""Optimal-transport distances between equal-size point sets.

Three routes to the same quantity at different cost/generality
trade-offs:

- :func:`wasserstein_1d` solves the one-dimensional problem exactly by
  sorting (the optimal coupling between equal-size 1D sets is the
  monotone one).
- :func:`wasserstein_exact` minimises over all point permutations and
  is the brute-force ground truth for small sets.
- :func:`sliced_wasserstein` is the Monte-Carlo sliced approximation:
  the mean of exact 1D distances over random unit projections. Its two
  halves, :func:`sorted_projections` and :func:`sorted_distance`, let a
  caller sort a set once and compare it many times.

Costs are unnormalized: matching two singletons at distance c gives c,
not c/n.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = [
    "sample_unit_directions",
    "wasserstein_1d",
    "wasserstein_exact",
    "sliced_wasserstein",
    "sorted_projections",
    "sorted_distance",
    "EXACT_SIZE_LIMIT",
]

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


def sample_unit_directions(dim: int, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` uniform directions on the unit sphere in ``dim`` dimensions.

    Uses the standard construction: normalise isotropic Gaussian draws.

    Parameters
    ----------
    dim : int
        Ambient dimension, at least 1.
    count : int
        Number of directions, at least 1.
    seed : int
        Seed for the draw. Identical seeds give identical directions.

    Returns
    -------
    ndarray of shape (count, dim)
        Rows are unit vectors.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count, dim))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    return raw / norms


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


def sorted_projections(points: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Projections of a point set onto every direction, each sorted.

    Takes a validated ``(n, dim)`` float array and a ``(count, dim)``
    direction array; returns a C-contiguous ``(n, count)`` array whose
    column ``j`` is the sorted projection onto direction ``j``.

    Each direction's projections are sorted as one contiguous row, which
    is several times faster than sorting down the columns; the values
    are the same, since sorting is tie-invariant.

    The product and the sort buffer are written into rows one value
    wider than they need. A row of ``count`` or ``n`` doubles is often a
    power-of-two number of bytes (1 KiB at 128 directions, 2 KiB at
    256 points), and transposing an array with such a row stride maps
    its column onto a few cache sets: the copy out of the padded product
    takes about a third of the time at 240 x 128. BLAS writes the same
    values at any row stride, so every bit of the result is unchanged.
    """
    n, count = points.shape[0], dirs.shape[0]
    proj = np.matmul(points, dirs.T, out=np.empty((n, count + 1))[:, :count])
    rows = np.empty((count, n + 1))[:, :n]
    np.copyto(rows, proj.T)
    rows.sort(axis=1)
    return rows.T.copy()


def sorted_distance(proj_a: np.ndarray, proj_b: np.ndarray) -> float:
    """Sliced distance between two outputs of :func:`sorted_projections`.

    The squared differences are summed down each column of the
    ``(n, count)`` layout, one point after the other: the order of the
    original column-sorted formula, which keeps the result bit-identical
    to it. Summing along contiguous rows would round differently. The
    mean is ``np.mean``'s own sum and division, without its wrapper.
    """
    diff = proj_a - proj_b
    diff *= diff
    norms = np.sqrt(np.add.reduce(diff, axis=0))
    return float(np.add.reduce(norms) / norms.shape[0])
