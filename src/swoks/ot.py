"""The sliced transport distance between equal-size point sets, in two halves.

The distance is the Monte-Carlo sliced approximation: the mean, over
random unit directions, of the exact 1D transport distance between the
two sets' projections, which sorting solves (the optimal coupling
between equal-size 1D sets is the monotone one).
:func:`sorted_projections` sorts a set once along every direction and
:func:`sorted_distance` compares two such sorts, so a caller can sort a
set once and compare it many times.

Costs are unnormalized: matching two singletons at distance c gives c,
not c/n.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "sample_unit_directions",
    "sorted_projections",
    "sorted_distance",
]


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
