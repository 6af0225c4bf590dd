"""Reference computations the benchmark checks the program against.

Written from the method's definitions with plain numpy and the
standard library; nothing here imports swoks.
"""
from __future__ import annotations

import itertools
import math
import zlib

import numpy as np


# -- label quality ------------------------------------------------------


def best_label_map(pred, gt) -> tuple[dict[int, int], int]:
    """Best one-to-one label -> task map by enumeration, and the steps it matches.

    Every injective pairing of labels with tasks is tried; labels left
    without a task (more labels than tasks) match nothing. Ties go to
    the first pairing in enumeration order over sorted ids.
    """
    if len(pred) != len(gt):
        raise ValueError("pred and gt differ in length")
    counts: dict[tuple[int, int], int] = {}
    for p, g in zip(pred, gt):
        counts[(p, g)] = counts.get((p, g), 0) + 1
    labels = sorted({p for p, _ in counts})
    tasks = sorted({g for _, g in counts})
    best_map: dict[int, int] = {}
    best = -1
    if len(labels) <= len(tasks):
        pairings = (zip(labels, perm) for perm in itertools.permutations(tasks, len(labels)))
    else:
        pairings = (zip(perm, tasks) for perm in itertools.permutations(labels, len(tasks)))
    for pairing in pairings:
        pairs = list(pairing)
        score = sum(counts.get(pair, 0) for pair in pairs)
        if score > best:
            best, best_map = score, dict(pairs)
    return best_map, best


def label_accuracy(pred, gt) -> float:
    """Share of steps whose label maps to their true task under the best map."""
    if not pred:
        raise ValueError("no steps to score")
    return best_label_map(pred, gt)[1] / len(pred)


def change_steps(ts, values) -> list[int]:
    """Steps ``t`` at which ``values`` differs from the previous step's value."""
    return [ts[i] for i in range(1, len(ts)) if values[i] != values[i - 1]]


def detection_delays(true_changes, label_changes) -> list[int | None]:
    """Steps from each true change to the first label change at or after it.

    A change not answered before the next true change gives ``None``.
    """
    out: list[int | None] = []
    for i, tc in enumerate(true_changes):
        nxt = true_changes[i + 1] if i + 1 < len(true_changes) else math.inf
        answer = next((tl for tl in label_changes if tl >= tc), None)
        out.append(answer - tc if answer is not None and answer < nxt else None)
    return out


# -- the detector's statistics -------------------------------------------


def named_seed(master: int, name: str) -> int:
    """Seed of the substream ``name`` of ``master``, as the package derives it."""
    seq = np.random.SeedSequence([master, zlib.crc32(name.encode("utf-8"))])
    return int(seq.generate_state(1, np.uint64)[0])


def unit_directions(dim: int, count: int, seed: int) -> np.ndarray:
    """``count`` normalised Gaussian directions in ``dim`` dimensions."""
    raw = np.random.default_rng(seed).standard_normal((count, dim))
    return raw / np.sqrt((raw * raw).sum(axis=1, keepdims=True))


def sliced_distance(a, b, directions) -> float:
    """Mean over directions of the 1D transport cost between projections.

    The 1D cost between equal-size samples is the Euclidean norm of the
    difference of their order statistics.
    """
    costs = []
    for d in np.asarray(directions, dtype=float):
        pa = np.sort(np.asarray(a, dtype=float) @ d)
        pb = np.sort(np.asarray(b, dtype=float) @ d)
        costs.append(math.sqrt(float(((pa - pb) ** 2).sum())))
    return float(np.mean(costs))


def ks_one_sided_pvalue(reference, new, beta: float) -> tuple[float, float]:
    """One-sided KS statistic of (beta * reference, new) and its p-value.

    ``D = sup_x (F_ref(x-) - F_new(x-))`` over every threshold, taken
    at each pooled value and just above it, clamped at 0; the p-value
    is ``exp(-2 D^2 n_e)`` with ``n_e = n1 n2 / (n1 + n2)``.
    """
    ref = beta * np.asarray(reference, dtype=float)
    fresh = np.asarray(new, dtype=float)
    n1, n2 = ref.shape[0], fresh.shape[0]
    pooled = np.concatenate([ref, fresh])
    below = ((ref[None, :] < pooled[:, None]).sum(axis=1) / n1
             - (fresh[None, :] < pooled[:, None]).sum(axis=1) / n2)
    at_or_below = ((ref[None, :] <= pooled[:, None]).sum(axis=1) / n1
                   - (fresh[None, :] <= pooled[:, None]).sum(axis=1) / n2)
    stat = max(0.0, float(below.max()), float(at_or_below.max()))
    n_e = n1 * n2 / (n1 + n2)
    return stat, math.exp(-2.0 * stat * stat * n_e)


def tests_per_run(steps: int, history_len: int, swd_history_len: int) -> int:
    """Shift tests one label runs over ``steps`` stationary steps.

    A distance is taken every ``history_len`` steps once the window of
    ``history_len * (swd_history_len + 1)`` points is full, and a test
    once the distance history holds ``2 * swd_history_len`` values.
    """
    first_test = history_len * (swd_history_len + 1) + (2 * swd_history_len - 1) * history_len
    return max(0, steps // history_len - first_test // history_len + 1)


def binomial_upper(n: int, p: float, tail: float) -> int:
    """Smallest k with P(Binomial(n, p) > k) <= tail."""
    cdf = 0.0
    for k in range(n + 1):
        cdf += math.comb(n, k) * p ** k * (1.0 - p) ** (n - k)
        if 1.0 - cdf <= tail:
            return k
    return n
