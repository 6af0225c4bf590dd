"""Synthetic recorded stream with known change points, for offline detection.

The stream mimics a trained agent on a depth-2, branching-2 tree: each
episode is two steps, and only the leaf pays. Tasks differ only in
which leaf (which action path) is rewarded. In every segment the agent
follows the rewarded path with probability ``FOLLOW`` at each step, so
a task change moves both the rewards and the actions it takes.

Every segment is a distinct task, because offline replay has no probe
source and cannot re-adopt an earlier label. The file is the CSV that
``swoks detect`` reads: ``t,gt_task,r,a,phi_1..phi_k``.
"""
from __future__ import annotations

import numpy as np

LATENT_DIM = 8
FOLLOW = 0.9
NOISE_SIGMA = 0.05
HIGH_REWARD = 1.0
FAIL_REWARD = -0.1
DECIMALS = 6
# The latents of the root and its two children are the same for every
# seed, so tasks are equally far apart on every seed; the seed draws the
# agent's actions and the noise.
GEOMETRY_SEED = 0x5EED


def segments_for(n_segments: int, segment_steps: int) -> list[tuple[int, int]]:
    """(task id, steps) per segment; task ids 1..n, one per segment."""
    if n_segments < 1 or segment_steps < 2 or segment_steps % 2:
        raise ValueError("need >= 1 segment of an even number (>= 2) of steps")
    return [(i + 1, segment_steps) for i in range(n_segments)]


def change_points(segments) -> list[int]:
    """First step (1-based) of every segment after the first."""
    out, upto = [], 0
    for _, steps in segments[:-1]:
        upto += steps
        out.append(upto + 1)
    return out


def generate(seed: int, segments) -> dict[str, np.ndarray]:
    """Columns of the stream as arrays: t, gt_task, r, a, phi (n, LATENT_DIM).

    Task ``k`` (1-based) rewards leaf ``(k - 1) % 4``. Phi of step 1 is
    the root latent, of step 2 the latent of the child the first action
    chose; both get fresh Gaussian noise and are rounded to
    ``DECIMALS`` places so the CSV holds them exactly as written.
    """
    base = np.tanh(np.random.default_rng(GEOMETRY_SEED).standard_normal((3, LATENT_DIM)))
    rng = np.random.default_rng([seed, GEOMETRY_SEED])
    gt = np.concatenate([np.full(steps, task) for task, steps in segments])
    n = gt.shape[0]
    n_ep = n // 2
    leaf = (gt[0::2] - 1) % 4
    want1, want2 = leaf // 2, leaf % 2
    follow = rng.random((n_ep, 2)) < FOLLOW
    a1 = np.where(follow[:, 0], want1, 1 - want1)
    a2 = np.where(follow[:, 1], want2, 1 - want2)
    actions = np.empty(n, dtype=np.int64)
    actions[0::2], actions[1::2] = a1, a2
    rewards = np.zeros(n)
    rewards[1::2] = np.where(2 * a1 + a2 == leaf, HIGH_REWARD, FAIL_REWARD)
    node = np.zeros(n, dtype=np.int64)
    node[1::2] = 1 + a1
    phi = base[node] + NOISE_SIGMA * rng.standard_normal((n, LATENT_DIM))
    return {
        "t": np.arange(1, n + 1),
        "gt_task": gt,
        "r": rewards,
        "a": actions,
        "phi": np.round(phi, DECIMALS),
    }


def write_csv(path, cols: dict[str, np.ndarray], chunk: int = 50_000) -> None:
    """Write the columns in the ``t,gt_task,r,a,phi_1..`` CSV layout."""
    k = cols["phi"].shape[1]
    fmt = "%d,%d,%.1f,%d" + f",%.{DECIMALS}f" * k
    header = ",".join(["t", "gt_task", "r", "a"] + [f"phi_{i + 1}" for i in range(k)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for lo in range(0, cols["t"].shape[0], chunk):
            hi = lo + chunk
            block = np.column_stack([
                cols["t"][lo:hi], cols["gt_task"][lo:hi], cols["r"][lo:hi],
                cols["a"][lo:hi], cols["phi"][lo:hi],
            ])
            np.savetxt(fh, block, fmt=fmt)


def read_csv_rows(path, first: int, last: int) -> dict[str, np.ndarray]:
    """Parse data rows with ``first <= t <= last`` (1-based, contiguous)."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        for t, line in enumerate(fh, start=1):
            if t < first:
                continue
            if t > last:
                break
            rows.append([float(v) for v in line.split(",")])
    arr = np.array(rows, dtype=float)
    if arr.shape[0] != last - first + 1:
        raise ValueError(f"{path}: rows {first}..{last} not all present")
    return {"t": arr[:, 0], "gt_task": arr[:, 1], "r": arr[:, 2], "a": arr[:, 3],
            "phi": arr[:, 4:]}
