"""Multi-task tree-graph environment with observation-invariant tasks.

Episodes descend a fixed branching tree from the root; every action
picks a child, the episode ends at a leaf, and only the leaf pays.
Tasks differ solely in which leaf pays the high reward: observations,
transitions, and episode length are shared across tasks, so a task is
invisible until rewards are inspected. Future observations are built in
one place, :meth:`TreeGraphEnv.plan`; the batched rollout reads them from it.
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .seeding import substream

__all__ = ["TreeGraphConfig", "TaskSpec", "TreeGraphEnv", "Curriculum"]


@dataclass(frozen=True)
class TreeGraphConfig:
    depth: int = 2
    branching: int = 2
    high_reward: float = 1.0
    fail_reward: float = -0.1
    obs_dim: int = 16
    obs_noise_sigma: float = 0.05
    env_seed: int = 0

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.branching < 2:
            raise ValueError(f"branching must be >= 2, got {self.branching}")
        if not (math.isfinite(self.fail_reward) and math.isfinite(self.high_reward)
                and self.high_reward > self.fail_reward):
            raise ValueError(f"high_reward must exceed fail_reward, both finite, got "
                             f"{self.high_reward} and {self.fail_reward}")
        if self.obs_dim < 1:
            raise ValueError(f"obs_dim must be >= 1, got {self.obs_dim}")
        if not (math.isfinite(self.obs_noise_sigma) and self.obs_noise_sigma >= 0.0):
            raise ValueError(
                f"obs_noise_sigma must be >= 0 and finite, got {self.obs_noise_sigma}")


@dataclass(frozen=True)
class TaskSpec:
    """A task is just a choice of rewarded leaf."""

    task_id: int
    rewarded_leaf: int


class TreeGraphEnv:
    """Depth-``d`` tree with ``b`` children per node.

    Each node has a base observation vector drawn once from the
    environment seed and shared by all tasks; every visit adds fresh
    Gaussian noise, scaled by sigma (at sigma 0 too, where it adds
    ±0.0). The noise is one stream of rows with a cursor: the ``i``-th
    observation of the env's life, whichever call makes it, adds row
    ``i``, so the noise a future episode will see is known in advance
    (:meth:`plan`). Nodes are numbered root first, level by level, so
    node ``g``'s children are ``g * b + 1 + action`` and the leaves are
    the last ``b**d`` numbers. Leaf ``j`` is the one at the end of the
    action path whose digits spell ``j`` in base ``b``. The env's state
    is the cursor, the current node and ``done``. ``set_task`` takes
    effect at the next ``reset``, never mid-episode.
    """

    def __init__(self, config: TreeGraphConfig, tasks):
        self._cfg = config
        self._tasks: dict[int, TaskSpec] = {}
        for spec in tasks:
            if spec.task_id in self._tasks:
                raise ValueError(f"duplicate task id {spec.task_id}")
            if not 0 <= spec.rewarded_leaf < self.n_leaves:
                raise ValueError(
                    f"rewarded_leaf {spec.rewarded_leaf} out of range for "
                    f"{self.n_leaves} leaves"
                )
            self._tasks[spec.task_id] = spec
        if not self._tasks:
            raise ValueError("at least one task is required")
        base_rng = substream(config.env_seed, "tree-base-obs")
        # Base observations by node number.
        self._base = base_rng.standard_normal((self.n_states, config.obs_dim))
        b, d = config.branching, config.depth
        self._first_leaf = (b ** d - 1) // (b - 1)
        # The nodes an episode acts at, root first, and the level of each, for plan.
        self._inner = self._base[:self._first_leaf]
        self._inner_levels = np.repeat(np.arange(d), b ** np.arange(d))
        self._branching, self._depth, self._sigma = b, d, config.obs_noise_sigma
        self._noise = substream(config.env_seed, "tree-obs-noise")
        # Scaled noise drawn so far, from row _first on; observation i adds row i.
        self._noise_rows = np.empty((0, config.obs_dim))
        self._first = 0
        self._cursor = 0  # observations made: the next one adds noise row _cursor
        self._active: int | None = None
        self._pending: int | None = None
        self._rewarded = -1  # the node number of the active task's rewarded leaf
        self._node = 0  # the current node's number
        self._done = True

    @property
    def config(self) -> TreeGraphConfig:
        return self._cfg

    @property
    def n_actions(self) -> int:
        return self._cfg.branching

    @property
    def n_leaves(self) -> int:
        return self._cfg.branching ** self._cfg.depth

    @property
    def n_states(self) -> int:
        b, d = self._cfg.branching, self._cfg.depth
        return (b ** (d + 1) - 1) // (b - 1)

    @property
    def active_task(self) -> int:
        if self._active is None:
            raise RuntimeError("no active task; call set_task then reset")
        return self._active

    @property
    def task_ids(self) -> list[int]:
        return sorted(self._tasks)

    def set_task(self, task_id: int) -> None:
        """Select the task that applies from the next reset onward."""
        if task_id not in self._tasks:
            raise KeyError(f"unknown task id {task_id}")
        self._pending = task_id

    @property
    def cursor(self) -> int:
        """Observations made so far, by :meth:`reset`, :meth:`step` and their
        silent forms, :meth:`start`, :meth:`advance` and :meth:`rollout`: the
        next one adds noise row ``cursor``. Noise is drawn by :meth:`plan` and
        by observations only, no further than the furthest of them reaches."""
        return self._cursor

    def _noise_at(self, start: int, count: int) -> np.ndarray:
        """Scaled noise rows ``start`` to ``start + count``, ``start`` at or
        after every row still needed. Rows not drawn yet are drawn now, after
        the rows kept and no further; row ``i`` is always the ``i``-th
        ``standard_normal(obs_dim)`` draw, scaled, however draws are split.
        Rows before ``start`` are dropped when the next rows are drawn."""
        rows, first = self._noise_rows, self._first
        end = first + len(rows)
        if start + count > end:
            drawn = self._noise.standard_normal((start + count - end, rows.shape[1]))
            drawn *= self._sigma
            first = min(start, end)
            rows = np.concatenate((rows[first - self._first:], drawn))
            self._noise_rows, self._first = rows, first
        return rows[start - first:start - first + count]

    def _observe(self) -> np.ndarray:
        """The current node's base vector plus the noise row its visit
        consumed, row ``cursor - 1``."""
        return self._base[self._node] + self._noise_at(self._cursor - 1, 1)[0]

    def _apply_task(self) -> None:
        """Apply the pending task, as every episode's start does."""
        if self._pending is not None:
            self._active = self._pending
            self._rewarded = self._first_leaf + self._tasks[self._active].rewarded_leaf
        if self._active is None:
            raise RuntimeError("no active task; call set_task before reset")

    def start(self) -> None:
        """:meth:`reset` without its observation: the root visit's noise row
        is consumed, not added."""
        self._apply_task()
        self._node = 0
        self._done = False
        self._cursor += 1

    def reset(self) -> np.ndarray:
        """Start a new episode at the root and return its observation."""
        self.start()
        return self._observe()

    def advance(self, action: int) -> tuple[float, bool]:
        """:meth:`step` without its observation: descend one level, consume
        the visit's noise row, return (reward, done)."""
        if self._done:
            raise RuntimeError("episode is over; call reset")
        if type(action) is not int:
            try:
                action = operator.index(action)
            except TypeError:
                raise ValueError(f"action {action!r} is not an integer") from None
        b = self._branching
        if not 0 <= action < b:
            raise ValueError(f"action {action} out of range [0, {b})")
        self._node = node = self._node * b + 1 + action
        self._cursor += 1
        if node < self._first_leaf:
            return 0.0, False
        self._done = True
        return self._cfg.high_reward if node == self._rewarded else self._cfg.fail_reward, True

    def step(self, action: int) -> tuple[np.ndarray, float, bool]:
        """Descend one level; returns (observation, reward, done).

        ``action`` is an integer (any type ``operator.index`` accepts) in
        ``[0, branching)``; anything else raises ValueError and leaves
        the episode as it was.
        """
        reward, done = self.advance(action)
        return self._observe(), reward, done

    def plan(self, episodes: int) -> np.ndarray:
        """What the next ``episodes`` whole episodes can observe where they
        act, consuming nothing.

        ``episodes`` must be at least 1; any other raises ValueError before
        anything moves. Returns ``(episodes, N, obs_dim)`` for the ``N``
        nodes that are not leaves, by node number. Episode ``e`` is the one
        whose :meth:`reset` makes observation ``cursor + e * (depth + 1)``,
        and row ``[e, g]`` is the observation that episode makes if it
        visits ``g``: the node's base vector plus the noise row drawn at
        ``g``'s level, the vector :meth:`reset` or :meth:`step` returns
        there; flattened to ``(episodes * N, obs_dim)``, row ``e * N + g`` is
        the one :meth:`rollout` names. Noise is drawn up to the last episode's
        end and no further.
        """
        if episodes < 1:
            raise ValueError(f"a plan needs at least one episode, got {episodes}")
        d = self._depth
        noise = self._noise_at(self._cursor, episodes * (d + 1)).reshape(episodes, d + 1, -1)
        obs = noise.take(self._inner_levels, axis=1)  # C-contiguous, unlike [:, levels]
        obs += self._inner  # noise + base: the same sums as base + noise
        return obs

    def rollout(self, n: int, choose) -> tuple[np.ndarray, np.ndarray]:
        """Play ``n`` steps, a positive multiple of ``depth`` (else ValueError
        before anything moves), as whole episodes, level by level across all
        of them, as a :meth:`reset` and ``depth`` :meth:`step` calls per
        episode would: the same task, rewards and last node, the env ``done``
        at the end and the cursor past their observations, but no noise drawn.
        At each level ``choose(steps, rows)`` gets the episodes' steps there,
        as indexes among the ``n``, and the row of each, ``episode * N +
        node`` (``N`` as in :meth:`plan`), in a plan of the rollout's episodes
        made at its start; it returns their actions, an array of an integer
        or bool dtype with values in ``[0, branching)``, else ValueError
        before anything moves. With no task set, RuntimeError before
        ``choose`` is called. Returns the ``(n,)`` actions and rewards in
        step order.
        """
        d, b = self._depth, self._branching
        if n <= 0 or n % d:
            raise ValueError(f"a rollout plays whole episodes: n must be a positive "
                             f"multiple of depth {d}, got {n}")
        if self._pending is None and self._active is None:
            raise RuntimeError("no active task; call set_task before reset")
        episodes = n // d
        steps = np.arange(n).reshape(episodes, d)
        actions = np.empty((episodes, d), dtype=np.intp)
        firsts = np.arange(0, episodes * self._first_leaf, self._first_leaf)
        nodes = np.zeros(episodes, dtype=np.intp)
        for level in range(d):
            chosen = choose(steps[:, level], firsts + nodes)
            if chosen.dtype.kind not in "biu":
                raise ValueError(f"actions must be integers, got {chosen.dtype}")
            if chosen.min() < 0 or chosen.max() >= b:
                raise ValueError(f"actions must lie in [0, {b})")
            actions[:, level] = chosen
            nodes = nodes * b + 1 + chosen
        self._apply_task()
        self._cursor += episodes * (d + 1)
        rewards = np.zeros((episodes, d))
        cfg = self._cfg
        rewards[:, d - 1] = np.where(nodes == self._rewarded, cfg.high_reward, cfg.fail_reward)
        self._node, self._done = int(nodes[-1]), True
        return actions.reshape(-1), rewards.reshape(-1)


@dataclass(frozen=True)
class Curriculum:
    """Ordered task segments; the final task persists past the schedule."""

    segments: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not self.segments:
            raise ValueError("curriculum needs at least one segment")
        for task_id, duration in self.segments:
            if duration < 1:
                raise ValueError(f"segment durations must be >= 1, got {duration}")
        # Last global step of each segment, for task_at's binary search.
        object.__setattr__(self, "_ends", tuple(accumulate(d for _, d in self.segments)))

    @property
    def total_steps(self) -> int:
        return self._ends[-1]

    def task_at(self, t: int) -> int:
        """Task governing global step ``t`` (1-based)."""
        return self.segment(t)[0]

    def segment(self, t: int) -> tuple[int, int]:
        """Task and last step of the segment governing step ``t`` (1-based); the
        final segment's last step is the schedule's, though its task persists."""
        if t < 1:
            raise ValueError(f"t must be >= 1, got {t}")
        i = min(bisect_left(self._ends, t), len(self._ends) - 1)
        return self.segments[i][0], self._ends[i]
