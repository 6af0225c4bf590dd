"""Multi-task tree-graph environment with observation-invariant tasks.

Episodes descend a fixed branching tree from the root; every action
picks a child, the episode ends at a leaf, and only the leaf pays.
Tasks differ solely in which leaf pays the high reward: observations,
transitions, and episode length are shared across tasks, so a task is
invisible until rewards are inspected.
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

# Observations per noise draw: enough to amortise the call, small enough
# (32 KB at 16 dimensions) that memory stays flat.
_NOISE_BLOCK = 256


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
    Gaussian noise. Leaf ``j`` is the one at the end of the action path
    whose digits spell ``j`` in base ``b``. ``set_task`` takes effect
    at the next ``reset``, never mid-episode.
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
        base = base_rng.standard_normal((self.n_states, config.obs_dim))
        b = config.branching
        # Base observations per level, root first: _levels[level][node], as
        # arrays for rollout and as lists of rows for step.
        self._levels = [base[(b ** level - 1) // (b - 1):(b ** (level + 1) - 1) // (b - 1)]
                        for level in range(config.depth + 1)]
        self._rows = [list(level) for level in self._levels]
        self._branching, self._depth, self._sigma = b, config.depth, config.obs_noise_sigma
        self._noise = substream(config.env_seed, "tree-obs-noise")
        # Unused scaled noise rows of the latest block, the next one last.
        self._noise_rows: list[np.ndarray] = []
        self._active: int | None = None
        self._pending: int | None = None
        self._rewarded = -1  # the active task's rewarded leaf
        self._level = self._node = 0  # the current node: its level and index within it
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

    def _observe(self) -> np.ndarray:
        """The current node's base vector plus the next row of scaled noise.

        Noise is drawn ``_NOISE_BLOCK`` rows at a time; a block draw gives
        the same values, in order, as one ``standard_normal(obs_dim)`` call
        per observation, so the generator runs at most one block ahead.
        """
        base = self._rows[self._level][self._node]
        if self._sigma == 0.0:
            return base.copy()
        if not self._noise_rows:
            self._noise_rows = list(self._sigma * self._noise.standard_normal(
                (_NOISE_BLOCK, base.shape[0])))[::-1]
        return base + self._noise_rows.pop()

    def _take_noise(self, count: int) -> np.ndarray:
        """The next ``count`` rows of scaled noise as one array, the rows
        ``count`` calls of :meth:`_observe` would add, from the same block draws."""
        rows, dim = self._noise_rows, self._cfg.obs_dim
        out = np.empty((count, dim))
        served = min(count, len(rows))
        if served:
            out[:served] = rows[:-served - 1:-1]
            del rows[-served:]
        while served < count:
            block = self._sigma * self._noise.standard_normal((_NOISE_BLOCK, dim))
            used = min(count - served, _NOISE_BLOCK)
            out[served:served + used] = block[:used]
            self._noise_rows = list(block[used:])[::-1]
            served += used
        return out

    def _begin(self) -> None:
        """Apply the pending task, as every episode's start does."""
        if self._pending is not None:
            self._active = self._pending
            self._rewarded = self._tasks[self._active].rewarded_leaf
        if self._active is None:
            raise RuntimeError("no active task; call set_task before reset")

    def reset(self) -> np.ndarray:
        """Start a new episode at the root and return its observation."""
        self._begin()
        self._level = 0
        self._node = 0
        self._done = False
        return self._observe()

    def step(self, action: int) -> tuple[np.ndarray, float, bool]:
        """Descend one level; returns (observation, reward, done).

        ``action`` is an integer (any type ``operator.index`` accepts) in
        ``[0, branching)``; anything else raises ValueError and leaves
        the episode as it was.
        """
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
        self._node = node = self._node * b + action
        self._level += 1
        obs = self._observe()
        if self._level < self._depth:
            return obs, 0.0, False
        self._done = True
        return obs, self._cfg.high_reward if node == self._rewarded else self._cfg.fail_reward, True

    def rollout(self, n: int, choose) -> tuple[np.ndarray, np.ndarray]:
        """Play ``n`` steps as whole episodes, level by level across all of them.

        Equivalent to ``n`` :meth:`step` calls, each after a :meth:`reset`
        where an episode ends or none has begun: the same noise rows in the
        same order, the same task and rewards, and the same level, node and
        ``done`` at the end, a partial last episode included. At each level
        ``choose(steps, obs)`` receives the observations ``(A, obs_dim)`` of
        the ``A`` episodes that take a step there, in episode order, and the
        indexes of those steps among the ``n``, and returns their actions,
        integers in ``[0, branching)``. Returns the ``(n,)`` actions and
        rewards in step order. ``n = 0`` changes nothing.
        """
        if n <= 0:
            return np.zeros(0, dtype=np.intp), np.zeros(0)
        self._begin()
        d, b = self._depth, self._branching
        full, part = divmod(n, d)
        episodes = full + (part > 0)
        # Per-step order: each episode's root observation, then one per step.
        noise = (None if self._sigma == 0.0
                 else self._take_noise(full * (d + 1) + (part + 1 if part else 0)))
        steps = np.arange(episodes * d).reshape(episodes, d)
        actions = np.zeros((episodes, d), dtype=np.intp)
        nodes = np.zeros(episodes, dtype=np.intp)
        for level in range(d):
            live = full + (part > level)  # the partial last episode stops at level part
            if not live:
                break
            obs = self._levels[level][nodes[:live]]
            if noise is not None:
                obs += noise[level::d + 1][:live]
            chosen = choose(steps[:live, level], obs)
            if chosen.min() < 0 or chosen.max() >= b:
                raise ValueError(f"actions must lie in [0, {b})")
            actions[:live, level] = chosen
            nodes[:live] = nodes[:live] * b + chosen
        rewards = np.zeros((episodes, d))
        cfg = self._cfg
        rewards[:full, d - 1] = np.where(nodes[:full] == self._rewarded,
                                         cfg.high_reward, cfg.fail_reward)
        if part:  # the n-th step left the last episode at level part
            self._level, self._node, self._done = part, int(nodes[full]), False
        else:
            self._level, self._node, self._done = d, int(nodes[full - 1]), True
        return actions.reshape(-1)[:n], rewards.reshape(-1)[:n]


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
