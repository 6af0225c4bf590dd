"""Multi-task tree-graph environment with observation-invariant tasks.

Episodes descend a fixed branching tree from the root; every action
picks a child, the episode ends at a leaf, and only the leaf pays.
Tasks differ solely in which leaf pays the high reward: observations,
transitions, and episode length are shared across tasks, so a task is
invisible until rewards are inspected.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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
        self._base = base_rng.standard_normal((self.n_states, config.obs_dim))
        self._noise = substream(config.env_seed, "tree-obs-noise")
        # Scaled noise rows drawn ahead in blocks; _noise_next is the next unused row.
        self._noise_block = np.empty((0, config.obs_dim))
        self._noise_next = 0
        self._active: int | None = None
        self._pending: int | None = None
        self._level = 0
        self._node = 0  # index within the current level
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

    def _state_index(self, level: int, node: int) -> int:
        b = self._cfg.branching
        return (b ** level - 1) // (b - 1) + node

    def _observe(self) -> np.ndarray:
        """The current node's base vector plus the next row of scaled noise.

        Noise is drawn ``_NOISE_BLOCK`` rows at a time; a block draw gives
        the same values, in order, as one ``standard_normal(obs_dim)`` call
        per observation, so the generator runs at most one block ahead.
        """
        base = self._base[self._state_index(self._level, self._node)]
        if self._cfg.obs_noise_sigma == 0.0:
            return base.copy()
        if self._noise_next == self._noise_block.shape[0]:
            self._noise_block = self._cfg.obs_noise_sigma * self._noise.standard_normal(
                (_NOISE_BLOCK, self._cfg.obs_dim)
            )
            self._noise_next = 0
        noise = self._noise_block[self._noise_next]
        self._noise_next += 1
        return base + noise

    def reset(self) -> np.ndarray:
        """Start a new episode at the root and return its observation."""
        if self._pending is not None:
            self._active = self._pending
        if self._active is None:
            raise RuntimeError("no active task; call set_task before reset")
        self._level = 0
        self._node = 0
        self._done = False
        return self._observe()

    def step(self, action: int) -> tuple[np.ndarray, float, bool]:
        """Descend one level; returns (observation, reward, done)."""
        if self._done:
            raise RuntimeError("episode is over; call reset")
        if not 0 <= action < self._cfg.branching:
            raise ValueError(
                f"action {action} out of range [0, {self._cfg.branching})"
            )
        self._node = self._node * self._cfg.branching + action
        self._level += 1
        obs = self._observe()
        if self._level == self._cfg.depth:
            self._done = True
            rewarded = self._tasks[self._active].rewarded_leaf
            reward = (
                self._cfg.high_reward if self._node == rewarded else self._cfg.fail_reward
            )
        else:
            reward = 0.0
        return obs, reward, self._done


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

    @property
    def total_steps(self) -> int:
        return sum(d for _, d in self.segments)

    def task_at(self, t: int) -> int:
        """Task governing global step ``t`` (1-based)."""
        if t < 1:
            raise ValueError(f"t must be >= 1, got {t}")
        upto = 0
        for task_id, duration in self.segments:
            upto += duration
            if t <= upto:
                return task_id
        return self.segments[-1][0]
