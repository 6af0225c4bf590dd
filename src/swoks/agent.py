"""Latent encoder and per-task policy bank with rollback checkpoints.

Policies are linear-softmax over the latent plus a bias term, trained
with one plain policy-gradient step per episode against an exponential
running-mean baseline. The episode gradient is computed for all ``T``
steps at once: the per-step outer products are summed over the step
axis, in step order, so the result equals the step-by-step sum bit for
bit. Sampling an action runs the softmax and the inverse CDF on Python
floats after one ``params @ x``; an update reuses those probabilities
when the caller kept them, and otherwise recomputes them with one
stacked matrix-vector product and one row-wise softmax.
The bank keeps two rolling parameter checkpoints per label; rolling
back restores the older one, so the restored policy predates a detected
change by at least one full backup interval.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Encoder",
    "Policy",
    "PolicyBank",
    "RollbackResult",
    "episode_log_prob",
    "episode_gradient",
]

logger = logging.getLogger(__name__)

BASELINE_RATE = 0.1


class Encoder:
    """Fixed random projection of observations followed by tanh.

    The projection is drawn once from the seed with entries scaled by
    ``1/sqrt(obs_dim)`` so pre-tanh activations stay in the responsive
    range regardless of the observation width.
    """

    def __init__(self, obs_dim: int, latent_dim: int = 8, seed: int = 0):
        if obs_dim < 1 or latent_dim < 1:
            raise ValueError("obs_dim and latent_dim must be >= 1")
        rng = np.random.default_rng(seed)
        self._w = rng.standard_normal((latent_dim, obs_dim)) / np.sqrt(obs_dim)

    @property
    def latent_dim(self) -> int:
        return self._w.shape[0]

    @property
    def obs_dim(self) -> int:
        return self._w.shape[1]

    def encode(self, obs) -> np.ndarray:
        x = np.asarray(obs, dtype=float)
        if x.shape != (self._w.shape[1],):
            raise ValueError(
                f"observation shape {x.shape} does not match ({self._w.shape[1]},)"
            )
        return np.tanh(self._w @ x)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis."""
    e = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _sum(values: list[float]) -> float:
    """``np.sum`` of a list of floats, bit for bit.

    numpy adds fewer than eight values one after another from 0.0 and
    larger counts pairwise, so only those go through numpy.
    """
    if len(values) >= 8:
        return float(np.sum(values))
    total = 0.0
    for v in values:
        total += v
    return total


def _inverse_cdf(probs: list[float], u: float) -> int:
    """First index whose running sum of ``probs`` exceeds ``u``, else the last.

    The running sum is accumulated in order, as ``np.cumsum`` does, so
    this is ``min(searchsorted(cumsum(probs), u, side="right"), n - 1)``.
    """
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if u < acc:
            return i
    return len(probs) - 1


def _episode_features(episode, width: int):
    """Feature rows ``[phi; 1]`` and actions of every step."""
    phis, actions, _ = zip(*episode)
    x = np.ones((len(phis), width))
    x[:, :-1] = phis
    return x, actions


def _episode_probs(params: np.ndarray, episode):
    """Feature rows ``[phi; 1]``, actions and action probabilities of every step.

    The logits come from one stacked product that runs the same
    matrix-vector kernel per row as ``params @ x``.
    """
    x, actions = _episode_features(episode, params.shape[1])
    return x, actions, _softmax(np.matmul(params, x[:, :, None])[:, :, 0])


def _gradient(x: np.ndarray, actions, probs) -> np.ndarray:
    """``sum_t (onehot(a_t) - p_t) x_t^T``, the outer products summed over the steps in order.

    ``probs`` holds the probability row, as Python floats, that each
    action ``a_t`` was drawn from. The coefficients ``onehot(a_t) - p_t``
    are formed on those floats: the same IEEE negation and addition as
    in numpy, without its per-call cost on a short episode.
    """
    coeff = []
    for p, a in zip(probs, actions):
        row = [-v for v in p]
        row[a] += 1.0
        coeff.append(row)
    c = np.array(coeff)
    return np.add.reduce(c[:, :, None] * x[:, None, :], axis=0)


def episode_log_prob(params: np.ndarray, episode) -> float:
    """Sum of log action probabilities along an episode.

    ``episode`` is a sequence of (phi, action, reward) steps. Together
    with a constant advantage this is the surrogate objective whose
    gradient :func:`episode_gradient` returns.
    """
    _, actions, probs = _episode_probs(params, episode)
    return float(np.log(probs[np.arange(len(actions)), actions]).sum())


def episode_gradient(params: np.ndarray, episode) -> np.ndarray:
    """Gradient of :func:`episode_log_prob` with respect to ``params``."""
    x, actions, probs = _episode_probs(params, episode)
    return _gradient(x, actions, probs.tolist())


class Policy:
    """Linear-softmax policy over ``[phi; 1]`` with per-episode updates."""

    def __init__(self, n_actions: int, latent_dim: int, learning_rate: float = 0.08):
        if n_actions < 2:
            raise ValueError(f"n_actions must be >= 2, got {n_actions}")
        if latent_dim < 1:
            raise ValueError(f"latent_dim must be >= 1, got {latent_dim}")
        if not (math.isfinite(learning_rate) and learning_rate > 0.0):
            raise ValueError(f"learning_rate must be > 0 and finite, got {learning_rate}")
        self.params = np.zeros((n_actions, latent_dim + 1), dtype=float)
        self._x = np.ones(latent_dim + 1)  # feature buffer [phi; 1]
        self.learning_rate = learning_rate
        self.update_count = 0
        self.baseline = 0.0

    @property
    def n_actions(self) -> int:
        return self.params.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.params.shape[1] - 1

    def _logits(self, phi) -> np.ndarray:
        """``params @ [phi; 1]``, with ``phi`` copied into the preallocated ``x``."""
        x = self._x
        if np.shape(phi) != (x.shape[0] - 1,):
            raise ValueError(f"phi shape {np.shape(phi)} does not match ({x.shape[0] - 1},)")
        x[:-1] = phi
        return self.params @ x

    def action_probs(self, phi) -> np.ndarray:
        return _softmax(self._logits(phi))

    def act(self, phi, rng: np.random.Generator, probs: list | None = None) -> int:
        """Sample an action from the softmax by inverse CDF on one uniform draw.

        The probabilities are those of :meth:`action_probs` bit for bit,
        computed on Python floats around numpy's ``exp``. When ``probs``
        is a list, the row of probabilities the action was drawn from is
        appended to it, for :meth:`update` to reuse.
        """
        z = self._logits(phi)
        e = np.exp(z - max(z.tolist())).tolist()
        total = _sum(e)
        p = [v / total for v in e]
        if probs is not None:
            probs.append(p)
        return _inverse_cdf(p, rng.random())

    def act_greedy(self, phi) -> int:
        """Most probable action; ties resolve to the lowest index."""
        return int(np.argmax(self._logits(phi)))

    def update(self, episode, probs: list | None = None) -> None:
        """One policy-gradient step on the episode return.

        Advantage is the return minus the running-mean baseline; the
        baseline is updated afterwards, so an episode whose return
        equals the baseline leaves the parameters untouched. ``probs``,
        when given, holds per step the probabilities :meth:`act` drew
        the action from under the current ``params``; the gradient
        reuses them instead of recomputing the softmax, with the same
        result bit for bit.
        """
        steps = list(episode)
        if not steps:
            raise ValueError("episode must contain at least one step")
        if probs is not None and len(probs) != len(steps):
            raise ValueError(f"{len(probs)} probability rows for {len(steps)} steps")
        ret = float(sum(r for _, _, r in steps))
        advantage = ret - self.baseline
        if advantage != 0.0:
            if probs is None:
                grad = episode_gradient(self.params, steps)
            else:
                grad = _gradient(*_episode_features(steps, self.params.shape[1]), probs)
            self.params += self.learning_rate * advantage * grad
        self.update_count += 1
        self.baseline += BASELINE_RATE * (ret - self.baseline)

    def clone(self) -> "Policy":
        twin = Policy(self.n_actions, self.latent_dim, self.learning_rate)
        twin.params = self.params.copy()
        twin.update_count = self.update_count
        twin.baseline = self.baseline
        return twin


@dataclass(frozen=True)
class RollbackResult:
    """Outcome of a rollback; ``restored_iteration`` is None when no
    checkpoint existed and the live policy was left untouched."""

    policy: "Policy"
    restored_iteration: int | None


class _Checkpoint(tuple):
    # (iteration, params) pairs; tuple keeps it immutable and tiny.
    __slots__ = ()

    def __new__(cls, iteration: int, params: np.ndarray):
        return super().__new__(cls, (iteration, params))

    @property
    def iteration(self) -> int:
        return self[0]

    @property
    def params(self) -> np.ndarray:
        return self[1]


class _Entry:
    __slots__ = ("policy", "checkpoints")

    def __init__(self, policy: Policy):
        self.policy = policy
        self.checkpoints: list[_Checkpoint] = []


class PolicyBank:
    """One policy per task label plus two rolling checkpoints each."""

    def __init__(self, n_actions: int, latent_dim: int,
                 learning_rate: float = 0.08, backup_freq: int = 50):
        if backup_freq < 1:
            raise ValueError(f"backup_freq must be >= 1, got {backup_freq}")
        self._n_actions = n_actions
        self._latent_dim = latent_dim
        self._learning_rate = learning_rate
        self.backup_freq = backup_freq
        self._entries: dict[int, _Entry] = {}

    def labels(self) -> list[int]:
        return sorted(self._entries)

    def __contains__(self, label: int) -> bool:
        return label in self._entries

    def get_or_create(self, label: int) -> Policy:
        """Return the live policy for ``label``, zero-initialised if new."""
        entry = self._entries.get(label)
        if entry is None:
            entry = _Entry(Policy(self._n_actions, self._latent_dim, self._learning_rate))
            self._entries[label] = entry
        return entry.policy

    def checkpoint_iterations(self, label: int) -> list[int]:
        return [c.iteration for c in self._entry(label).checkpoints]

    def _entry(self, label: int) -> _Entry:
        if label not in self._entries:
            raise KeyError(f"unknown label {label}")
        return self._entries[label]

    def backup_if_due(self, label: int) -> bool:
        """Snapshot the live policy when its update counter hits a
        multiple of ``backup_freq``. Keeps at most the two newest."""
        entry = self._entry(label)
        count = entry.policy.update_count
        if count == 0 or count % self.backup_freq != 0:
            return False
        if entry.checkpoints and entry.checkpoints[-1].iteration >= count:
            return False
        entry.checkpoints.append(_Checkpoint(count, entry.policy.params.copy()))
        if len(entry.checkpoints) > 2:
            entry.checkpoints.pop(0)
        return True

    def rollback(self, label: int) -> RollbackResult:
        """Discard the live policy and restore the older checkpoint.

        The newer checkpoint may already contain foreign data from the
        change that triggered the rollback, so the older one is the
        safe restore point. The baseline running mean is reset. With no
        checkpoint on file the live policy is returned unchanged.
        """
        entry = self._entry(label)
        if not entry.checkpoints:
            logger.warning("rollback(%s): no checkpoint on file, policy unchanged", label)
            return RollbackResult(policy=entry.policy, restored_iteration=None)
        oldest = entry.checkpoints[0]
        live = entry.policy
        live.params = oldest.params.copy()
        live.update_count = oldest.iteration
        live.baseline = 0.0
        entry.checkpoints = [oldest]
        return RollbackResult(policy=live, restored_iteration=oldest.iteration)

    # -- serialization -------------------------------------------------

    def save(self, path) -> None:
        """Write live policies as flat text.

        Per label: a 3-line header (label, iteration, shape) followed
        by one parameter per line in row-major order.
        """
        with open(path, "w", encoding="utf-8") as fh:
            for label in self.labels():
                policy = self._entries[label].policy
                rows, cols = policy.params.shape
                fh.write(f"label {label}\n")
                fh.write(f"iteration {policy.update_count}\n")
                fh.write(f"shape {rows} {cols}\n")
                for value in policy.params.ravel():
                    fh.write(repr(float(value)) + "\n")

    def load(self, path) -> None:
        """Restore live policies written by :meth:`save`.

        Existing entries with the same labels are replaced; checkpoints
        start empty.
        """
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
        pos = 0
        while pos < len(lines):
            if not lines[pos].strip():
                pos += 1
                continue
            try:
                label = int(lines[pos].split()[1])
                iteration = int(lines[pos + 1].split()[1])
                rows, cols = (int(v) for v in lines[pos + 2].split()[1:3])
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}: bad policy header at line {pos + 1} ({exc})") from None
            if (rows, cols) != (self._n_actions, self._latent_dim + 1):
                raise ValueError(
                    f"{path}: policy shape ({rows}, {cols}) does not match bank "
                    f"({self._n_actions}, {self._latent_dim + 1})"
                )
            flat = lines[pos + 3: pos + 3 + rows * cols]
            if len(flat) < rows * cols:
                raise ValueError(f"{path}: truncated parameter block for label {label}")
            values = []
            for lineno, text in enumerate(flat, start=pos + 4):
                try:
                    values.append(float(text))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: unparseable parameter {text!r}") from None
                if not math.isfinite(values[-1]):
                    raise ValueError(f"{path}:{lineno}: parameter must be finite, got {text!r}")
            policy = Policy(self._n_actions, self._latent_dim, self._learning_rate)
            policy.params = np.array(values, dtype=float).reshape(rows, cols)
            policy.update_count = iteration
            self._entries[label] = _Entry(policy)
            pos += 3 + rows * cols
