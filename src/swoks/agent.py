"""Latent encoder and per-task policy bank with rollback checkpoints.

Policies are linear-softmax over the latent plus a bias term, trained
with one plain policy-gradient step per episode against an exponential
running-mean baseline. A live episode is kept as the rows of a caller-owned
:class:`EpisodeBuffer` of its fixed length: sampling an action copies the
step's ready features ``[phi; 1]`` into the next row, takes the logits from one
``params.dot(row)``, subtracts the largest, exponentiates them in place
with one ``np.exp`` call, runs the rest of the softmax and the inverse
CDF on Python floats, and records the coefficients ``onehot(a) - p`` the
gradient needs. The update sums the per-step outer products of those
rows over the step axis, in step order, so the result equals the
step-by-step sum bit for bit and no probability is recomputed. Plans
encode many observations at once (:meth:`Encoder.encode_rows`), and
probes sample many of their rows at once (:meth:`Policy.act_rows`),
with the same results per row and nothing recorded.
The bank keeps two rolling parameter checkpoints per label; rolling
back restores the older one, so the restored policy predates a detected
change by at least one full backup interval.
"""
from __future__ import annotations

import math
import zipfile
from typing import NamedTuple

import numpy as np

__all__ = [
    "Encoder",
    "EpisodeBuffer",
    "Policy",
    "PolicyBank",
    "episode_log_prob",
    "episode_gradient",
]

BASELINE_RATE = 0.1
_FLOAT = np.dtype(float)


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
        """The latent of one observation."""
        obs = np.asarray(obs, dtype=float)
        if obs.shape != (self.obs_dim,):
            raise ValueError(f"observation shape {obs.shape} does not match ({self.obs_dim},)")
        return np.tanh(self._w.dot(obs))

    def encode_rows(self, obs: np.ndarray) -> np.ndarray:
        """The latents of ``(S, obs_dim)`` observations, such as the rows of a
        plan: :meth:`encode` of each row bit for bit, from one stacked product
        that runs the same matrix-vector kernel per row."""
        return np.tanh(np.matmul(self._w, obs[:, :, None])[:, :, 0])


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


def _features(phi, x: np.ndarray) -> np.ndarray:
    """``x``, whose last entry is 1, with ``phi`` written before it: the row ``[phi; 1]``."""
    shape = phi.shape if type(phi) is np.ndarray else np.shape(phi)
    if shape != (x.shape[0] - 1,):
        raise ValueError(f"phi shape {shape} does not match ({x.shape[0] - 1},)")
    x[:-1] = phi
    return x


def _coefficients(p: list[float], action: int) -> list[float]:
    """``onehot(action) - p`` on Python floats.

    The same IEEE negation and addition as in numpy, without its
    per-call cost on a row of a few actions.
    """
    row = [-v for v in p]
    row[action] += 1.0
    return row


def _outer_sum(coeff: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum_t coeff_t x_t^T``, the outer products summed over the rows in order,
    from ``coeff`` and ``x`` shaped ``(n, A, 1)`` and ``(n, 1, K)``."""
    return np.add.reduce(coeff * x, axis=0)


def _rows_probs(params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The action probabilities of the ``(S, k + 1)`` feature rows ``[phi; 1]``.

    The logits come from one stacked product that runs the same
    matrix-vector kernel per row as ``params.dot(x)``.
    """
    return _softmax(np.matmul(params, x[:, :, None])[:, :, 0])


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
    this is the reference for the rows :meth:`Policy.act` records.
    """
    x, actions, probs = _episode_probs(params, episode)
    coeff = np.array([_coefficients(p, a) for p, a in zip(probs.tolist(), actions)])
    return _outer_sum(coeff[:, :, None], x[:, None, :])


class EpisodeBuffer:
    """The rows of one live episode of ``steps`` steps, written by
    :meth:`Policy.act` and read by :meth:`Policy.update`.

    ``n`` steps are recorded. For ``t < n``, row ``t`` of ``x`` holds
    step ``t``'s features ``[phi; 1]`` and row ``t`` of ``coeff`` its
    coefficients ``onehot(a_t) - p_t``, where ``p_t`` is the probability
    row the action was drawn from; ``rewards`` holds the step rewards,
    appended by the caller. The arrays hold exactly ``steps`` rows: a
    step past them raises IndexError before anything is written, and
    :meth:`Policy.update` takes only a buffer that holds all ``steps``.
    :meth:`clear` starts the next episode in the same arrays.
    """

    __slots__ = ("x", "coeff", "rewards", "n", "steps", "_views")

    def __init__(self, n_actions: int, latent_dim: int, steps: int):
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        self.x = np.ones((steps, latent_dim + 1))
        self.coeff = np.empty((steps, n_actions))
        self._views = self.coeff[:, :, None], self.x[:, None, :]  # update's _outer_sum factors
        self.rewards: list[float] = []
        self.steps = steps
        self.n = 0  # steps recorded by act

    def clear(self) -> None:
        self.n = 0
        self.rewards.clear()


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
        self.learning_rate = learning_rate
        self.update_count = 0
        self.baseline = 0.0

    @property
    def n_actions(self) -> int:
        return self.params.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.params.shape[1] - 1

    def action_probs(self, phi) -> np.ndarray:
        return _softmax(self.params.dot(_features(phi, np.ones(self.params.shape[1]))))

    def act(self, phi, rng: np.random.Generator, episode: EpisodeBuffer) -> int:
        """:meth:`act_row` of the features ``[phi; 1]`` on ``rng.random()``."""
        return self.act_row(_features(phi, np.ones(self.params.shape[1])), rng.random(), episode)

    def act_row(self, x: np.ndarray, u: float, episode: EpisodeBuffer) -> int:
        """Sample an action for the feature row ``x = [phi; 1]`` by inverse CDF
        on the uniform draw ``u``.

        The probabilities are those of :meth:`action_probs` bit for bit:
        the largest logit is subtracted from the logits array, one
        ``np.exp`` call exponentiates it in place, and the sum and
        quotients are Python floats. ``x`` and the step's coefficients go
        to the next row of ``episode``, for :meth:`update`; past its last
        row numpy raises IndexError, before anything is written.
        """
        n = episode.n
        episode.x[n] = x
        z = self.params.dot(x)
        z -= max(z.tolist())
        e = np.exp(z, out=z).tolist()
        total = _sum(e)
        p = [v / total for v in e]
        action = _inverse_cdf(p, u)
        episode.coeff[n] = _coefficients(p, action)
        episode.n = n + 1
        return action

    def act_rows(self, x: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Actions for the ``(S, k + 1)`` feature rows ``[phi; 1]``, row ``i``
        drawn by inverse CDF on ``draws[i]``, recording nothing.

        Each action is the one :meth:`act_row` draws from the same row and
        uniform, bit for bit: the row-wise softmax of :func:`episode_gradient`,
        and the first index whose running sum of probabilities
        (``np.cumsum``, accumulated in order) exceeds the draw, else the last.
        """
        probs = _rows_probs(self.params, x)
        below = np.cumsum(probs, axis=1) <= draws[:, None]
        return np.minimum(np.add.reduce(below, axis=1), probs.shape[1] - 1)

    def update(self, episode: EpisodeBuffer) -> None:
        """One policy-gradient step on the episode return.

        ``episode`` holds all its ``steps`` rows, recorded by :meth:`act`
        under the current ``params``, and one reward per step, else
        ValueError is raised. Advantage is the return minus the running-mean
        baseline; the baseline is updated afterwards, so an episode whose
        return equals the baseline leaves the parameters untouched.
        """
        n = episode.n
        if n != episode.steps:
            raise ValueError(f"episode holds {n} of its {episode.steps} steps")
        if len(episode.rewards) != n:
            raise ValueError(f"{len(episode.rewards)} rewards for {n} steps")
        ret = float(sum(episode.rewards))
        advantage = ret - self.baseline
        if advantage != 0.0:
            grad = _outer_sum(*episode._views)
            grad *= self.learning_rate * advantage
            self.params += grad
        self.update_count += 1
        self.baseline += BASELINE_RATE * (ret - self.baseline)


class _Checkpoint(NamedTuple):
    iteration: int
    params: np.ndarray


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

    def rollback(self, label: int) -> int | None:
        """Restore the live policy to the older checkpoint; return its iteration.

        The newer checkpoint may already contain foreign data from the
        change that triggered the rollback, so the older one is the
        safe restore point. The baseline running mean is reset. With no
        checkpoint on file the live policy is left unchanged and None
        is returned.
        """
        entry = self._entry(label)
        if not entry.checkpoints:
            return None
        oldest = entry.checkpoints[0]
        live = entry.policy
        live.params = oldest.params.copy()
        live.update_count = oldest.iteration
        live.baseline = 0.0
        entry.checkpoints = [oldest]
        return oldest.iteration

    # -- serialization -------------------------------------------------

    def save(self, path) -> None:
        """Write the live policies to ``path`` as one ``.npz`` archive, in
        label order: ``labels`` and ``iterations`` (the update counts), int64
        ``(L,)``, and ``params``, float64 ``(L, n_actions, latent_dim + 1)``.

        The same bank gives the same bytes. Checkpoints and baselines are
        not saved.
        """
        labels = self.labels()
        policies = [self._entries[label].policy for label in labels]
        shape = (len(labels), self._n_actions, self._latent_dim + 1)
        with open(path, "wb") as fh:  # np.savez adds ".npz" to a path that lacks it
            np.savez(fh, labels=np.array(labels, dtype=np.int64),
                     iterations=np.array([p.update_count for p in policies], dtype=np.int64),
                     params=np.array([p.params for p in policies], dtype=float).reshape(shape))

    def load(self, path) -> None:
        """Restore live policies written by :meth:`save`, replacing entries
        with the same labels; checkpoints start empty and baselines at 0.

        Anything but such an archive for this bank's shape, with distinct
        labels, counts >= 0 and finite parameters, raises ValueError naming
        ``path`` and changes nothing.
        """
        try:
            with open(path, "rb") as fh:  # np.load leaves its own handle open on a bad zip
                if not zipfile.is_zipfile(fh):
                    raise ValueError("not a .npz zip archive")
                fh.seek(0)
                archive = np.load(fh, allow_pickle=False)
                labels, counts, params = (archive[key] for key in ("labels", "iterations", "params"))
        except (EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
            raise ValueError(f"{path}: not a policy bank archive ({exc})") from None
        n, width = labels.size, (self._n_actions, self._latent_dim + 1)
        for key, array, dtype, shape in (("labels", labels, np.int64, (n,)),
                                         ("iterations", counts, np.int64, (n,)),
                                         ("params", params, _FLOAT, (n, *width))):
            if array.dtype != dtype or array.shape != shape:
                raise ValueError(f"{path}: {key} is {array.dtype} {array.shape}, "
                                 f"expected {np.dtype(dtype)} {shape}")
        entries: dict[int, _Entry] = {}
        for label, count, values in zip(labels.tolist(), counts.tolist(), params):
            if label in entries:
                raise ValueError(f"{path}: label {label} appears twice")
            if count < 0:
                raise ValueError(f"{path}: label {label} has update count {count} < 0")
            if not np.isfinite(values).all():
                raise ValueError(f"{path}: label {label} has a parameter that is not finite")
            policy = Policy(self._n_actions, self._latent_dim, self._learning_rate)
            policy.params = values.copy()
            policy.update_count = count
            entries[label] = _Entry(policy)
        self._entries.update(entries)
