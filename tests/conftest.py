"""Shared pytest wiring, policy helpers, scripted detector streams and tiny runs.

Acceptance tests register one verdict line each; they are echoed in the
terminal summary so the pass/fail record survives output capture.
"""
import io
import itertools
from dataclasses import replace

import numpy as np
import pytest

from swoks.agent import EpisodeBuffer
from swoks.config import AgentConfig, ExperimentConfig, load_config
from swoks.detector import DetectorConfig
from swoks.env import Curriculum, TaskSpec, TreeGraphConfig
from swoks.runner import run_experiment

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def unique_candidates_one_sided(x1, x2):
    """One-sided KS statistic ``sup_x (F1(x-) - F2(x-))``, clamped to [0, 1].

    An independent formula: the strict and non-strict ECDF differences
    at every distinct pooled value, as computed before the pooled values
    stopped being made unique.
    """
    a = np.asarray(x1, dtype=float)
    b = np.asarray(x2, dtype=float)
    candidates = np.unique(np.concatenate([a, b]))
    sa = np.sort(a, kind="stable")
    sb = np.sort(b, kind="stable")
    f1_lt = np.searchsorted(sa, candidates, side="left") / a.shape[0]
    f2_lt = np.searchsorted(sb, candidates, side="left") / b.shape[0]
    f1_le = np.searchsorted(sa, candidates, side="right") / a.shape[0]
    f2_le = np.searchsorted(sb, candidates, side="right") / b.shape[0]
    sup = max(float(np.max(f1_lt - f2_lt)), float(np.max(f1_le - f2_le)))
    return min(1.0, max(0.0, sup))


class FixedDraw:
    """Stands in for a Generator whose every uniform draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def greedy_action(policy, phi) -> int:
    """Most probable action of ``policy`` at ``phi``; ties resolve to the lowest index."""
    return int(np.argmax(policy.params @ np.append(phi, 1.0)))


def record_episode(policy, steps) -> EpisodeBuffer:
    """The buffer ``policy.act`` writes for (phi, action, reward) steps
    under its current params, each action forced by a draw inside its
    probability interval."""
    episode = EpisodeBuffer(policy.n_actions, policy.latent_dim)
    for phi, action, reward in steps:
        cum = np.cumsum(policy.action_probs(phi))
        low = cum[action - 1] if action else 0.0
        draw = FixedDraw(float(low + (cum[action] - low) / 2))
        assert policy.act(phi, draw, episode) == action
        episode.rewards.append(reward)
    return episode


def npz_bytes(**arrays) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def bad_banks(n_actions: int, latent_dim: int) -> dict[str, tuple[bytes, str]]:
    """Files ``PolicyBank.load`` must reject for a bank of this shape, by
    case: the file's bytes and a fragment of the error message."""
    one = dict(labels=np.array([1], dtype=np.int64), iterations=np.array([0], dtype=np.int64),
               params=np.zeros((1, n_actions, latent_dim + 1)))
    good = npz_bytes(**one)

    def bad(**changes):
        return npz_bytes(**{**one, **changes})

    nan, inf = np.array(one["params"]), np.array(one["params"])
    nan[0, -1, -1], inf[0, 0, 0] = np.nan, -np.inf
    text = "label 1\niteration 0\n" + f"shape {n_actions} {latent_dim + 1}\n"
    text += "0.0\n" * (n_actions * (latent_dim + 1))
    npy = io.BytesIO()
    np.save(npy, one["params"])
    return {
        "duplicate-label": (bad(labels=np.array([2, 2], dtype=np.int64),
                                iterations=np.array([0, 0], dtype=np.int64),
                                params=np.zeros((2, n_actions, latent_dim + 1))),
                            "label 2 appears twice"),
        "negative-count": (bad(iterations=np.array([-3], dtype=np.int64)),
                           "label 1 has update count -3 < 0"),
        "nan-parameter": (bad(params=nan), "label 1 has a parameter that is not finite"),
        "inf-parameter": (bad(params=inf), "label 1 has a parameter that is not finite"),
        "params-float32": (bad(params=one["params"].astype(np.float32)), "params is float32"),
        "labels-float": (bad(labels=np.array([1.0])), "labels is float64"),
        "params-shape": (bad(params=np.zeros((1, n_actions + 1, latent_dim + 1))),
                         f"params is float64 (1, {n_actions + 1}, {latent_dim + 1})"),
        "iterations-length": (bad(iterations=np.array([0, 0], dtype=np.int64)),
                              "iterations is int64 (2,), expected int64 (1,)"),
        "missing-array": (npz_bytes(labels=one["labels"], iterations=one["iterations"]),
                          "not a policy bank archive"),
        "empty-file": (b"", "not a policy bank archive"),
        "truncated-archive": (good[:len(good) // 2], "not a policy bank archive"),
        "text-bank": (text.encode(), "not a policy bank archive"),
        "npy-array": (npy.getvalue(), "not a policy bank archive"),
    }


def regime(rng: np.random.Generator, mean: float, reward: float, width: int = 3,
           scale: float = 1.0):
    """Endless (phi, action, reward) tuples from one stationary regime.

    With ``scale=0`` every latent is ``mean``, so the rows take two values.
    """
    while True:
        yield rng.normal(mean, scale, size=width), int(rng.integers(0, 2)), reward


class ScriptedProbe:
    """Probe source replaying a scripted generator per label.

    ``deploy(label, n)`` returns the first ``n`` steps of a fresh run of
    the label's script as ``(phi, actions, rewards)`` columns. Records
    the order of deploy calls so tests can assert which candidates were
    tried.
    """

    def __init__(self, scripts):
        self.scripts = scripts
        self.deploy_calls: list[int] = []

    def deploy(self, label: int, n: int):
        self.deploy_calls.append(label)
        steps = list(itertools.islice(self.scripts[label](), n))
        return tuple(zip(*steps)) or ((), (), ())


class ReferenceProbe:
    """Plays a stored policy's probe steps one ``reset``/``step``/``encode``/``act``
    at a time, from the root; ``blocks`` gets each probe's ``(gt_task, rewards)``."""

    def __init__(self, env, encoder, bank, rng):
        self.env, self.encoder, self.bank, self.rng = env, encoder, bank, rng
        self.blocks: list[tuple[int, np.ndarray]] = []

    def deploy(self, label: int, n: int):
        k, env = self.encoder.latent_dim, self.env
        policy, buffer = self.bank.get_or_create(label), EpisodeBuffer(env.n_actions, k)
        phi, actions, rewards = np.empty((n, k)), np.empty(n, int), np.empty(n)
        done = True
        for i in range(n):
            if done:
                obs = env.reset()
                buffer.clear()
            phi[i] = self.encoder.encode(obs)
            actions[i] = policy.act(phi[i], self.rng, buffer)
            obs, rewards[i], done = env.step(int(actions[i]))
        self.blocks.append((env.active_task, rewards))
        return phi, actions, rewards


def window_rows(window) -> list[list[float]]:
    """A label window's rows, oldest first: its whole sets, then the set being filled."""
    return [row for rows, _ in window.sets for row in rows.tolist()] + window.filling.tolist()


def detector_view(det):
    """Everything an input can change in a ``Detector``, in comparable form."""
    labels = {}
    for label in det.labels:
        st = det.label_state(label.id)
        labels[label.id] = (
            window_rows(st.window), list(st.history),
            None if st.reference is None else st.reference[0].tolist(),
        )
    return det.t, det.last_swd, det.last_p_value, det.labels, det.current_label, labels


def env_view(env) -> tuple:
    """Everything a step or a probe can change in a ``TreeGraphEnv``, in comparable
    form, with the scaled noise rows it drew but has not consumed yet."""
    return (env._node, env._done, env._active, env._rewarded, env.cursor,
            env._noise_rows[env.cursor - env._first:].tobytes(), env._noise.bit_generator.state)


LD, LW, PROBE = 10, 6, 8
MIRROR = ((1, 900), (2, 900), (1, 900))


def tiny_config(segments, seed=3, **det_overrides) -> ExperimentConfig:
    """A two-task run on a miniature tree and windows: under a second for the mirror."""
    det = dict(history_len=LD, swd_history_len=LW, alpha=0.01, beta=1.1,
               stable_phase=0, n_projections=32, probe_swd_samples=PROBE)
    det.update(det_overrides)
    return ExperimentConfig(
        detector=DetectorConfig(**det),
        env=TreeGraphConfig(depth=2, branching=2, high_reward=1.0,
                            fail_reward=-0.1, obs_dim=8, obs_noise_sigma=0.05),
        agent=AgentConfig(latent_dim=4, learning_rate=0.1, backup_freq=50),
        tasks=(TaskSpec(task_id=1, rewarded_leaf=0), TaskSpec(task_id=2, rewarded_leaf=3)),
        curriculum=Curriculum(segments),
        master_seed=seed,
    )


# Tiny live-loop cases: (depth, branching, sigma, curriculum, probe_swd_samples).
TINY_CASES = {
    "desk": (2, 2, 0.05, ((1, 700), (2, 700)), PROBE),
    "depth-3-branching-3": (3, 3, 0.05, ((1, 700), (2, 700)), PROBE),
    "sigma-0": (2, 2, 0.0, ((1, 700), (2, 700)), PROBE),
    "branching-8": (2, 8, 0.05, ((1, 700), (2, 700)), PROBE),
    # Checks land mid-episode, and a probe of 20 steps stays inside the plan.
    "abort-after-probe": (3, 2, 0.05, MIRROR, 2),
}


def tiny_case(case: str, seed: int) -> ExperimentConfig:
    """The config of a :data:`TINY_CASES` entry; its tasks reward the first and last leaf."""
    depth, branching, sigma, segments, probe = TINY_CASES[case]
    cfg = tiny_config(segments, seed=seed, probe_swd_samples=probe)
    env = replace(cfg.env, depth=depth, branching=branching, obs_noise_sigma=sigma)
    return replace(cfg, env=env, tasks=(TaskSpec(1, 0), TaskSpec(2, branching ** depth - 1)))


@pytest.fixture(scope="session")
def desk_seed_1(tmp_path_factory):
    """Desk seed 1's run and the bank it saves; a test that changes the run copies it."""
    bank = tmp_path_factory.mktemp("desk-seed-1") / "bank.npz"
    return run_experiment(load_config("desk", seed=1), save_bank=bank), bank
