"""Experiment loop: environment, encoder, policy bank, detector.

Live episodes are encoded a plan at a time: :meth:`TreeGraphEnv.plan`
gives the observation each of the next whole episodes would make at
each node it can act at, one :meth:`Encoder.encode_rows` call turns
them into ready rows ``[phi; 1]``, and a live step picks its row by
episode and node, samples its action from it
(:meth:`Policy.act_row`) and advances the env, with the same latents,
actions and rewards, bit for bit, as ``reset``/``step``/``encode``/
``act`` one step at a time. A plan serves an episode only where the
env's noise cursor sits at the start of one of its episodes, so an
aborted episode or a probe simply leads to a new plan. Live steps are
collected into a block and fed to the detector once per check interval
(``history_len`` steps), the only steps at which it can raise an event,
since probes play whole sets; their latents are copied from the plan
rows into the block at the check (or before a new plan), and the
block's rows go to the trace at the check, with its p_value, swd and
event. When it triggers, probing runs stored policies in the same
environment, each probe as one batched rollout of whole episodes
(:class:`_EnvProbe`), so probe steps consume curriculum time
and are flagged in the trace. On any accepted detection the departing
label's policy is rolled back to its older checkpoint and the current
episode is abandoned. With an output directory the rows are written to
``trace.csv`` as they come, so memory stays flat over the run and a run
that raises leaves the rows and events it got to.
"""
from __future__ import annotations

import warnings
from contextlib import closing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .agent import Encoder, EpisodeBuffer, PolicyBank
from .config import ExperimentConfig
from .detector import (
    EVENT_NEW_TASK,
    EVENT_RE_DETECTED,
    DetectionEvent,
    Detector,
    DetectorConfig,
)
from .env import TreeGraphEnv
from .seeding import UniformBlocks, child_seed, substream
from .stream import prefetch_stream_blocks
from .trace import Trace, TraceWriter, write_events

__all__ = ["RunResult", "run_experiment", "detect_offline"]


@dataclass
class RunResult:
    """A finished run. ``trace`` is None when its rows went to
    ``out_dir/trace.csv`` (:func:`~swoks.trace.read_trace` gives them
    back); ``episodes`` counts the episodes begun, the trace's largest
    ``iteration`` plus one."""

    config: ExperimentConfig
    trace: Trace | None
    episodes: int
    events: list[DetectionEvent]
    detector: Detector
    bank: PolicyBank
    encoder: Encoder
    env: TreeGraphEnv

    @property
    def final_label_count(self) -> int:
        return len(self.detector.labels)


class _EnvProbe:
    """Serves re-detection probes by running stored policies live.

    A probe of ``n`` steps is one batched rollout
    (:meth:`TreeGraphEnv.rollout`): whole episodes from the root, played
    level by level across all of them, each level's observations encoded
    and its actions sampled at once, with the probe RNG's uniforms taken
    in step order. Its steps, phi, actions and rewards, and the env it
    leaves behind equal those of ``n`` live ``reset``/``step`` calls with
    :meth:`Encoder.encode` and :meth:`Policy.act`. Every step is a real
    environment step: the detector counts it and it never updates any
    policy. The source records each probe's ``(gt_task, rewards)`` in
    ``blocks``; the runner writes them to the trace, with probe_flag=1,
    after the live step whose check ran the probes, and then clears the
    list.
    """

    def __init__(self, env: TreeGraphEnv, encoder: Encoder, bank: PolicyBank,
                 rng: UniformBlocks):
        self._env = env
        self._encoder = encoder
        self._bank = bank
        self._rng = rng
        self.blocks: list[tuple[int, np.ndarray]] = []

    def deploy(self, label: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        policy, encoder, random = self._bank.get_or_create(label), self._encoder, self._rng.random
        draws = np.array([random() for _ in range(n)])
        phi = np.empty((n, encoder.latent_dim))

        def choose(steps: np.ndarray, obs: np.ndarray) -> np.ndarray:
            phi[steps] = latents = encoder.encode_rows(obs)
            return policy.act_rows(latents, draws[steps])

        actions, rewards = self._env.rollout(n, choose)
        self.blocks.append((self._env.active_task, rewards))
        return phi, actions, rewards


def _encode_plan(env: TreeGraphEnv, encoder: Encoder) -> tuple[np.ndarray, int]:
    """The rows ``[phi; 1]`` of :meth:`TreeGraphEnv.plan`'s observations,
    episode after episode, and the number of nodes per episode."""
    obs = env.plan()
    episodes, nodes, _ = obs.shape
    x = np.ones((episodes * nodes, encoder.latent_dim + 1))
    x[:, :-1] = encoder.encode_rows(obs.reshape(episodes * nodes, -1))
    return x, nodes


def run_experiment(config: ExperimentConfig, out_dir: str | Path | None = None,
                   load_bank: str | Path | None = None,
                   save_bank: str | Path | None = None) -> RunResult:
    """Run one seeded experiment over the configured curriculum.

    Writes ``trace.csv`` and ``events.json`` under ``out_dir`` when
    given; ``out_dir`` is created and ``trace.csv`` opened before the
    first step, and its rows are written as the run goes. Both files are
    written also when the run raises, with what it got to, and then the
    run's own exception propagates. The bank is saved to ``save_bank``
    after both files are written. Identical config and seed give
    byte-identical outputs.
    """
    out = None if out_dir is None else Path(out_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    master = config.master_seed
    env = TreeGraphEnv(
        replace(config.env, env_seed=child_seed(master, "env")), config.tasks
    )
    encoder = Encoder(config.env.obs_dim, config.agent.latent_dim,
                      seed=child_seed(master, "encoder"))
    bank = PolicyBank(env.n_actions, config.agent.latent_dim,
                      config.agent.learning_rate, config.agent.backup_freq)
    if load_bank is not None:
        bank.load(load_bank)
    act_rng = UniformBlocks(substream(master, "actions"))
    probe_rng = UniformBlocks(substream(master, "probe-actions"))

    events: list[DetectionEvent] = []
    probe_source = _EnvProbe(env, encoder, bank, probe_rng)
    det_cfg = replace(config.detector, master_seed=child_seed(master, "detector"))
    detector = Detector(det_cfg, probe=probe_source)

    # Live steps since the last check boundary, fed to the detector at the next one.
    # Their latents come from a plan: row ``r`` of ``plan_x`` is ``[phi; 1]`` of one
    # node an episode of the plan can act at, encoded with the whole plan at once.
    # ``plan_rows`` holds the rows of the pending steps whose latents are not yet
    # copied into ``latents`` (the first ``written`` are).
    h = det_cfg.history_len
    latents = np.empty((h, config.agent.latent_dim))
    written = 0
    plan_rows: list[int] = []
    plan_x = None
    plan_at = plan_span = nodes = 0  # the plan's first cursor, its observations, nodes
    stride = config.env.depth + 1  # observations per whole episode
    b = env.n_actions
    actions: list[int] = []
    rewards: list[float] = []
    gt_tasks: list[int] = []
    iterations: list[int] = []
    episode = EpisodeBuffer(env.n_actions, config.agent.latent_dim)
    backup_freq = bank.backup_freq
    t = 0  # steps taken, live and probe: the detector's t plus the pending steps
    iteration = 0
    total = config.curriculum.total_steps
    # Rows go straight to trace.csv with an out_dir, else to columns in memory
    # (room for the whole curriculum and the last check interval's overrun).
    trace = TraceWriter(out / "trace.csv") if out is not None else Trace(total + h)
    renew = 0  # steps taken when the task, the label and its policy are next looked up
    finished = False
    try:
        while t < total:
            if t >= renew:
                # The task only changes where a segment ends, the label only at a check.
                gt_task, renew = config.curriculum.segment(t + 1)
                env.set_task(gt_task)
                label = detector.current_label.id
                policy = bank.get_or_create(label)
            # A plan serves an episode that starts where one of its episodes does;
            # an aborted episode or a probe in between moves the cursor off them.
            offset = env.cursor - plan_at
            if offset % stride or not 0 <= offset < plan_span:
                if plan_rows:
                    latents[written:len(rewards)] = plan_x[plan_rows, :-1]
                    written = len(rewards)
                    plan_rows.clear()
                plan_x, nodes = _encode_plan(env, encoder)
                plan_at, plan_span, offset = env.cursor, len(plan_x) // nodes * stride, 0
            first = offset // stride * nodes
            node = 0
            env.start()
            episode.clear()
            aborted = done = False
            while not done:
                row = first + node
                action = policy.act_row(plan_x[row], act_rng, episode)
                reward, done = env.advance(action)
                node = node * b + 1 + action
                plan_rows.append(row)
                episode.rewards.append(reward)
                actions.append(action)
                rewards.append(reward)
                gt_tasks.append(gt_task)
                iterations.append(iteration)
                t += 1
                if t % h:
                    continue
                # Check boundary. The rows before it keep the previous check's values,
                # and all carry ``label``: the detector's label only changes in ingest_block.
                trace.append(t - len(rewards) + 1, iterations[:-1], gt_tasks[:-1], label,
                             rewards[:-1], 0, detector.last_p_value, detector.last_swd)
                latents[written:len(rewards)] = plan_x[plan_rows, :-1]
                written = 0
                plan_rows.clear()
                found = detector.ingest_block(latents[:len(rewards)], actions, rewards)
                event = found[0] if found else None
                p_value, swd = detector.last_p_value, detector.last_swd
                trace.append(t, iteration, gt_task, label, rewards[-1:],
                             0, p_value, swd, event.kind if event else "")
                for column in (actions, rewards, gt_tasks, iterations):
                    column.clear()
                renew = t
                for probe_task, probe_rewards in probe_source.blocks:
                    trace.append(t + 1, iteration, probe_task, label, probe_rewards, 1,
                                 p_value, swd)
                    t += len(probe_rewards)
                probe_source.blocks.clear()
                if event is None:
                    continue
                events.append(event)
                if event.kind in (EVENT_NEW_TASK, EVENT_RE_DETECTED):
                    bank.rollback(event.old_label)
                    aborted = True
                    break
                # suppressed: keep playing the episode
            if not aborted:
                policy.update(episode)
                if policy.update_count % backup_freq == 0:  # else no backup is due
                    bank.backup_if_due(label)
                iteration += 1
        if rewards:
            trace.append(t - len(rewards) + 1, iterations, gt_tasks, label, rewards, 0,
                         detector.last_p_value, detector.last_swd)
            latents[written:len(rewards)] = plan_x[plan_rows, :-1]
            detector.ingest_block(latents[:len(rewards)], actions, rewards)
        finished = True
    finally:
        if out is not None:
            try:
                trace.close()
                write_events(out / "events.json", events)
            except Exception as exc:
                if finished:
                    raise
                # The run raised: its own exception, not this one, propagates.
                warnings.warn(f"outputs of the failed run in {out} are incomplete: {exc}")

    # The bank after the run's outputs: a bank path that cannot be written must
    # not lose them.
    if save_bank is not None:
        bank.save(save_bank)
    # Completed episodes advance ``iteration``; an aborted last one did not.
    return RunResult(config=config, trace=None if out is not None else trace,
                     episodes=iteration + aborted, events=events,
                     detector=detector, bank=bank, encoder=encoder, env=env)


def detect_offline(stream_path: str | Path, det_config: DetectorConfig):
    """Replay a recorded stream through a detector without probes.

    Re-detection degrades to new-label-only because stored policies
    cannot be deployed against a file. The stream is ingested block by
    block as a reader process parses it and hands it over through a ring
    of slots in shared memory (:func:`prefetch_stream_blocks`), so
    parsing overlaps detection and memory does not grow with the
    stream's length; the reader is stopped before this returns or
    raises. Returns (events, detector).
    """
    detector = Detector(det_config, probe=None)
    events: list[DetectionEvent] = []
    with closing(prefetch_stream_blocks(stream_path)) as blocks:
        for block in blocks:
            events.extend(detector.ingest_block(block.phi, block.action, block.reward))
    return events, detector
