"""Experiment loop: environment, encoder, policy bank, detector.

Live steps are collected into a block and fed to the detector once per
check interval (``history_len`` steps), the only steps at which it can
raise an event; the block's per-step fields go to the trace's columns
then, with the check's p_value, swd and event stored once. When it
triggers, probing runs stored policies in the same environment, so
probe steps consume curriculum time and are flagged in the trace. On
any accepted detection the departing label's policy is rolled back to
its older checkpoint and the current episode is abandoned.
"""
from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .agent import Encoder, EpisodeBuffer, PolicyBank
from .config import ExperimentConfig
from .detector import (
    EVENT_NEW_TASK,
    EVENT_PROBE_ERROR,
    EVENT_RE_DETECTED,
    DetectionEvent,
    Detector,
    DetectorConfig,
)
from .env import TreeGraphEnv
from .seeding import UniformBlocks, child_seed, substream
from .stream import prefetch_stream_blocks
from .trace import Trace, write_events, write_trace

__all__ = ["RunResult", "run_experiment", "detect_offline"]


@dataclass
class RunResult:
    config: ExperimentConfig
    trace: Trace
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

    Each yielded tuple is one real environment step: the detector
    counts it and it never updates any policy. The source records each
    step's ``(gt_task, reward)`` in ``steps``; the runner writes them to
    the trace, with probe_flag=1, after the live step whose check ran
    the probe, and then clears the list.
    """

    def __init__(self, env: TreeGraphEnv, encoder: Encoder, bank: PolicyBank,
                 rng: UniformBlocks):
        self._env = env
        self._encoder = encoder
        self._bank = bank
        self._rng = rng
        self.steps: list[tuple[int, float]] = []

    def deploy(self, label: int):
        if label not in self._bank:
            return iter(())  # no stored policy: immediate probe failure
        policy = self._bank.get_or_create(label)

        def steps():
            env = self._env
            while True:
                obs = env.reset()
                done = False
                while not done:
                    phi = self._encoder.encode(obs)
                    action = policy.act(phi, self._rng)
                    obs, reward, done = env.step(action)
                    self.steps.append((env.active_task, reward))
                    yield phi, action, reward

        return steps()


def run_experiment(config: ExperimentConfig, out_dir: str | Path | None = None,
                   load_bank: str | Path | None = None,
                   save_bank: str | Path | None = None) -> RunResult:
    """Run one seeded experiment over the configured curriculum.

    Writes ``trace.csv`` and ``events.json`` under ``out_dir`` when
    given; ``out_dir`` is created before the first step. Identical config and seed give byte-identical outputs.
    """
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
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

    # Room for the whole curriculum and the last check interval's overrun.
    trace = Trace(config.curriculum.total_steps + config.detector.history_len)
    events: list[DetectionEvent] = []
    probe_source = _EnvProbe(env, encoder, bank, probe_rng)
    det_cfg = replace(config.detector, master_seed=child_seed(master, "detector"))
    detector = Detector(det_cfg, probe=probe_source)

    # Live steps since the last check boundary, fed to the detector at the next one.
    h = det_cfg.history_len
    phis: list[np.ndarray] = []
    actions: list[int] = []
    rewards: list[float] = []
    gt_tasks: list[int] = []
    iterations: list[int] = []
    episode = EpisodeBuffer(env.n_actions, config.agent.latent_dim)
    t = 0  # steps taken, live and probe: the detector's t plus the pending steps
    iteration = 0
    total = config.curriculum.total_steps
    while t < total:
        env.set_task(config.curriculum.task_at(t + 1))
        obs = env.reset()
        gt_task = env.active_task  # fixed until the next reset
        label = detector.current_label.id
        policy = bank.get_or_create(label)
        episode.clear()
        aborted = False
        done = False
        while not done:
            phi = encoder.encode(obs)
            action = policy.act(phi, act_rng, episode)
            obs, reward, done = env.step(action)
            episode.rewards.append(reward)
            phis.append(phi)
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
            found = detector.ingest_block(phis, actions, rewards)
            event = found[0] if found else None
            p_value, swd = detector.last_p_value, detector.last_swd
            trace.append(t, iteration, gt_task, label, rewards[-1:],
                         0, p_value, swd, event.kind if event else "")
            for column in (phis, actions, rewards, gt_tasks, iterations):
                column.clear()
            if probe_source.steps:
                probe_tasks, probe_rewards = zip(*probe_source.steps)
                trace.append(t + 1, iteration, probe_tasks, label, probe_rewards, 1,
                             p_value, swd)
                probe_source.steps.clear()
                t = detector.t
            if event is None:
                continue
            events.append(event)
            if event.kind in (EVENT_NEW_TASK, EVENT_RE_DETECTED):
                bank.rollback(event.old_label)
                aborted = True
                break
            if event.kind == EVENT_PROBE_ERROR:
                aborted = True  # probes left the env mid-episode
                break
            # suppressed: keep playing the episode
        if not aborted:
            policy.update(episode)
            bank.backup_if_due(label)
            iteration += 1
    if rewards:
        trace.append(t - len(rewards) + 1, iterations, gt_tasks, label, rewards, 0,
                     detector.last_p_value, detector.last_swd)
        detector.ingest_block(phis, actions, rewards)

    result = RunResult(config=config, trace=trace, events=events,
                       detector=detector, bank=bank, encoder=encoder, env=env)
    if save_bank is not None:
        bank.save(save_bank)
    if out_dir is not None:
        write_trace(Path(out_dir) / "trace.csv", trace)
        write_events(Path(out_dir) / "events.json", events)
    return result


def detect_offline(stream_path: str | Path, det_config: DetectorConfig):
    """Replay a recorded stream through a detector without probes.

    Re-detection degrades to new-label-only because stored policies
    cannot be deployed against a file. The stream is ingested block by
    block as a reader process parses it (:func:`prefetch_stream_blocks`),
    so parsing overlaps detection and memory does not grow with the
    stream's length; the reader is stopped before this returns or
    raises. Returns (events, detector).
    """
    detector = Detector(det_config, probe=None)
    events: list[DetectionEvent] = []
    with closing(prefetch_stream_blocks(stream_path)) as blocks:
        for block in blocks:
            events.extend(detector.ingest_block(block.phi, block.action, block.reward))
    return events, detector
