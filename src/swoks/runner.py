"""Experiment loop: environment, encoder, policy bank, detector.

Live steps feed the detector; when it triggers, probing runs stored
policies in the same environment, so probe steps consume curriculum
time and are flagged in the trace. On any accepted detection the
departing label's policy is rolled back to its older checkpoint and the
current episode is abandoned.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .agent import Encoder, PolicyBank
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
from .seeding import child_seed, substream
from .stream import read_stream_blocks
from .trace import TraceRow, write_events, write_trace

__all__ = ["RunResult", "run_experiment", "detect_offline", "sweep_beta"]


@dataclass
class RunResult:
    config: ExperimentConfig
    trace: list[TraceRow]
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
    counts it, it lands in the trace with probe_flag=1, and it never
    updates any policy. Rows are recorded just before the yield, at the
    step index the detector is about to assign.
    """

    def __init__(self, env: TreeGraphEnv, encoder: Encoder, bank: PolicyBank,
                 rng: np.random.Generator, record_probe):
        self._env = env
        self._encoder = encoder
        self._bank = bank
        self._rng = rng
        self._record_probe = record_probe
        self.detector: Detector | None = None  # bound after construction

    def deploy(self, label: int):
        if label not in self._bank:
            return iter(())  # no stored policy: immediate probe failure
        policy = self._bank.get_or_create(label)

        def steps():
            while True:
                obs = self._env.reset()
                done = False
                while not done:
                    phi = self._encoder.encode(obs)
                    action = policy.act(phi, self._rng)
                    obs, reward, done = self._env.step(action)
                    self._record_probe(self.detector.t + 1, reward)
                    yield phi, action, reward

        return steps()


def run_experiment(config: ExperimentConfig, out_dir: str | Path | None = None,
                   load_bank: str | Path | None = None,
                   save_bank: str | Path | None = None) -> RunResult:
    """Run one seeded experiment over the configured curriculum.

    Writes ``trace.csv`` and ``events.json`` under ``out_dir`` when
    given. Identical config and seed give byte-identical outputs.
    """
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
    act_rng = substream(master, "actions")
    probe_rng = substream(master, "probe-actions")

    trace: list[TraceRow] = []
    events: list[DetectionEvent] = []
    state = {"episode": 0, "label": 1}

    def record_probe(t: int, reward: float) -> None:
        trace.append(TraceRow(
            t=t, iteration=state["episode"], gt_task=env.active_task,
            pred_label=state["label"], event="",
            p_value=detector.last_p_value, swd=detector.last_swd,
            reward=reward, probe_flag=1,
        ))

    probe_source = _EnvProbe(env, encoder, bank, probe_rng, record_probe)
    det_cfg = replace(config.detector, master_seed=child_seed(master, "detector"))
    detector = Detector(det_cfg, probe=probe_source)
    probe_source.detector = detector

    total = config.curriculum.total_steps
    while detector.t < total:
        env.set_task(config.curriculum.task_at(detector.t + 1))
        obs = env.reset()
        label = detector.current_label.id
        state["label"] = label
        policy = bank.get_or_create(label)
        episode = []
        aborted = False
        done = False
        while not done:
            phi = encoder.encode(obs)
            action = policy.act(phi, act_rng)
            obs, reward, done = env.step(action)
            live_t = detector.t + 1
            mark = len(trace)  # probe rows of this step's decision land after here
            event = detector.ingest(phi, action, reward)
            episode.append((phi, action, reward))
            trace.insert(mark, TraceRow(
                t=live_t, iteration=state["episode"], gt_task=env.active_task,
                pred_label=label, event=event.kind if event else "",
                p_value=detector.last_p_value, swd=detector.last_swd,
                reward=reward, probe_flag=0,
            ))
            if event is None:
                continue
            events.append(event)
            if event.kind in (EVENT_NEW_TASK, EVENT_RE_DETECTED):
                bank.rollback(event.old_label)
                state["label"] = event.new_label
                aborted = True
                break
            if event.kind == EVENT_PROBE_ERROR:
                aborted = True  # probes left the env mid-episode
                break
            # suppressed: keep playing the episode
        if not aborted and episode:
            policy.update(episode)
            bank.backup_if_due(label)
            state["episode"] += 1

    result = RunResult(config=config, trace=trace, events=events,
                       detector=detector, bank=bank, encoder=encoder, env=env)
    if save_bank is not None:
        bank.save(save_bank)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_trace(out / "trace.csv", trace)
        write_events(out / "events.json", events)
    return result


def detect_offline(stream_path: str | Path, det_config: DetectorConfig):
    """Replay a recorded stream through a detector without probes.

    Re-detection degrades to new-label-only because stored policies
    cannot be deployed against a file. The stream is read and ingested
    block by block, so memory does not grow with its length. Returns
    (events, detector).
    """
    detector = Detector(det_config, probe=None)
    events: list[DetectionEvent] = []
    for block in read_stream_blocks(stream_path):
        events.extend(detector.ingest_block(block.phi, block.action, block.reward))
    return events, detector


def sweep_beta(config: ExperimentConfig, betas) -> list[dict]:
    """Run the experiment once per beta on identical seeds.

    Returns one summary row per beta: new-task event count and aligned
    accuracy over included (non-probe, post-stable-phase) steps.
    """
    from .metrics import label_alignment_accuracy, run_included_mask

    betas = list(betas)
    if not betas:
        raise ValueError("betas must not be empty")
    rows = []
    for beta in betas:
        cfg = replace(config, detector=replace(config.detector, beta=float(beta)))
        result = run_experiment(cfg)
        mask = run_included_mask(result.trace, result.events,
                                 cfg.detector.stable_phase)
        pred = [r.pred_label for r in result.trace]
        gt = [r.gt_task for r in result.trace]
        accuracy = (
            label_alignment_accuracy(pred, gt, include=mask) if mask.any() else float("nan")
        )
        rows.append({
            "beta": float(beta),
            "new_task_events": sum(1 for e in result.events if e.kind == EVENT_NEW_TASK),
            "re_detected_events": sum(1 for e in result.events if e.kind == EVENT_RE_DETECTED),
            "accuracy": accuracy,
            "final_labels": result.final_label_count,
        })
    return rows
