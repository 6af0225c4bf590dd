"""The online loop against a plain reference, run by run: :func:`reference_run`
plays ``run_experiment``'s loop through the per-step public API, probes
included, and never touches a plan, the env's cursor, the batched probe,
``act_row``, ``act_rows``, ``rollout`` or ``encode_rows``. Its detector is
the real one, fed once per check interval (``test_reference_detector.py``)."""
from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import TINY_CASES, ReferenceProbe, detector_view, tiny_case

from swoks.agent import Encoder, EpisodeBuffer, PolicyBank
from swoks.config import load_config
from swoks.detector import EVENT_SUPPRESSED, Detector
from swoks.env import TreeGraphEnv
from swoks.runner import run_experiment
from swoks.seeding import child_seed, substream
from swoks.trace import TraceRow


def reference_run(config, load_bank=None) -> SimpleNamespace:
    """The run of ``config`` with ``run_experiment``'s named seeds and rules: its
    trace as a list of ``TraceRow``, events, episodes, bank, env and detector."""
    master, curriculum, h = config.master_seed, config.curriculum, config.detector.history_len
    env = TreeGraphEnv(replace(config.env, env_seed=child_seed(master, "env")), config.tasks)
    encoder = Encoder(config.env.obs_dim, config.agent.latent_dim,
                      seed=child_seed(master, "encoder"))
    bank = PolicyBank(env.n_actions, config.agent.latent_dim, config.agent.learning_rate,
                      config.agent.backup_freq)
    if load_bank is not None:
        bank.load(load_bank)
    act_rng = substream(master, "actions")
    probe = ReferenceProbe(env, encoder, bank, substream(master, "probe-actions"))
    detector = Detector(replace(config.detector, master_seed=child_seed(master, "detector")),
                        probe)
    trace, events, pending = [], [], []  # pending: the live steps since the last check
    t = iteration = episodes = 0
    while t < curriculum.total_steps:
        gt_task = curriculum.task_at(t + 1)
        env.set_task(gt_task)
        label = detector.current_label.id
        policy = bank.get_or_create(label)
        episode = EpisodeBuffer(env.n_actions, encoder.latent_dim, config.env.depth)
        obs, done, aborted = env.reset(), False, False
        episodes += 1
        while not done:
            phi = encoder.encode(obs)
            action = policy.act(phi, act_rng, episode)
            obs, reward, done = env.step(action)
            episode.rewards.append(reward)
            pending.append((phi, action, reward))
            t += 1
            if t % h:
                trace.append(TraceRow(t, iteration, gt_task, label, "", detector.last_p_value,
                                      detector.last_swd, reward, 0))
                continue
            found = detector.ingest_block(*map(np.array, zip(*pending)))
            pending.clear()
            events += found
            kind = found[0].kind if found else ""
            p_value, swd = detector.last_p_value, detector.last_swd
            trace.append(TraceRow(t, iteration, gt_task, label, kind, p_value, swd, reward, 0))
            for probe_task, probe_rewards in probe.blocks:  # probe rows carry the old label
                for probe_reward in probe_rewards:
                    t += 1
                    trace.append(TraceRow(t, iteration, probe_task, label, "", p_value, swd,
                                          probe_reward, 1))
            probe.blocks.clear()
            if kind in ("", EVENT_SUPPRESSED):
                continue  # keep playing the episode
            bank.rollback(found[0].old_label)  # new-task or re-detected
            aborted = True
            break
        if not aborted:
            policy.update(episode)
            bank.backup_if_due(label)
            iteration += 1
    if pending:
        detector.ingest_block(*map(np.array, zip(*pending)))
    return SimpleNamespace(trace=trace, events=events, episodes=episodes, bank=bank,
                           env=env, detector=detector)


def bank_view(bank: PolicyBank) -> dict:
    """Every label's parameters, update count, baseline and checkpoints."""
    return {label: (e.policy.params.tobytes(), e.policy.update_count, e.policy.baseline,
                    [(c.iteration, c.params.tobytes()) for c in e.checkpoints])
            for label, e in bank._entries.items()}


RUNS = [pytest.param(case, seed, id=f"{seed}-{case}") for seed in (0, 1) for case in TINY_CASES]
RUNS += [pytest.param("desk-preset", 1, id="desk-preset-1"),
         pytest.param("deep-tree", 1, id="deep-tree-1"),
         pytest.param("loaded-bank", 2, id="desk-preset-2-loads-seed-1-bank")]


@pytest.mark.parametrize("case, seed", RUNS)
def test_run_equals_the_reference(case, seed, request):
    run = load_bank = None
    if case in TINY_CASES:
        config = tiny_case(case, seed)
    elif case == "deep-tree":  # the run whose hashes tools/output_hashes.py prints
        config = load_config(Path(__file__).parents[1] / "tools" / "configs" / "deep-tree.cfg",
                             seed=seed)
    else:
        config = load_config("desk", seed=seed)
        if case == "desk-preset":
            run = request.getfixturevalue("desk_seed_1")[0]
        else:  # seed 2 starts from the bank seed 1 saves
            load_bank = request.getfixturevalue("desk_seed_1")[1]
    if run is None:
        run = run_experiment(config, load_bank=load_bank)
    ref = reference_run(config, load_bank)
    assert run.events == ref.events
    assert list(run.trace) == ref.trace
    assert run.episodes == ref.episodes
    assert run.episodes * config.env.depth == (run.trace.probe_flag == 0).sum()
    assert bank_view(run.bank) == bank_view(ref.bank)
    assert (run.env.cursor, run.env._node, run.env._done) == (ref.env.cursor, ref.env._node,
                                                              ref.env._done)
    assert detector_view(run.detector) == detector_view(ref.detector)
    if case not in TINY_CASES:  # the desk-size runs probe stored policies
        assert run.trace.probe_flag.any()
