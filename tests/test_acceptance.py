"""Acceptance suite: ten checks covering the transport oracle, the
shift statistics, the end-to-end desk experiment, probing/rollback, and
run determinism. Each test records one verdict line that the terminal
summary echoes after the run.
"""
from __future__ import annotations

import json
import time
from dataclasses import replace

import numpy as np

from conftest import greedy_action, record_acceptance, record_episode
from oracles import (
    episode_gradient,
    episode_log_prob,
    ks_critical,
    sliced_wasserstein,
    wasserstein_1d,
    wasserstein_exact,
)

from swoks.agent import Policy, PolicyBank
from swoks.cli import main as cli_main
from swoks.config import load_config
from swoks.detector import DetectorConfig
from swoks.metrics import (
    label_alignment_accuracy,
    optimal_label_map,
    run_included_mask,
)
from swoks.ot import sample_unit_directions
from swoks.runner import detect_offline, run_experiment
from swoks.stats import detect_shift, ks_pvalue
from swoks.stream import StreamBlock, write_stream


def verdict(tag: str, ok: bool, detail: str) -> bool:
    record_acceptance(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_a1_sorting_transport_matches_exact_matching():
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 8))
        scale = float(rng.uniform(0.5, 5.0))
        x = rng.normal(0.0, scale, size=n)
        y = rng.normal(rng.uniform(-2, 2), scale, size=n)
        worst = max(worst, abs(wasserstein_1d(x, y) - wasserstein_exact(x, y)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 5.0
    assert verdict(
        "A1", ok,
        f"max |sorted - exact| = {worst:.3e} over 200 pairs (n=2..7) in {elapsed:.2f}s",
    )


def test_a2_monte_carlo_sliced_distance_matches_quadrature():
    rng = np.random.default_rng(2024)
    d1 = rng.normal(0.0, 1.0, size=(64, 2))
    d2 = rng.normal(0.7, 1.3, size=(64, 2))
    started = time.perf_counter()
    mc = sliced_wasserstein(d1, d2, sample_unit_directions(2, 500, seed=12))
    angles = np.pi * np.arange(1000) / 1000
    quad = float(np.mean([
        wasserstein_1d(d1 @ np.array([np.cos(a), np.sin(a)]),
                       d2 @ np.array([np.cos(a), np.sin(a)]))
        for a in angles
    ]))
    elapsed = time.perf_counter() - started
    rel = abs(mc - quad) / quad
    ok = rel <= 0.02 and elapsed < 10.0
    assert verdict(
        "A2", ok,
        f"500 directions vs 1000-angle quadrature: relative error {rel:.4%} in {elapsed:.2f}s",
    )


def test_a3_critical_value_at_reference_sizes():
    value = ks_critical(125, 125, 0.001)
    ok = abs(value - 0.24659) <= 1e-4
    assert verdict("A3", ok, f"ks_critical(125, 125, 0.001) = {value:.6f} (want 0.24659 +/- 1e-4)")


def test_a4_pvalue_inverts_critical_value():
    worst = 0.0
    for n in (10, 125, 1000):
        for alpha in (0.05, 0.01, 0.001):
            p = ks_pvalue(ks_critical(n, n, alpha), n, n)
            worst = max(worst, abs(p - alpha / 2))
    ok = worst <= 1e-9
    assert verdict(
        "A4", ok,
        f"max |ks_pvalue(ks_critical(n,n,a),n,n) - a/2| = {worst:.3e} over 9 settings",
    )


def test_a5_null_rejection_rate_is_calibrated():
    started = time.perf_counter()
    rng = np.random.default_rng(20240814)
    rejections = 0
    trials = 1000
    for _ in range(trials):
        a = rng.gamma(2.0, size=125)
        b = rng.gamma(2.0, size=125)
        if detect_shift(a, b, beta=1.0).p_value < 0.001:
            rejections += 1
    elapsed = time.perf_counter() - started
    rate = rejections / trials
    ok = rate <= 0.005 and elapsed < 60.0
    assert verdict(
        "A5", ok,
        f"null rejection rate {rate:.4f} over {trials} i.i.d. trials (n=125) in {elapsed:.1f}s",
    )


def greedy_return(result, label: int, task_id: int) -> float:
    policy = result.bank.get_or_create(label)
    env = result.env
    env.set_task(task_id)
    obs = env.reset()
    total, done = 0.0, False
    while not done:
        obs, reward, done = env.step(greedy_action(policy, result.encoder.encode(obs)))
        total += reward
    return total


def test_a6_desk_experiment_recovers_the_four_tasks():
    started = time.perf_counter()
    base = load_config("desk")
    seeds = [1, 2, 3, 4, 5]
    label_counts: dict[int, int] = {}
    accuracies: dict[int, float] = {}
    greedy_ok: dict[int, bool] = {}
    for seed in seeds:
        result = run_experiment(replace(base, master_seed=seed))
        label_counts[seed] = result.final_label_count
        mask = run_included_mask(result.trace, result.events,
                                 base.detector.stable_phase)
        pred = [r.pred_label for r in result.trace]
        gt = [r.gt_task for r in result.trace]
        accuracies[seed] = label_alignment_accuracy(pred, gt, include=mask)
        mapping = optimal_label_map(pred, gt, include=mask)
        greedy_ok[seed] = all(
            greedy_return(result, label, task) == 1.0
            for label, task in mapping.items()
        )
    elapsed = time.perf_counter() - started
    recovered = [s for s in seeds if label_counts[s] == 4]
    ok_labels = len(recovered) >= 3
    ok_acc = all(accuracies[s] >= 0.8 for s in recovered)
    ok_greedy = all(greedy_ok[s] for s in recovered)
    ok = ok_labels and ok_acc and ok_greedy and elapsed < 600.0
    acc_txt = ", ".join(f"s{s}={accuracies[s]:.3f}" for s in seeds)
    assert verdict(
        "A6", ok,
        f"4 labels in {len(recovered)}/5 seeds; accuracy [{acc_txt}]; "
        f"greedy reward 1.0 on aligned tasks: {ok_greedy}; {elapsed:.0f}s total",
    )


def test_a7_reference_scaling_is_monotone_on_a_recorded_stream(tmp_path):
    rng = np.random.default_rng(5)
    segments = [(0.0, 1.0), (3.0, -1.0), (4.25, -1.0), (5.5, -1.0)]
    rows, t = [], 0  # t, gt_task, reward, action, phi; the action drawn before phi
    for task, (mean, reward) in enumerate(segments, start=1):
        for _ in range(600):
            t += 1
            rows.append((t, task, reward, int(rng.integers(0, 2)),
                         rng.normal(mean, 1.0, size=3)))
    path = tmp_path / "recorded.csv"
    write_stream(path, StreamBlock(*map(np.array, zip(*rows))))
    counts = {}
    for beta in (1.0, 1.1, 1.4):
        cfg = DetectorConfig(history_len=10, swd_history_len=6, alpha=0.01,
                             beta=beta, stable_phase=0, n_projections=32,
                             master_seed=5)
        events, _ = detect_offline(path, cfg)
        counts[beta] = sum(1 for e in events if e.kind == "new-task")
    ok = counts[1.0] >= counts[1.1] >= counts[1.4] and counts[1.4] < counts[1.0]
    assert verdict(
        "A7", ok,
        f"new-task events by beta on one recorded stream: "
        f"1.0 -> {counts[1.0]}, 1.1 -> {counts[1.1]}, 1.4 -> {counts[1.4]}",
    )


def test_a8_rollback_restores_the_older_checkpoint():
    rng = np.random.default_rng(8)
    episodes = [
        [
            (rng.normal(size=3), int(rng.integers(2)), float(rng.normal()))
            for _ in range(int(rng.integers(1, 4)))
        ]
        for _ in range(130)
    ]
    bank = PolicyBank(n_actions=2, latent_dim=3, learning_rate=0.1, backup_freq=50)
    live = bank.get_or_create(1)
    twin = Policy(n_actions=2, latent_dim=3, learning_rate=0.1)
    for i, episode in enumerate(episodes):
        live.update(record_episode(live, episode))
        bank.backup_if_due(1)
        if i < 50:
            twin.update(record_episode(twin, episode))
    saved = bank.checkpoint_iterations(1)
    bank.rollback(1)
    restored = bank.get_or_create(1)
    ok = (
        saved == [50, 100]
        and restored.update_count == 50
        and np.array_equal(restored.params, twin.params)
    )
    assert verdict(
        "A8", ok,
        f"checkpoints at {saved}, detection at 130 restored iteration "
        f"{restored.update_count} exactly",
    )


def test_a9_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(123)
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        params = rng.normal(size=(3, 5)) * 0.5
        episode = [
            (rng.normal(size=4), int(rng.integers(3)), float(rng.normal()))
            for _ in range(int(rng.integers(1, 4)))
        ]
        analytic = episode_gradient(params, episode)
        numeric = np.zeros_like(params)
        for i in range(params.shape[0]):
            for j in range(params.shape[1]):
                up, down = params.copy(), params.copy()
                up[i, j] += h
                down[i, j] -= h
                numeric[i, j] = (
                    episode_log_prob(up, episode) - episode_log_prob(down, episode)
                ) / (2 * h)
        denom = max(np.linalg.norm(numeric), 1e-12)
        worst = max(worst, np.linalg.norm(analytic - numeric) / denom)
    ok = worst <= 1e-4
    assert verdict(
        "A9", ok,
        f"max relative gradient error {worst:.3e} over 50 random episodes",
    )


RUN_CFG = """
[experiment]
master_seed = 3

[detector]
history_length = 10
swd_history_length = 6
significance_threshold = 0.01
ks_adjustment = 1.1
stable_phase_duration = 0
n_projections = 32
probe_swd_samples = 8

[env]
observation_dim = 8

[agent]
latent_dim = 4
learning_rate = 0.1

[tasks]
rewarded_leaves = 0,3

[curriculum]
order = 1,2,1
segment_steps = 900
"""


def test_a10_runs_are_byte_identical(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(RUN_CFG)
    dirs = [tmp_path / "first", tmp_path / "second"]
    for out in dirs:
        code = cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
    trace_same = (dirs[0] / "trace.csv").read_bytes() == (dirs[1] / "trace.csv").read_bytes()
    events_same = (dirs[0] / "events.json").read_bytes() == (dirs[1] / "events.json").read_bytes()
    n_events = len(json.loads((dirs[0] / "events.json").read_text()))
    ok = trace_same and events_same
    assert verdict(
        "A10", ok,
        f"two cli runs, same config and seed: trace.csv identical = {trace_same}, "
        f"events.json identical = {events_same} ({n_events} events)",
    )
