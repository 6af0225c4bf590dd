"""Scoring tests: label alignment against a brute-force assignment
oracle, delay measurement on hand-built traces, inclusion masks, and
the stationary false-positive probe.
"""
from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import swoks.runner
from swoks.config import AgentConfig, ExperimentConfig
from swoks.detector import DetectionEvent, DetectorConfig
from swoks.env import Curriculum, TaskSpec, TreeGraphConfig
from swoks.metrics import (
    _confusion,
    detection_delay,
    false_positive_rate,
    label_alignment_accuracy,
    optimal_label_map,
    run_included_mask,
)
from swoks.trace import Trace


def rows_from(gt: list[int], pred: list[int]) -> Trace:
    """A trace of steps t = 1..n with the given task and label columns."""
    assert len(gt) == len(pred)
    trace = Trace()
    trace.append(1, 0, np.array(gt), np.array(pred), np.zeros(len(gt)), 0, None, None)
    return trace


def brute_best_agreement(pred, gt) -> int:
    """Best step agreement over every injective label-to-task map."""
    labels, tasks = sorted(set(pred)), sorted(set(gt))
    best = 0
    if len(labels) <= len(tasks):
        for chosen in itertools.permutations(tasks, len(labels)):
            m = dict(zip(labels, chosen))
            best = max(best, sum(1 for p, g in zip(pred, gt) if m[p] == g))
    else:
        for chosen in itertools.permutations(labels, len(tasks)):
            m = dict(zip(chosen, tasks))
            best = max(best, sum(1 for p, g in zip(pred, gt) if m.get(p) == g))
    return best


class TestAlignmentAccuracy:
    def test_worked_example(self):
        pred = [1, 1, 1, 2]
        gt = [7, 7, 8, 8]
        assert label_alignment_accuracy(pred, gt) == pytest.approx(0.75)
        assert optimal_label_map(pred, gt) == {1: 7, 2: 8}

    def test_perfect_and_split_cases(self):
        assert label_alignment_accuracy([3, 1, 2], [3, 1, 2]) == 1.0
        # One label covering two equally frequent tasks scores half.
        assert label_alignment_accuracy([1, 1, 1, 1], [7, 7, 8, 8]) == 0.5

    def test_matches_bruteforce_on_random_sequences(self):
        rng = np.random.default_rng(424242)
        for _ in range(40):
            n = int(rng.integers(5, 26))
            pred = rng.integers(1, rng.integers(2, 6), size=n).tolist()
            gt = rng.integers(10, rng.integers(11, 15), size=n).tolist()
            best = brute_best_agreement(pred, gt)
            acc = label_alignment_accuracy(pred, gt)
            assert acc == pytest.approx(best / n, abs=1e-12)
            mapping = optimal_label_map(pred, gt)
            scored = sum(1 for p, g in zip(pred, gt) if mapping.get(p) == g)
            assert scored == best

    def test_invariant_under_label_renaming(self):
        rng = np.random.default_rng(7)
        pred = rng.integers(1, 4, size=30).tolist()
        gt = rng.integers(1, 4, size=30).tolist()
        base = label_alignment_accuracy(pred, gt)
        for perm in itertools.permutations([1, 2, 3]):
            renamed = [perm[p - 1] for p in pred]
            assert label_alignment_accuracy(renamed, gt) == pytest.approx(base)

    def test_assignment_is_injective(self):
        # Three labels compete for two tasks; at most two get assigned.
        pred = [1, 1, 2, 2, 3, 3]
        gt = [7, 7, 8, 8, 7, 8]
        mapping = optimal_label_map(pred, gt)
        assert len(mapping) == 2
        assert len(set(mapping.values())) == len(mapping)

    def test_include_mask_restricts_scoring(self):
        pred = [1, 1, 1, 2]
        gt = [7, 7, 8, 8]
        include = [True, True, False, False]
        assert label_alignment_accuracy(pred, gt, include) == 1.0
        assert optimal_label_map(pred, gt, [False] * 4) == {}
        with pytest.raises(ValueError):
            label_alignment_accuracy(pred, gt, [False] * 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            label_alignment_accuracy([1, 2], [1])
        with pytest.raises(ValueError):
            label_alignment_accuracy([], [])
        with pytest.raises(ValueError):
            label_alignment_accuracy([1, 2], [1, 2], include=[True])


def dict_loop_counts(pred, gt, include) -> dict[tuple[int, int], int]:
    """The per-step count that ``_confusion`` replaced."""
    counts: dict[tuple[int, int], int] = {}
    for p, g, keep in zip(pred, gt, include):
        if keep:
            counts[p, g] = counts.get((p, g), 0) + 1
    return counts


@given(st.lists(st.tuples(st.integers(-2, 4), st.integers(7, 9), st.booleans()),
                min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_confusion_matches_the_dict_loop(steps):
    pred, gt, include = zip(*steps)
    labels, tasks, counts, total = _confusion(list(pred), list(gt), list(include))
    assert labels.tolist() == sorted({p for p, _, keep in steps if keep})
    assert tasks.tolist() == sorted({g for _, g, keep in steps if keep})
    assert total == sum(include)
    got = {(int(labels[i]), int(tasks[j])): int(counts[i, j])
           for i, j in zip(*np.nonzero(counts))}
    assert got == dict_loop_counts(pred, gt, include)


class TestDetectionDelay:
    def test_answered_change(self):
        gt = [1] * 499 + [2] * 300
        pred = [1] * 739 + [2] * 60
        delays = detection_delay(rows_from(gt, pred))
        assert delays == [240.0]

    def test_same_step_answer_is_zero(self):
        gt = [1, 1, 2, 2]
        pred = [5, 5, 6, 6]
        assert detection_delay(rows_from(gt, pred)) == [0.0]

    def test_unanswered_change_is_infinite(self):
        gt = [1, 1, 2, 2]
        pred = [5, 5, 5, 5]
        assert detection_delay(rows_from(gt, pred)) == [float("inf")]

    def test_label_change_before_the_task_change_does_not_count(self):
        gt = [1, 1, 1, 2, 2]
        pred = [5, 6, 6, 6, 6]
        assert detection_delay(rows_from(gt, pred)) == [float("inf")]

    def test_multiple_changes(self):
        gt = [1] * 4 + [2] * 4 + [3] * 4
        pred = [5] * 6 + [6] * 6
        # First change at t=5 answered at t=7; second at t=9 never.
        assert detection_delay(rows_from(gt, pred)) == [2.0, float("inf")]

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            detection_delay(Trace())


def row_loop_delay(trace) -> list[float]:
    """The per-row scan that ``detection_delay`` replaced."""
    rows = list(trace)
    gt_changes = [
        rows[i].t for i in range(1, len(rows)) if rows[i].gt_task != rows[i - 1].gt_task
    ]
    pred_changes = [
        rows[i].t for i in range(1, len(rows)) if rows[i].pred_label != rows[i - 1].pred_label
    ]
    delays: list[float] = []
    for tc in gt_changes:
        answered = [tp for tp in pred_changes if tp >= tc]
        delays.append(float(answered[0] - tc) if answered else float("inf"))
    return delays


@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3)),
                min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
@example([(1, 1, 1), (1, 2, 1), (1, 2, 1)])  # never answered: inf
@example([(1, 1, 5), (1, 2, 6), (3, 2, 6)])  # answered on the same step: 0
@example([(1, 1, 5), (1, 1, 6), (1, 2, 6), (2, 3, 6), (1, 3, 7)])  # a label change just before
def test_detection_delay_matches_the_row_loop(steps):
    # Each step is (gap in t, gt_task, pred_label); t increases with gaps.
    trace, t = Trace(), 0
    for gap, gt_task, pred_label in steps:
        t += gap
        trace.append(t, 0, gt_task, pred_label, [0.0], 0, None, None)
    delays = detection_delay(trace)
    assert delays == row_loop_delay(trace)
    assert all(type(d) is float for d in delays)


def trace_of(ts, probe_flags=None) -> Trace:
    """A one-task, one-label trace with the given steps and probe flags."""
    probe_flags = probe_flags or [0] * len(ts)
    trace = Trace()
    for t, pf in zip(ts, probe_flags):
        trace.append(t, 0, 1, 1, [0.0], pf, None, None)
    return trace


def row_loop_mask(trace, events, stable_phase: int) -> list[bool]:
    """The per-row loop that ``run_included_mask`` replaced."""
    rows = list(trace)
    changes = [0] + sorted(ev.t for ev in events if ev.kind == "new-task")
    mask = []
    ci = 0
    for row in rows:
        while ci + 1 < len(changes) and changes[ci + 1] <= row.t:
            ci += 1
        in_stable = (row.t - changes[ci]) < stable_phase
        mask.append(not row.probe_flag and not in_stable)
    return mask


class TestIncludedMask:
    def test_stable_phase_excluded_after_start_and_after_mints(self):
        rows = trace_of(range(1, 11))
        events = [DetectionEvent(t=5, old_label=1, new_label=2, kind="new-task")]
        mask = run_included_mask(rows, events, stable_phase=3)
        expected = [False, False, True, True, False, False, False, True, True, True]
        assert mask.tolist() == expected

    def test_probe_steps_always_excluded(self):
        rows = trace_of(range(1, 7), [t % 2 for t in range(1, 7)])
        mask = run_included_mask(rows, [], stable_phase=0)
        assert mask.tolist() == [False, True, False, True, False, True]

    def test_readoption_does_not_restart_the_window(self):
        rows = trace_of(range(1, 11))
        base = run_included_mask(rows, [], stable_phase=3)
        events = [DetectionEvent(t=5, old_label=1, new_label=2, kind="re-detected")]
        assert run_included_mask(rows, events, stable_phase=3).tolist() == base.tolist()

    def test_zero_stable_phase_keeps_everything(self):
        rows = trace_of(range(1, 6))
        mask = run_included_mask(rows, [], stable_phase=0)
        assert mask.all()

    @pytest.mark.parametrize("event_ts", [
        [0], [12], [36], [0, 12, 36], [12, 12], [5, 24], [],
    ])
    @pytest.mark.parametrize("stable_phase", [0, 1, 5, 12, 40])
    def test_matches_the_row_loop(self, event_ts, stable_phase):
        # 36 steps, checks every 12: events at t = 0, on a boundary and
        # on the last step, with probe steps after the boundary at 24.
        flags = [1 if 25 <= t <= 28 else 0 for t in range(1, 37)]
        rows = trace_of(range(1, 37), flags)
        events = [DetectionEvent(t=t, old_label=1, new_label=2, kind="new-task")
                  for t in event_ts]
        events.append(DetectionEvent(t=24, old_label=1, new_label=3, kind="re-detected"))
        mask = run_included_mask(rows, events, stable_phase)
        assert mask.dtype == bool
        assert mask.tolist() == row_loop_mask(rows, events, stable_phase)


def tiny_stationary_config() -> ExperimentConfig:
    return ExperimentConfig(
        detector=DetectorConfig(
            history_len=10, swd_history_len=6, alpha=0.01, beta=1.1,
            stable_phase=0, n_projections=32, probe_swd_samples=6,
        ),
        env=TreeGraphConfig(depth=2, branching=2, high_reward=1.0,
                            fail_reward=-0.1, obs_dim=8, obs_noise_sigma=0.05),
        agent=AgentConfig(latent_dim=4, learning_rate=0.1, backup_freq=50),
        tasks=(TaskSpec(task_id=1, rewarded_leaf=0),),
        curriculum=Curriculum(((1, 600),)),
        master_seed=0,
    )


class TestFalsePositiveRate:
    def test_zero_runs_scores_zero(self):
        assert false_positive_rate(tiny_stationary_config(), 0, seed=1) == 0.0

    def test_negative_runs_rejected(self):
        with pytest.raises(ValueError):
            false_positive_rate(tiny_stationary_config(), -1, seed=1)

    def test_stationary_runs_stay_quiet(self):
        assert false_positive_rate(tiny_stationary_config(), 3, seed=99) == 0.0

    def test_multi_task_curriculum_rejected_before_any_run(self, monkeypatch):
        def no_run(config):
            raise AssertionError("a run started")

        monkeypatch.setattr(swoks.runner, "run_experiment", no_run)
        cfg = replace(tiny_stationary_config(),
                      tasks=(TaskSpec(task_id=1, rewarded_leaf=0), TaskSpec(task_id=2, rewarded_leaf=3)),
                      curriculum=Curriculum(((1, 300), (2, 300), (1, 300))))
        with pytest.raises(ValueError, match="single-task"):
            false_positive_rate(cfg, 3, seed=1)
        # A task repeated over several segments is still one task.
        repeated = replace(tiny_stationary_config(), curriculum=Curriculum(((1, 300), (1, 300))))
        with pytest.raises(AssertionError, match="a run started"):
            false_positive_rate(repeated, 1, seed=1)
