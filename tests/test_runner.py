"""End-to-end loop tests on a miniature two-task curriculum, plus the
offline replay and beta sweep entry points.

The mirror curriculum (task 1, task 2, task 1 again) exercises the full
story in under a second: mint on the first change, probe and re-adopt
on the return, rollback of the departing policy.
"""
from __future__ import annotations

import gc
import json
import weakref
from dataclasses import replace

import numpy as np
import pytest

from swoks.agent import Policy, _episode_features, _episode_probs, _gradient, episode_gradient
from swoks.config import AgentConfig, ExperimentConfig
from swoks.detector import (
    EVENT_NEW_TASK,
    EVENT_RE_DETECTED,
    EVENT_SUPPRESSED,
    Detector,
    DetectorConfig,
)
from swoks.env import Curriculum, TaskSpec, TreeGraphConfig
from swoks.metrics import sweep_beta
from swoks.runner import detect_offline, run_experiment
from swoks.stream import StreamBlock, read_stream_blocks, write_stream
from swoks.trace import read_trace

LD, LW, PROBE = 10, 6, 8


def tiny_config(segments, seed=3, **det_overrides) -> ExperimentConfig:
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


MIRROR = ((1, 900), (2, 900), (1, 900))


@pytest.fixture(scope="module")
def mirror_run():
    return run_experiment(tiny_config(MIRROR))


def expected_labels(events, n: int) -> list[int]:
    """Label each step should carry given the event log."""
    labels = np.ones(n, dtype=int)
    for ev in events:
        if ev.new_label != ev.old_label:
            labels[ev.t:] = ev.new_label  # new label from step ev.t + 1 on
    return labels.tolist()


class TestMirrorCurriculum:
    def test_change_mint_then_readopt(self, mirror_run):
        kinds = [(e.kind, e.old_label, e.new_label) for e in mirror_run.events]
        assert kinds == [
            (EVENT_NEW_TASK, 1, 2),
            (EVENT_RE_DETECTED, 2, 1),
        ]
        assert mirror_run.final_label_count == 2
        assert mirror_run.detector.current_label.id == 1
        mint, readopt = mirror_run.events
        assert 900 < mint.t <= 900 + 2 * LD * LW
        assert 1800 < readopt.t <= 1800 + 2 * LD * LW + PROBE * LD
        assert readopt.probed_pvalues[1] >= 0.01

    def test_trace_steps_are_contiguous(self, mirror_run):
        ts = [r.t for r in mirror_run.trace]
        assert ts == list(range(1, mirror_run.detector.t + 1))
        # Probe steps consume curriculum time, so the run still ends on
        # schedule (up to finishing the last episode).
        total = mirror_run.config.curriculum.total_steps
        assert total <= mirror_run.detector.t < total + 2

    def test_probe_steps_are_flagged_and_attributed_to_the_old_label(self, mirror_run):
        probe_rows = [r for r in mirror_run.trace if r.probe_flag]
        assert len(probe_rows) == PROBE * LD
        readopt = mirror_run.events[1]
        assert [r.t for r in probe_rows] == list(
            range(readopt.t - PROBE * LD + 1, readopt.t + 1)
        )
        assert all(r.pred_label == readopt.old_label for r in probe_rows)

    def test_trace_labels_consistent_with_event_log(self, mirror_run):
        want = expected_labels(mirror_run.events, len(mirror_run.trace))
        assert [r.pred_label for r in mirror_run.trace] == want

    def test_event_kinds_land_on_the_triggering_rows(self, mirror_run):
        marked = [r for r in mirror_run.trace if r.event]
        assert [r.event for r in marked] == [EVENT_NEW_TASK, EVENT_RE_DETECTED]
        mint, readopt = mirror_run.events
        # The mint settles on its own row; the re-adoption settles only
        # after the probe block that follows its row.
        assert marked[0].t == mint.t
        assert marked[1].t == readopt.t - PROBE * LD
        assert not marked[1].probe_flag

    def test_ground_truth_column_follows_the_curriculum(self, mirror_run):
        cur = mirror_run.config.curriculum
        assert all(r.gt_task == cur.task_at(r.t) for r in mirror_run.trace)

    def test_rewards_come_from_the_environment_scale(self, mirror_run):
        # Internal tree nodes pay nothing; leaves pay high or fail.
        assert set(r.reward for r in mirror_run.trace) == {0.0, 1.0, -0.1}

    def test_iteration_counter_is_nondecreasing_from_zero(self, mirror_run):
        live = [r for r in mirror_run.trace if not r.probe_flag]
        assert live[0].iteration == 0
        diffs = np.diff([r.iteration for r in live])
        assert (diffs >= 0).all() and diffs.max() == 1

    def test_shift_check_columns_fill_once_armed(self, mirror_run):
        rows = list(mirror_run.trace)
        assert all(r.swd is None for r in rows[: LD * (LW + 1) - 1])
        armed = rows[LD * (LW + 1) - 1]
        assert armed.swd is not None and armed.p_value is None

    def test_policy_bank_covers_both_labels(self, mirror_run):
        assert mirror_run.bank.labels() == [1, 2]


class TestRecordedProbabilities:
    def test_live_updates_after_probe_and_abort_equal_the_recomputation(self, monkeypatch):
        # The mirror run's return to task 1 probes label 1 with its stored
        # policy, aborts the live episode and re-adopts label 1. Every
        # update, including label 1's first after the probe, must reuse
        # exactly the probabilities a recomputation gives.
        original_update = Policy.update
        original_redetect = Detector.redetect
        seen = {"updates": 0, "re_detected": 0, "after_probe": 0}

        def redetect(detector):
            event = original_redetect(detector)
            if event.kind == EVENT_RE_DETECTED:
                seen["re_detected"] += 1
            return event

        def update(policy, episode, probs=None):
            episode = list(episode)
            assert probs is not None and len(probs) == len(episode)
            _, _, fresh = _episode_probs(policy.params, episode)
            assert np.array(probs).tobytes() == fresh.tobytes()
            x, actions = _episode_features(episode, policy.params.shape[1])
            assert (_gradient(x, actions, probs).tobytes()
                    == episode_gradient(policy.params, episode).tobytes())
            twin = policy.clone()
            original_update(twin, episode)
            original_update(policy, episode, probs)
            assert policy.params.tobytes() == twin.params.tobytes()
            seen["updates"] += 1
            seen["after_probe"] += seen["re_detected"] > 0

        monkeypatch.setattr(Policy, "update", update)
        monkeypatch.setattr(Detector, "redetect", redetect)
        result = run_experiment(tiny_config(MIRROR))
        assert [e.kind for e in result.events] == [EVENT_NEW_TASK, EVENT_RE_DETECTED]
        assert any(row.probe_flag for row in result.trace)
        assert seen["re_detected"] == 1 and 0 < seen["after_probe"] < seen["updates"]


class TestLifetime:
    def test_finished_run_is_freed_without_a_collection(self):
        gc.disable()
        try:
            result = run_experiment(tiny_config(MIRROR))
            assert any(row.probe_flag for row in result.trace)  # the probe source ran
            detector = weakref.ref(result.detector)
            del result
            assert detector() is None
        finally:
            gc.enable()


class TestArtifacts:
    def test_events_json_schema(self, tmp_path):
        res = run_experiment(tiny_config(MIRROR), out_dir=tmp_path)
        payload = json.loads((tmp_path / "events.json").read_text())
        assert len(payload) == len(res.events)
        for entry, ev in zip(payload, res.events):
            assert entry["t"] == ev.t
            assert entry["kind"] == ev.kind
            assert entry["old_label"] == ev.old_label
            assert entry["new_label"] == ev.new_label
            assert entry["probed_pvalues"] == {
                str(k): v for k, v in ev.probed_pvalues.items()
            }

    def test_same_seed_gives_byte_identical_outputs(self, tmp_path):
        cfg = tiny_config(MIRROR)
        res = run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        for name in ("trace.csv", "events.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert read_trace(tmp_path / "a" / "trace.csv") == res.trace

    def test_different_seeds_differ(self, tmp_path):
        run_experiment(tiny_config(((1, 400),), seed=3), out_dir=tmp_path / "a")
        run_experiment(tiny_config(((1, 400),), seed=4), out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "trace.csv").read_bytes() != (tmp_path / "b" / "trace.csv").read_bytes()

    def test_bank_save_and_load_between_runs(self, tmp_path):
        bank_path = tmp_path / "bank.txt"
        run_experiment(tiny_config(MIRROR), save_bank=bank_path)
        res = run_experiment(tiny_config(((1, 200),)), load_bank=bank_path)
        assert set(res.bank.labels()) >= {1, 2}


def synth_stream(n: int, change_at: int | None, seed: int) -> StreamBlock:
    rng = np.random.default_rng(seed)
    rows = []  # t, gt_task, reward, action, phi; the action drawn before phi
    for i in range(n):
        shifted = change_at is not None and i >= change_at
        rows.append((i + 1, 2 if shifted else 1, -1.0 if shifted else 1.0,
                     int(rng.integers(0, 2)), rng.normal(3.0 if shifted else 0.0, 1.0, size=3)))
    return StreamBlock(*map(np.array, zip(*rows)))


class TestOfflineReplay:
    def det_config(self):
        return DetectorConfig(history_len=LD, swd_history_len=LW, alpha=0.01,
                              beta=1.1, stable_phase=0, n_projections=32,
                              master_seed=5)

    def test_stationary_stream_is_quiet(self, tmp_path):
        path = tmp_path / "flat.csv"
        write_stream(path, synth_stream(600, None, seed=11))
        events, detector = detect_offline(path, self.det_config())
        assert events == []
        assert detector.offline
        assert detector.t == 600

    def test_recorded_change_is_found_without_probes(self, tmp_path):
        path = tmp_path / "shift.csv"
        write_stream(path, synth_stream(600, 300, seed=11))
        events, detector = detect_offline(path, self.det_config())
        assert len(events) == 1
        ev = events[0]
        assert ev.kind == EVENT_NEW_TASK
        assert (ev.old_label, ev.new_label) == (1, 2)
        assert ev.probed_pvalues == {}
        assert 300 < ev.t <= 300 + 2 * LD * LW

    def test_missing_stream_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            detect_offline(tmp_path / "nope.csv", self.det_config())

    def test_block_replay_equals_step_by_step_ingest(self, tmp_path):
        # 9437 rows: more than two read blocks, and a multiple of neither
        # the block length nor history_len. The second change falls inside
        # the stable phase of the first; the third lands mid-block.
        rng = np.random.default_rng(3)
        changes = [1500, 1900, 4100, 6000, 7900]
        means = [0.0, 3.0, -3.0, 6.0, 0.5, 3.5]
        rows = []  # t, gt_task, reward, action, phi; the action drawn before phi
        for i in range(9437):
            seg = sum(1 for c in changes if i >= c)
            m = means[seg]
            rows.append((i + 1, seg + 1, m / 3, int(rng.integers(0, 2)),
                         rng.normal(m, 1.0, size=3)))
        path = tmp_path / "changes.csv"
        write_stream(path, StreamBlock(*map(np.array, zip(*rows))))
        cfg = replace(self.det_config(), stable_phase=1000)

        stepwise = Detector(cfg)
        step_events = []
        for block in read_stream_blocks(path):
            for phi, action, reward in zip(block.phi, block.action, block.reward):
                event = stepwise.ingest(phi, action, reward)
                if event is not None:
                    step_events.append(event)
        events, detector = detect_offline(path, cfg)

        kinds = [e.kind for e in step_events]
        assert kinds.count(EVENT_SUPPRESSED) >= 1 and kinds.count(EVENT_NEW_TASK) >= 3
        assert any(e.t > 4096 and e.kind == EVENT_NEW_TASK for e in step_events)
        assert events == step_events
        assert detector.t == stepwise.t == 9437
        assert detector.last_swd == stepwise.last_swd
        assert detector.last_p_value == stepwise.last_p_value
        assert detector.labels == stepwise.labels
        for label in detector.labels:
            assert np.array_equal(detector.label_state(label.id).history.values(),
                                  stepwise.label_state(label.id).history.values())


class TestBetaSweep:
    def test_summary_rows(self):
        rows = sweep_beta(tiny_config(MIRROR), [1.1])
        assert len(rows) == 1
        row = rows[0]
        assert row["beta"] == 1.1
        assert row["new_task_events"] == 1
        assert row["re_detected_events"] == 1
        assert row["final_labels"] == 2
        assert 0.9 <= row["accuracy"] <= 1.0

    def test_empty_beta_list_rejected(self):
        with pytest.raises(ValueError):
            sweep_beta(tiny_config(MIRROR), [])
