"""Scenario tests for the streaming shift detector.

Synthetic tuple streams with known change points drive the detector end
to end, and scripted probe sources steer the re-identification branch
down each of its paths: accept, reject, skip, and source failure.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swoks.detector import (
    EVENT_NEW_TASK,
    EVENT_PROBE_ERROR,
    EVENT_RE_DETECTED,
    EVENT_SUPPRESSED,
    Detector,
    DetectorConfig,
    TaskLabel,
)
from swoks.ot import sample_unit_directions, sliced_wasserstein
from swoks.seeding import child_seed

LD = 10                      # points per comparison set
LW = 6                       # distance values per history half
WIDTH = 5                    # 3 latent dims + action + scaled reward
CAPACITY = LD * (LW + 1)     # rows a label buffer holds when full
FIRST_TEST = 3 * LD * LW     # earliest step with a full distance history
ALPHA = 0.01


def make_config(**overrides) -> DetectorConfig:
    params = dict(
        history_len=LD,
        swd_history_len=LW,
        alpha=ALPHA,
        beta=1.1,
        stable_phase=0,
        n_projections=32,
        probe_swd_samples=8,
        master_seed=5,
    )
    params.update(overrides)
    return DetectorConfig(**params)


def regime(rng: np.random.Generator, mean: float, reward: float):
    """Endless (phi, action, reward) tuples from one stationary regime."""
    while True:
        yield rng.normal(mean, 1.0, size=3), int(rng.integers(0, 2)), reward


def limited_regime(rng: np.random.Generator, mean: float, reward: float, n: int):
    def gen():
        for _ in range(n):
            yield rng.normal(mean, 1.0, size=3), int(rng.integers(0, 2)), reward

    return gen()


class ScriptedProbe:
    """Probe source replaying a scripted generator per label.

    Records the order of deploy calls so tests can assert which
    candidates were tried.
    """

    def __init__(self, scripts):
        self.scripts = scripts
        self.deploy_calls: list[int] = []

    def deploy(self, label: int):
        self.deploy_calls.append(label)
        return self.scripts[label]()


def drive(det: Detector, source, steps: int):
    """Feed ``steps`` tuples; return (event, t_before_ingest) pairs."""
    out = []
    for _ in range(steps):
        before = det.t
        ev = det.ingest(*next(source))
        if ev is not None:
            out.append((ev, before))
    return out


def drive_until(det: Detector, source, limit: int):
    """Feed until the first event; fail the test if none fires."""
    for _ in range(limit):
        before = det.t
        ev = det.ingest(*next(source))
        if ev is not None:
            return ev, before
    raise AssertionError(f"no event within {limit} steps")


def arm_second_label(det: Detector, rng: np.random.Generator):
    """Regime A until armed, then regime B until label 2 exists and is armed."""
    assert drive(det, regime(rng, 0.0, 1.0), 300) == []
    ev, _ = drive_until(det, regime(rng, 3.0, -1.0), 200)
    assert ev.kind == EVENT_NEW_TASK and ev.new_label == 2
    assert drive(det, regime(rng, 3.0, -1.0), 220) == []
    return ev


class TestConfigValidation:
    def test_probe_sample_count_defaults_to_capped_half_length(self):
        assert make_config(probe_swd_samples=None).resolved_probe_samples == LW
        big = make_config(probe_swd_samples=None, swd_history_len=80)
        assert big.resolved_probe_samples == 25
        assert make_config(probe_swd_samples=7).resolved_probe_samples == 7

    @pytest.mark.parametrize(
        "bad",
        [
            dict(history_len=1),
            dict(swd_history_len=1),
            dict(alpha=0.0),
            dict(alpha=1.0),
            dict(beta=0.99),
            dict(stable_phase=-1),
            dict(n_projections=0),
            dict(probe_swd_samples=0),
        ],
    )
    def test_rejects_out_of_range_parameters(self, bad):
        with pytest.raises(ValueError):
            make_config(**bad)


class TestCadence:
    def test_first_distance_at_buffer_capacity(self):
        det = Detector(make_config())
        src = regime(np.random.default_rng(0), 0.0, 1.0)
        for t in range(1, CAPACITY):
            det.ingest(*next(src))
            assert det.last_swd is None
        det.ingest(*next(src))
        assert det.t == CAPACITY
        assert det.last_swd is not None and det.last_swd >= 0.0

    def test_first_shift_test_needs_full_history(self):
        det = Detector(make_config())
        src = regime(np.random.default_rng(1), 0.0, 1.0)
        for _ in range(FIRST_TEST - 1):
            det.ingest(*next(src))
            assert det.last_p_value is None
        det.ingest(*next(src))
        assert det.t == FIRST_TEST
        assert det.last_p_value is not None

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_stationary_stream_stays_on_one_label(self, seed):
        det = Detector(make_config(master_seed=seed))
        rng = np.random.default_rng(100 + seed)
        assert drive(det, regime(rng, 0.0, 1.0), 600) == []
        assert [lab.id for lab in det.labels] == [1]
        assert det.current_label.id == 1

    def test_datapoint_width_fixed_by_first_step(self):
        det = Detector(make_config())
        det.ingest(np.zeros(3), 0, 1.0)
        with pytest.raises(ValueError):
            det.ingest(np.zeros(4), 0, 1.0)

    def test_redetect_before_any_data_raises(self):
        with pytest.raises(RuntimeError):
            Detector(make_config()).redetect()

    def test_offline_flag_reflects_probe_presence(self):
        assert Detector(make_config()).offline
        probe = ScriptedProbe({})
        assert not Detector(make_config(), probe).offline


class TestOfflineDetection:
    """Without a probe source every accepted detection mints a label."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_change_is_minted_within_delay_bound(self, seed):
        det = Detector(make_config(master_seed=seed))
        rng = np.random.default_rng(200 + seed)
        assert drive(det, regime(rng, 0.0, 1.0), 300) == []
        ev, _ = drive_until(det, regime(rng, 3.0, -1.0), 2 * LD * LW)
        assert ev.kind == EVENT_NEW_TASK
        assert (ev.old_label, ev.new_label) == (1, 2)
        assert ev.probed_pvalues == {}
        # Offline there are no probe steps, so events land on test steps.
        assert ev.t % LD == 0
        assert 0 < ev.t - 300 <= 2 * LD * LW
        assert [lab.id for lab in det.labels] == [1, 2]
        assert det.labels[0].created_at == 0
        assert det.labels[1].created_at == ev.t
        assert det.current_label.id == 2

    def test_departing_label_keeps_a_frozen_reference(self):
        det = Detector(make_config())
        rng = np.random.default_rng(200)
        drive(det, regime(rng, 0.0, 1.0), 300)
        drive_until(det, regime(rng, 3.0, -1.0), 200)
        departed = det.label_state(1)
        assert departed.ref_window is not None
        assert departed.ref_window.shape == (LD, WIDTH)
        assert departed.ref_swd is not None
        assert departed.ref_swd.shape == (LW,)
        # Live buffers were handed over: old label empties, new starts fresh.
        assert len(departed.window) == 0
        assert len(departed.history) == LW
        assert len(det.label_state(2).window) == 0

    def test_second_change_mints_a_third_label(self):
        det = Detector(make_config())
        rng = np.random.default_rng(200)
        arm_second_label(det, rng)
        ev, _ = drive_until(det, regime(rng, 0.0, 1.0), 200)
        assert ev.kind == EVENT_NEW_TASK
        assert (ev.old_label, ev.new_label) == (2, 3)
        assert ev.probed_pvalues == {}
        assert [lab.id for lab in det.labels] == [1, 2, 3]


class TestSuppression:
    def test_changes_inside_stable_phase_only_report(self):
        det = Detector(make_config(stable_phase=10**6))
        rng = np.random.default_rng(200)
        assert drive(det, regime(rng, 0.0, 1.0), 300) == []
        pairs = drive(det, regime(rng, 3.0, -1.0), 200)
        # A second change keeps being suppressed, not relabeled.
        pairs += drive(det, regime(rng, -3.0, 2.0), 200)
        assert len(pairs) >= 2
        for ev, _ in pairs:
            assert ev.kind == EVENT_SUPPRESSED
            assert ev.old_label == ev.new_label == 1
        assert [lab.id for lab in det.labels] == [1]
        assert det.current_label.id == 1
        assert det.last_z_change == 0


class TestProbeReidentification:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matching_probe_reaccepts_departed_label(self, seed):
        probe_rng = np.random.default_rng(900 + seed)
        probe = ScriptedProbe({1: lambda: regime(probe_rng, 0.0, 1.0)})
        det = Detector(make_config(master_seed=seed), probe)
        rng = np.random.default_rng(300 + seed)
        arm_second_label(det, rng)
        ev, before = drive_until(det, regime(rng, 0.0, 1.0), 200)
        assert ev.kind == EVENT_RE_DETECTED
        assert (ev.old_label, ev.new_label) == (2, 1)
        assert probe.deploy_calls == [1]
        assert ev.probed_pvalues[1] >= ALPHA
        # Settled after the probe ran: one live step plus the probe block.
        assert ev.t - before == 1 + 8 * LD
        assert ev.t == det.t
        assert det.current_label.id == 1
        assert [lab.id for lab in det.labels] == [1, 2]
        # Probe data re-seeds the accepted label; the departed one froze.
        assert det.label_state(1).window.is_full
        assert det.label_state(2).ref_window is not None
        # Back on the matching regime the detector stays put.
        assert drive(det, regime(rng, 0.0, 1.0), 200) == []

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rejecting_every_probe_mints_a_label(self, seed):
        probe_rng = np.random.default_rng(900 + seed)
        probe = ScriptedProbe({1: lambda: regime(probe_rng, -6.0, 8.0)})
        det = Detector(make_config(master_seed=seed), probe)
        rng = np.random.default_rng(300 + seed)
        arm_second_label(det, rng)
        ev, _ = drive_until(det, regime(rng, 0.0, 1.0), 200)
        assert ev.kind == EVENT_NEW_TASK
        assert (ev.old_label, ev.new_label) == (2, 3)
        assert ev.probed_pvalues[1] is not None
        assert ev.probed_pvalues[1] < ALPHA
        assert det.current_label.id == 3
        assert [lab.id for lab in det.labels] == [1, 2, 3]
        assert det.last_z_change == ev.t

    @pytest.mark.parametrize("seed", [0, 1])
    def test_candidates_probed_ascending_first_accept_wins(self, seed):
        probe_rng = np.random.default_rng(900 + seed)
        probe = ScriptedProbe({
            1: lambda: regime(probe_rng, -6.0, 8.0),   # never matches
            2: lambda: regime(probe_rng, 3.0, -1.0),   # matches label 2's past
        })
        det = Detector(make_config(master_seed=seed), probe)
        rng = np.random.default_rng(300 + seed)
        arm_second_label(det, rng)
        ev2, _ = drive_until(det, regime(rng, -3.0, 2.0), 200)
        assert ev2.kind == EVENT_NEW_TASK and ev2.new_label == 3
        assert drive(det, regime(rng, -3.0, 2.0), 220) == []
        ev3, _ = drive_until(det, regime(rng, 0.0, 1.0), 200)
        assert ev3.kind == EVENT_RE_DETECTED
        assert (ev3.old_label, ev3.new_label) == (3, 2)
        assert probe.deploy_calls == [1, 1, 2]
        assert ev3.probed_pvalues[1] < ALPHA <= ev3.probed_pvalues[2]

    def test_label_without_reference_skipped_without_deploy(self):
        seed = 2
        probe_rng = np.random.default_rng(900 + seed)
        probe = ScriptedProbe({1: lambda: regime(probe_rng, 0.0, 1.0)})
        det = Detector(make_config(master_seed=seed), probe)
        rng = np.random.default_rng(300 + seed)
        arm_second_label(det, rng)
        # A label that never accumulated a reference cannot be probed.
        det._labels[0] = TaskLabel(id=0, created_at=0)
        ev, _ = drive_until(det, regime(rng, 0.0, 1.0), 200)
        assert ev.kind == EVENT_RE_DETECTED
        assert ev.probed_pvalues[0] is None
        assert ev.probed_pvalues[1] >= ALPHA
        assert probe.deploy_calls == [1]

    def test_exhausted_probe_source_reports_an_error(self):
        seed = 1
        probe_rng = np.random.default_rng(900 + seed)
        probe = ScriptedProbe({1: lambda: limited_regime(probe_rng, 0.0, 1.0, 30)})
        det = Detector(make_config(master_seed=seed), probe)
        rng = np.random.default_rng(300 + seed)
        arm_second_label(det, rng)
        ev, before = drive_until(det, regime(rng, 0.0, 1.0), 200)
        assert ev.kind == EVENT_PROBE_ERROR
        assert ev.old_label == ev.new_label == 2
        assert ev.probed_pvalues == {1: None}
        # One live step plus the 30 tuples consumed before the source died.
        assert ev.t - before == 1 + 30
        # The live buffer is untouched so streaming can continue.
        assert det.current_label.id == 2
        assert det.label_state(2).window.is_full
        assert [lab.id for lab in det.labels] == [1, 2]

    def test_replay_with_same_seeds_is_identical(self):
        def run():
            probe_rng = np.random.default_rng(901)
            probe = ScriptedProbe({1: lambda: regime(probe_rng, 0.0, 1.0)})
            det = Detector(make_config(master_seed=1), probe)
            rng = np.random.default_rng(301)
            events = [arm_second_label(det, rng)]
            ev, _ = drive_until(det, regime(rng, 0.0, 1.0), 200)
            events.append(ev)
            return [
                (e.t, e.old_label, e.new_label, e.kind, sorted(e.probed_pvalues.items()))
                for e in events
            ]

        assert run() == run()


class FreshDistanceDetector(Detector):
    """Checks each distance, taken from cached sorted sets, against a fresh computation."""

    verified = 0

    def ingest(self, phi, action, reward):
        event = super().ingest(phi, action, reward)
        window = self.label_state(self.current_label.id).window
        if event is None and self.t % self.config.history_len == 0 and window.is_full:
            dirs = sample_unit_directions(
                window.width, self.config.n_projections,
                seed=child_seed(self.config.master_seed, "projections"))
            assert self.last_swd == sliced_wasserstein(
                window.recent_set(), window.old_set(), dirs)
            self.verified += 1
        return event


class TestSortedWindowCache:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_distances_match_fresh_computation_across_relabels(self, seed):
        # A new label, then a re-detection that refills the old label's window.
        probe_rng = np.random.default_rng(900 + seed)
        probe = ScriptedProbe({1: lambda: regime(probe_rng, 0.0, 1.0)})
        det = FreshDistanceDetector(make_config(master_seed=seed), probe)
        rng = np.random.default_rng(300 + seed)
        arm_second_label(det, rng)
        ev, _ = drive_until(det, regime(rng, 0.0, 1.0), 200)
        assert ev.kind == EVENT_RE_DETECTED
        before = det.verified
        # Long enough for the refilled window to pass the row indices
        # the label's window had reached before it departed.
        assert drive(det, regime(rng, 0.0, 1.0), 600) == []
        assert before > 10 and det.verified - before == 60


def detector_state(det: Detector):
    """Everything a step can change, in comparable form."""
    states = {}
    for label in det.labels:
        st = det.label_state(label.id)
        states[label.id] = (st.window.oldest(len(st.window)).tolist(),
                            st.history.values().tolist())
    return (det.t, det.current_label.id, [l.id for l in det.labels],
            det.last_swd, det.last_p_value, states)


class TestAtomicIngest:
    def test_rejected_width_leaves_t(self):
        det = Detector(make_config(history_len=4, swd_history_len=2))
        det.ingest([0.5], 0, 1.0)  # 3-wide datapoint fixes the width
        with pytest.raises(ValueError):
            det.ingest([0.5, 0.5, 0.5], 0, 1.0)  # 5-wide
        assert det.t == 1
        assert len(det.label_state(1).window) == 1

    @pytest.mark.parametrize("phi, reward", [
        ([np.nan, 0.0, 0.0], 1.0),
        ([0.0, np.inf, 0.0], 1.0),
        ([0.0, 0.0, 0.0], 1.2e308),  # sqrt(3) * 1.2e308 overflows
    ])
    @pytest.mark.parametrize("n_before", [7, CAPACITY + 3])
    def test_rejected_step_leaves_t_counters_and_ring(self, phi, reward, n_before):
        det = Detector(make_config())
        for i in range(n_before):
            det.ingest(np.full(3, 0.01 * i), i % 2, 0.5)
        window = det.label_state(1).window
        before = (det.t, len(window), window.pushed)
        ring = window._data.copy()
        with pytest.raises(ValueError):
            det.ingest(phi, 0, reward)
        assert (det.t, len(window), window.pushed) == before
        assert np.array_equal(window._data, ring)

    def test_rejected_block_width_leaves_t(self):
        det = Detector(make_config(history_len=4, swd_history_len=2))
        det.ingest_block(np.zeros((3, 1)), [0, 0, 0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            det.ingest_block(np.zeros((2, 3)), [0, 0], [1.0, 1.0])
        assert det.t == 3

    @given(st.lists(
        st.tuples(st.sampled_from(["ok", "nan", "inf-reward", "wide"]),
                  st.integers(0, 3), st.booleans()),
        min_size=1, max_size=80,
    ))
    @settings(max_examples=60, deadline=None)
    def test_invalid_steps_change_nothing(self, script):
        """Mixed valid and invalid steps, per step or per block, act as the valid ones alone.

        Each entry is (kind, mean, block break); a block ends after an
        entry whose break flag is set, and a wide step is a block of its own.
        A valid first step fixes the width.
        """
        rng = np.random.default_rng(len(script))
        steps = []
        for kind, mean, cut in [("ok", 0, False)] + script:
            phi = rng.normal(mean, 1.0, size=4 if kind == "wide" else 3)
            action, reward = int(rng.integers(0, 2)), float(mean)
            if kind == "nan":
                phi[1] = np.nan
            elif kind == "inf-reward":
                reward = np.inf
            steps.append((kind, phi, action, reward, cut))
        cfg = make_config(history_len=4, swd_history_len=2, n_projections=8)

        valid_only = Detector(cfg)
        for kind, phi, action, reward, _ in steps:
            if kind == "ok":
                valid_only.ingest(phi, action, reward)

        per_step = Detector(cfg)
        for kind, phi, action, reward, _ in steps:
            if kind == "ok":
                per_step.ingest(phi, action, reward)
            else:
                before = detector_state(per_step)
                with pytest.raises(ValueError):
                    per_step.ingest(phi, action, reward)
                assert detector_state(per_step) == before

        per_block = Detector(cfg)
        blocks, block = [], []
        for step in steps:
            if step[0] == "wide":
                blocks += [block, [step]]
                block = []
                continue
            block.append(step)
            if step[4]:
                blocks.append(block)
                block = []
        blocks.append(block)
        for block in blocks:
            while block:
                phi = np.stack([s[1] for s in block])
                actions = [s[2] for s in block]
                rewards = [s[3] for s in block]
                bad = next((i for i, s in enumerate(block) if s[0] != "ok"), None)
                if bad is None:
                    per_block.ingest_block(phi, actions, rewards)
                    break
                t_before = per_block.t
                with pytest.raises(ValueError):
                    per_block.ingest_block(phi, actions, rewards)
                if block[bad][0] != "wide":
                    assert per_block.t == t_before + bad
                block = block[bad + 1:]

        assert detector_state(per_step) == detector_state(valid_only)
        assert detector_state(per_block) == detector_state(valid_only)
