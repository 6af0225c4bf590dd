"""Scenario tests for the streaming shift detector.

Synthetic tuple streams with known change points drive the detector end
to end, and scripted probe sources steer the re-identification branch
down each of its paths: accept, reject, skip, and source failure.
"""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ScriptedProbe, detector_view, limited_regime, regime

import swoks.detector
from swoks.detector import (
    EVENT_NEW_TASK,
    EVENT_PROBE_ERROR,
    EVENT_RE_DETECTED,
    EVENT_SUPPRESSED,
    Detector,
    DetectorConfig,
    TaskLabel,
)
from swoks.ot import sorted_projections

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
        shifted = regime(rng, 3.0, -1.0)
        for _ in range(200):
            before = list(det.label_state(1).history)
            if det.ingest(*next(shifted)) is not None:
                break
        departed = det.label_state(1)
        assert det.current_label.id == 2
        assert departed.ref_window is not None
        assert departed.ref_window.shape == (LD, WIDTH)
        # Live buffers were handed over: old label empties, new starts fresh.
        assert len(departed.window) == 0
        with pytest.raises(ValueError):
            departed.window.oldest(1)
        assert len(det.label_state(2).window) == 0
        # The kept history is the old half of the triggering check's history
        # (whose append dropped the oldest value), and it stays frozen.
        assert len(before) == 2 * LW
        kept = list(departed.history)
        assert kept == before[1:LW + 1]
        drive(det, shifted, 2 * CAPACITY)
        assert list(departed.history) == kept

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


class TestSortedWindowCache:
    def test_each_check_sorts_one_set_once_warm(self, monkeypatch):
        """The first swd_history_len checks after a fill sort both sets;
        from then on each check finds its old set among the kept recent
        sets and sorts only the new recent set."""
        sorts = []

        def counted(points, dirs):
            sorts.append(len(points))
            return sorted_projections(points, dirs)

        monkeypatch.setattr(swoks.detector, "sorted_projections", counted)
        det = Detector(make_config(stable_phase=10**9))
        rng = np.random.default_rng(7)
        steps = regime(rng, 0.0, 1.0)
        fill = CAPACITY // LD - 1  # blocks of LD steps before the first check
        per_check = []
        for _ in range(fill + 3 * LW):
            phi, actions, rewards = zip(*itertools.islice(steps, LD))
            sorts.clear()
            det.ingest_block(np.stack(phi), actions, rewards)
            per_check.append(sorts.copy())
        assert det.current_label.id == 1 and len(det.label_state(1).window) == CAPACITY
        assert per_check[:fill] == [[]] * fill
        assert per_check[fill:fill + LW] == [[LD, LD]] * LW
        assert per_check[fill + LW:] == [[LD]] * (2 * LW)


# (phi, action, reward) of steps the detector rejects.
REJECTED_STEPS = [
    ([np.nan, 0.0, 0.0], 0, 1.0),
    ([0.0, np.inf, 0.0], 0, 1.0),
    ([0.0, 0.0, 0.0], 0, 1.2e308),  # sqrt(3) * 1.2e308 overflows
    ([0.5, 0.0, 0.0], np.inf, 1.0),
    ([0.5, 0.0, 0.0], 0, np.nan),
    (np.zeros(4), 0, 1e308),  # 4 wide: sqrt(4) * 1e308 overflows
]


class TestAtomicIngest:
    def test_rejected_width_leaves_t(self):
        det = Detector(make_config(history_len=4, swd_history_len=2))
        det.ingest([0.5], 0, 1.0)  # 3-wide datapoint fixes the width
        with pytest.raises(ValueError):
            det.ingest([0.5, 0.5, 0.5], 0, 1.0)  # 5-wide
        assert det.t == 1
        assert len(det.label_state(1).window) == 1

    @pytest.mark.parametrize("phi, action, reward", REJECTED_STEPS,
                             ids=[f"phi{i}-{r}" for i, (_, _, r) in enumerate(REJECTED_STEPS)])
    @pytest.mark.parametrize("n_before", [7, CAPACITY + 3])
    def test_rejected_step_leaves_t_counters_and_ring(self, phi, action, reward, n_before):
        """A rejected step leaves t, the ring and its counters as they were;
        the next step is stored after the rows before it."""
        det = Detector(make_config())
        for i in range(n_before):
            det.ingest(np.full(len(phi), 0.01 * i), i % 2, 0.5)
        window = det.label_state(1).window
        before = (det.t, len(window), window._pushed)
        ring = window._data.copy()
        rows = window.oldest(len(window))
        with pytest.raises(ValueError):
            det.ingest(phi, action, reward)
        assert (det.t, len(window), window._pushed) == before
        assert np.array_equal(window._data, ring)
        det.ingest(np.full(len(phi), 9.0), 1, 0.5)
        after = window.oldest(len(window))
        assert np.array_equal(after[:-1], rows[len(rows) + 1 - len(after):])

    def test_rejected_block_width_leaves_t(self):
        det = Detector(make_config(history_len=4, swd_history_len=2))
        det.ingest_block(np.zeros((3, 1)), [0, 0, 0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            det.ingest_block(np.zeros((2, 3)), [0, 0], [1.0, 1.0])
        assert det.t == 3

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_distance_is_rejected_before_it_enters_the_history(self):
        """Finite rows can still project past the float range: their distance
        raises ValueError and the history, last_swd and the p-value stay."""
        det = Detector(make_config(history_len=2, swd_history_len=2, n_projections=128))
        for _ in range(12):  # a full history of zero distances, then one test
            det.ingest([0.0], 0, 0.0)
        history = det.label_state(1).history
        assert list(history) == [0.0] * 4 and det.last_p_value == 1.0
        huge = 1.7e308  # 3-wide rows of this project past 1.8e308 on many directions
        det.ingest([huge], huge, 0.0)
        with pytest.raises(ValueError, match="distance values must be finite"):
            det.ingest([huge], huge, huge)
        assert list(history) == [0.0] * 4
        assert (det.last_swd, det.last_p_value) == (0.0, 1.0)

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
                before = detector_view(per_step)
                with pytest.raises(ValueError):
                    per_step.ingest(phi, action, reward)
                assert detector_view(per_step) == before

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

        assert detector_view(per_step) == detector_view(valid_only)
        assert detector_view(per_block) == detector_view(valid_only)


class TestBlockIngestWithProbing:
    """Probe steps are checked like live ones."""

    @pytest.mark.parametrize("bad_phi", [[0.0, np.nan, 0.0], [0.0, 0.0, 0.0, 0.0]])
    def test_bad_probe_step_raises(self, bad_phi):
        def script():
            src = regime(np.random.default_rng(900), 0.0, 1.0)
            for i in itertools.count():
                yield (np.array(bad_phi), 0, 1.0) if i == 17 else next(src)

        probe = ScriptedProbe({1: script})
        det = Detector(make_config(master_seed=0), probe)
        rng = np.random.default_rng(300)
        arm_second_label(det, rng)
        with pytest.raises(ValueError):
            drive_until(det, regime(rng, 0.0, 1.0), 200)
        assert probe.deploy_calls == [1]
        assert det.t % LD == 0  # the probe steps were not counted
