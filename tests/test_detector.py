"""Scenario tests for the streaming shift detector.

Synthetic tuple streams with known change points drive the detector end
to end, and scripted probe sources steer the re-identification branch
down each of its paths: accept, reject and a refused probe.
"""
from __future__ import annotations

import collections
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ScriptedProbe, detector_view, regime, window_rows

import swoks.detector
from swoks.config import load_config
from swoks.detector import (
    EVENT_NEW_TASK,
    EVENT_RE_DETECTED,
    EVENT_SUPPRESSED,
    Detector,
    DetectorConfig,
    TaskLabel,
    _value_bound,
)
from swoks.ot import sorted_projections
from swoks.runner import detector_config
from swoks.stream import make_datapoints

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


def window_bytes(window) -> list[bytes]:
    """The bytes of a window's whole sets, their sorts and the set being filled."""
    return [a.tobytes() for pair in window.sets for a in pair] + [window.filling.tobytes()]


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

    @pytest.mark.parametrize("steps", [0, 1, LD, CAPACITY - 1])
    def test_redetect_refused_unless_the_window_is_full(self, steps):
        det, source = Detector(make_config()), regime(np.random.default_rng(7), 0.0, 1.0)
        drive(det, source, steps)
        before = detector_view(det)
        with pytest.raises(RuntimeError, match="window not full"):
            det.redetect()
        assert detector_view(det) == before
        # Once the window is full, label 1 departs with its oldest set as reference.
        drive(det, source, CAPACITY - steps)
        oldest = window_rows(det.label_state(1).window)[:LD]
        assert det.redetect().kind == EVENT_NEW_TASK
        assert det.label_state(1).reference[0].tolist() == oldest

    def test_fresh_detector_has_an_empty_state_for_label_1(self):
        det = Detector(make_config())
        st = det.label_state(1)
        assert (window_rows(st.window), list(st.history), st.reference) == ([], [], None)
        label = TaskLabel(id=1, created_at=0)
        assert detector_view(det) == (0, None, None, [label], label, {1: ([], [], None)})

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
        # The reference is the window's oldest set, with the sort it got there.
        rows, sort = departed.reference
        assert rows.shape == (LD, WIDTH)
        assert np.array_equal(sort, sorted_projections(rows, det._dirs))
        # Live buffers were handed over: old label empties, new starts fresh.
        assert window_rows(departed.window) == []
        assert window_rows(det.label_state(2).window) == []
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
        assert det.labels[-1].created_at == 0


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
        assert det.label_state(2).reference is not None
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
        assert ev.probed_pvalues[1] < ALPHA
        assert det.current_label.id == 3
        assert [lab.id for lab in det.labels] == [1, 2, 3]
        assert det.labels[-1].created_at == ev.t

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


class TestSortedSets:
    """Each set is sorted once; a check comes each time a set completes a full window."""

    def test_every_set_is_sorted_once(self, monkeypatch):
        """Across a new label, probes that reject and accept, every set
        that enters a label's window, live or from an accepted probe, goes
        through sorted_projections exactly once, and so does every set a probe
        scores. A probe scores against its candidate's reference, which was
        sorted when it entered the window and is not sorted again."""
        sorts = []

        def counted(points, dirs):
            sorts.append(points.tobytes())
            return sorted_projections(points, dirs)

        entered, push = set(), swoks.detector._Window.push

        def pushed(window, rows, dirs):  # a set that triggers a change leaves at once
            whole = push(window, rows, dirs)
            if whole:
                entered.add(window.sets[-1][0].tobytes())
            return whole

        monkeypatch.setattr(swoks.detector, "sorted_projections", counted)
        monkeypatch.setattr(swoks.detector._Window, "push", pushed)
        probe_rng, probed = np.random.default_rng(900), []

        class Recorded(ScriptedProbe):
            def deploy(self, label, n):
                steps = super().deploy(label, n)
                rows = make_datapoints(*steps)
                probed.extend(rows[i:i + LD].tobytes() for i in range(0, n, LD))
                return steps

        det = Detector(make_config(), Recorded({1: lambda: regime(probe_rng, 0.0, 1.0),
                                                 2: lambda: regime(probe_rng, -6.0, 8.0)}))
        rng = np.random.default_rng(300)
        references, kinds = set(), []
        for mean, reward, n in [(0.0, 1.0, 300), (3.0, -1.0, 420), (0.0, 1.0, 300),
                                (-3.0, 2.0, 300)]:
            for phi, action, r in itertools.islice(regime(rng, mean, reward), n):
                event = det.ingest(phi, action, r)
                kinds += [event.kind] if event is not None else []
                for label in det.labels:  # the sets an accepted probe hands over
                    st = det.label_state(label.id)
                    entered.update(rows.tobytes() for rows, _ in st.window.sets)
                    if st.reference is not None:
                        references.add(st.reference[0].tobytes())
        assert kinds == [EVENT_NEW_TASK, EVENT_RE_DETECTED, EVENT_NEW_TASK]
        assert [lab.id for lab in det.labels] == [1, 2, 3]
        counts = collections.Counter(sorts)
        assert set(counts.values()) == {1}
        assert set(counts) == entered | set(probed)
        assert len(references) == 3 and references <= entered


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
        with pytest.raises(ValueError, match="^step 0 of 1: datapoint width 5 does not match 3$"):
            det.ingest([0.5, 0.5, 0.5], 0, 1.0)  # 5-wide
        assert det.t == 1
        assert len(det.label_state(1).window.filling) == 1

    @pytest.mark.parametrize("phi, action, reward", REJECTED_STEPS,
                             ids=[f"phi{i}-{r}" for i, (_, _, r) in enumerate(REJECTED_STEPS)])
    @pytest.mark.parametrize("n_before", [7, CAPACITY + 3])
    def test_rejected_step_leaves_t_counters_and_ring(self, phi, action, reward, n_before):
        """A rejected step leaves t, the window's sets, their sorts and the set
        being filled as they were; the next step is stored after the rows
        before it."""
        det = Detector(make_config())
        for i in range(n_before):
            det.ingest(np.full(len(phi), 0.01 * i), i % 2, 0.5)
        window = det.label_state(1).window
        before, kept, rows = detector_view(det), window_bytes(window), window_rows(window)
        with pytest.raises(ValueError):
            det.ingest(phi, action, reward)
        assert detector_view(det) == before and window_bytes(window) == kept
        det.ingest(np.full(len(phi), 9.0), 1, 0.5)
        assert window_rows(window) == rows + [[np.sqrt(len(phi)) * 0.5, 1.0] + [9.0] * len(phi)]

    def test_rejected_block_width_leaves_t(self):
        det = Detector(make_config(history_len=4, swd_history_len=2))
        det.ingest_block(np.zeros((3, 1)), [0, 0, 0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            det.ingest_block(np.zeros((2, 3)), [0, 0], [1.0, 1.0])
        assert det.t == 3

    def test_non_finite_distance_is_rejected_before_it_enters_the_history(self):
        """Finite rows whose distance could overflow (past the value bound) are
        refused before t moves: the window's sets, their sorts and the history
        stay, and numpy warns of nothing."""
        det = Detector(DetectorConfig(history_len=4, swd_history_len=2, n_projections=4))
        rng = np.random.default_rng(0)
        det.ingest_block(rng.normal(size=(12, 3)), np.zeros(12), np.ones(12))
        window = det.label_state(1).window
        before, kept = detector_view(det), window_bytes(window)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^step 0 of 4: .* must be finite and at most"):
                det.ingest_block(np.full((4, 3), 1e200), np.zeros(4), np.zeros(4))
        assert detector_view(det) == before and det.t == 12
        assert window_bytes(window) == kept

    def test_values_at_the_bound_give_a_finite_distance(self):
        """Sets at opposite corners of the bound are accepted and score a
        finite distance; the next double up is refused."""
        h, width = 4, 5
        bound = _value_bound(h, width)
        det = Detector(make_config(history_len=h, swd_history_len=3, n_projections=128))
        for sign in (1, -1) * 3 + (1,):  # each check compares sets of opposite signs
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                det.ingest_block(np.full((h, 3), sign * bound), np.full(h, sign * bound),
                                 np.full(h, sign * bound / 2))
        assert list(det.label_state(1).history) == [det.last_swd] * 4
        assert 0.0 < det.last_swd < np.inf
        with pytest.raises(ValueError):
            det.ingest([np.nextafter(bound, np.inf), 0.0, 0.0], 0, 0.0)

    @given(st.lists(
        st.tuples(st.sampled_from(["ok", "nan", "inf-reward", "wide"]),
                  st.integers(0, 3), st.booleans()),
        min_size=1, max_size=80,
    ))
    @example([("nan", 0, False)])  # the first block, valid step and all, is rejected
    @settings(max_examples=60, deadline=None)
    def test_invalid_steps_change_nothing(self, script):
        """Mixed valid and invalid steps, per step or per block, act as the valid ones alone.

        Each entry is (kind, mean, block break); a block ends after an
        entry whose break flag is set, and a wide step is a block of its own.
        A valid first step, in the script's first block, fixes the width. A
        block with an invalid step is rejected whole; its valid steps are
        then fed as a block.
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
        for block in blocks:  # fed as (phi, actions, rewards) columns
            valid = [s for s in block if s[0] == "ok"]
            if len(valid) < len(block):
                before = detector_view(per_block)
                with pytest.raises(ValueError):
                    per_block.ingest_block(*zip(*(s[1:4] for s in block)))
                assert detector_view(per_block) == before
            if valid:
                per_block.ingest_block(*zip(*(s[1:4] for s in valid)))

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

    @pytest.mark.parametrize("bad_phi", [[0.0, np.nan, 0.0], [0.0, 1e200, 0.0]])
    def test_refused_probe_leaves_the_detector_as_deploy_found_it(self, bad_phi):
        """A probe step that is not finite, or too large for its distance to
        stay finite, is refused before t moves: t, the window's sets, their
        sorts and the history are as they were when the probe was deployed."""
        def script():
            src = regime(np.random.default_rng(900), 0.0, 1.0)
            for i in itertools.count():
                yield (np.array(bad_phi), 0, 1.0) if i == 17 else next(src)

        seen = []

        class Watched(ScriptedProbe):
            def deploy(self, label, n):
                window = det.label_state(det.current_label.id).window
                seen.append((detector_view(det), window_bytes(window)))
                return super().deploy(label, n)

        det = Detector(make_config(master_seed=0), Watched({1: script}))
        rng = np.random.default_rng(300)
        arm_second_label(det, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^step 17 of 80: .* must be finite and at most"):
                drive_until(det, regime(rng, 0.0, 1.0), 200)
        [(view, kept)] = seen
        assert detector_view(det) == view
        assert window_bytes(det.label_state(2).window) == kept

    @pytest.mark.parametrize("returned", [79, 0, 81], ids=["n-1", "0", "n+1"])
    def test_probe_with_another_step_count_raises(self, returned):
        """A source that returns fewer or more steps than the 80 asked for is
        refused before t moves: the detector is as it was when the probe was
        deployed."""
        seen = []

        class Miscounted(ScriptedProbe):
            def deploy(self, label, n):
                seen.append(detector_view(det))
                return super().deploy(label, returned)

        det = Detector(make_config(master_seed=0),
                       Miscounted({1: lambda: regime(np.random.default_rng(900), 0.0, 1.0)}))
        rng = np.random.default_rng(300)
        arm_second_label(det, rng)
        match = f"^probe of label 1 returned {returned} steps, not the 80 asked for$"
        with pytest.raises(ValueError, match=match):
            drive_until(det, regime(rng, 0.0, 1.0), 200)
        [view] = seen
        assert detector_view(det) == view


class TestDetectionDelayFloor:
    """On a clear change at a set boundary the first event waits for the shift
    test, not for the data: the new half of the history needs ``k*`` high
    distances of ``L`` before ``exp(-k*^2 / L)`` falls below alpha, so the
    trigger comes ``k* * history_len`` steps after the change, with
    ``k* = floor(sqrt(L ln(1 / alpha))) + 1``."""

    @pytest.mark.parametrize("preset, change, floor", [("desk", 3360, 600),
                                                       ("paper", 94800, 7200)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_first_event_lands_on_the_floor(self, preset, change, floor, seed):
        config = load_config(preset, seed=seed)
        cfg = detector_config(config)
        h, half = cfg.history_len, cfg.swd_history_len
        k_star = math.floor(math.sqrt(half * math.log(1 / cfg.alpha))) + 1
        assert k_star * h == floor
        assert change % h == 0 and change > 3 * half * h  # after the first label is armed
        n = change + floor
        rng = np.random.default_rng(seed)
        phi = rng.normal(size=(n, config.agent.latent_dim))
        phi[change:] += 3.0
        actions, rewards = rng.integers(0, config.env.branching, n), rng.normal(size=n)
        events = Detector(cfg, probe=None).ingest_block(phi, actions, rewards)
        assert [(e.kind, e.t) for e in events] == [(EVENT_NEW_TASK, change + floor)]
