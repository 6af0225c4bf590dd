"""End-to-end loop tests on a miniature two-task curriculum, plus the
offline replay and beta sweep entry points.

The mirror curriculum (task 1, task 2, task 1 again) exercises the full
story in under a second: mint on the first change, probe and re-adopt
on the return, rollback of the departing policy.
"""
from __future__ import annotations

import copy
import gc
import json
import math
import multiprocessing
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (LD, LW, MIRROR, PROBE, TINY_CASES, ReferenceProbe, detector_view,
                      env_view, tiny_case, tiny_config)

import swoks.runner
from swoks import stream
from swoks.agent import Encoder, EpisodeBuffer, PolicyBank
from swoks.config import load_config
from swoks.detector import (
    EVENT_NEW_TASK,
    EVENT_RE_DETECTED,
    EVENT_SUPPRESSED,
    Detector,
    DetectorConfig,
)
from swoks.env import Curriculum, TaskSpec, TreeGraphConfig, TreeGraphEnv
from swoks.metrics import sweep_beta
from swoks.runner import _EnvProbe, detect_offline, run_experiment
from swoks.seeding import substream
from swoks.stream import StreamBlock, read_stream_blocks, write_stream
from swoks.trace import event_record, read_trace

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


class TestBatchedProbe:
    """One batched probe rollout against the same steps taken one at a time
    (``conftest.ReferenceProbe``)."""

    # (depth, branching, sigma, n, switch task before the probe)
    CASES = {
        "desk": (2, 2, 0.05, 720, False),
        "depth-3-branching-3": (3, 3, 0.05, 651, False),
        "sigma-0": (2, 2, 0.0, 720, False),
        "one-episode": (2, 2, 0.05, 2, False),
        "branching-8": (2, 8, 0.05, 500, False),
        "task-set-before-probe": (2, 3, 0.05, 400, True),
    }

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rollout_equals_per_step_calls(self, case, seed):
        depth, branching, sigma, n, switch = self.CASES[case]
        tasks = tuple(TaskSpec(task_id=i + 1, rewarded_leaf=leaf)
                      for i, leaf in enumerate((0, branching ** depth - 1)))
        env = TreeGraphEnv(
            TreeGraphConfig(depth=depth, branching=branching, obs_dim=16,
                            obs_noise_sigma=sigma, env_seed=seed), tasks)
        encoder = Encoder(16, 8, seed=seed)
        bank = PolicyBank(branching, 8)
        data = np.random.default_rng(seed)
        bank.get_or_create(1).params = data.normal(size=(branching, 9)) * 2.0
        env.set_task(1)
        rng = substream(seed, "probe-actions")
        # Live steps first, so the probe starts mid-episode and mid noise block.
        live = bank.get_or_create(1)
        buffer = EpisodeBuffer(branching, 8, depth)
        obs = env.reset()
        for _ in range(depth - 1):
            obs, _, _ = env.step(live.act(encoder.encode(obs), data, buffer))
        rng.random(37)
        if switch:
            env.set_task(2)
        twins = copy.deepcopy((env, encoder, bank, rng))

        probe = _EnvProbe(env, encoder, bank, rng)
        phi, actions, rewards = probe.deploy(1, n)
        ref = ReferenceProbe(*twins)  # on the generator itself, one draw per step
        ref_phi, ref_actions, ref_rewards = ref.deploy(1, n)

        assert phi.shape == (n, 8) and phi.tobytes() == ref_phi.tobytes()
        assert actions.tolist() == ref_actions.tolist()
        assert rewards.tolist() == ref_rewards.tolist()
        assert env_view(env) == env_view(ref.env)
        assert rng.random() == twins[3].random()
        assert probe.blocks == [(ref.env.active_task, rewards)]
        assert env.active_task == (2 if switch else 1)
        if n > depth:  # not a degenerate policy: every action and a leaf's reward occur
            assert len(set(actions.tolist())) == branching and min(rewards) < 0.0

    def test_every_desk_probe_plays_whole_sets(self, desk_seed_1):
        """Each event of desk seed 1 settles on a run of probe rows: one
        probe of resolved_probe_samples sets of history_len steps per probed
        label, right after the live row of the check, and each probed label
        has a p-value."""
        run = desk_seed_1[0]
        cfg = run.config.detector
        probe = cfg.resolved_probe_samples * cfg.history_len
        t, flags = run.trace.t, run.trace.probe_flag
        assert max(len(ev.probed_pvalues) for ev in run.events) > 1
        for ev in run.events:
            assert all(isinstance(p, float) for p in ev.probed_pvalues.values())
            check = ev.t - len(ev.probed_pvalues) * probe  # the live row of the check
            assert t[check - 1] == check and t[ev.t - 1] == ev.t
            assert flags[check:ev.t].all() and not flags[check - 1]
            assert check % cfg.history_len == 0

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_rollout_refuses_a_part_of_an_episode(self, n):
        """A rollout plays whole episodes of depth 3: any other n is refused
        before the task, the node or the noise moves."""
        env = TreeGraphEnv(TreeGraphConfig(depth=3), (TaskSpec(1, 0), TaskSpec(2, 7)))
        env.set_task(1)
        env.rollout(3, lambda steps, obs: np.zeros(len(steps), dtype=int))
        env.set_task(2)
        before = env_view(env)
        with pytest.raises(ValueError, match=rf"positive multiple of depth 3, got {n}$"):
            env.rollout(n, lambda steps, obs: np.zeros(len(steps), dtype=int))
        assert env_view(env) == before

    def test_rollout_rejects_an_action_out_of_range(self):
        """A refused action leaves the env as it was, its cursor, node, done
        and task, also with a set_task pending; with no task set the rollout
        refuses before choose is called."""
        env = TreeGraphEnv(TreeGraphConfig(), (TaskSpec(1, 0), TaskSpec(2, 3)))
        with pytest.raises(RuntimeError, match="no active task"):
            env.rollout(4, lambda steps, obs: pytest.fail("choose called with no task"))
        env.set_task(1)
        env.reset()
        for pending in (None, 2):
            if pending is not None:
                env.set_task(pending)
            before = env_view(env)
            for bad in (2, 5, -1):
                with pytest.raises(ValueError, match=r"actions must lie in \[0, 2\)"):
                    env.rollout(4, lambda steps, obs: np.full(len(steps), bad))
                assert env_view(env) == before
            # A bad action at the last level only: the first level's choice moves nothing.
            with pytest.raises(ValueError):
                env.rollout(4, lambda steps, obs: np.full(len(steps), 5 * (steps[0] % 2)))
            assert env_view(env) == before
        assert env.active_task == 1


class TestDeskDecisions:
    """Desk seed 1's decisions, pinned: every host and dependency version must
    reproduce them, even where ``trace.csv``'s last float digits differ."""

    # (t, kind, old label, new label, {probed label: p-value}); a p-value here
    # is exp(-12), every new-half distance past the scaled old half, or 1.0.
    REJECT = math.exp(-12)
    EVENTS = [
        (8580, EVENT_NEW_TASK, 1, 2, {}),
        (17280, EVENT_NEW_TASK, 2, 3, {1: REJECT}),
        (26040, EVENT_NEW_TASK, 3, 4, {1: REJECT, 2: REJECT}),
        (33300, EVENT_RE_DETECTED, 4, 1, {1: 1.0}),
        (41280, EVENT_RE_DETECTED, 1, 2, {2: 1.0}),
        (49920, EVENT_RE_DETECTED, 2, 3, {1: REJECT, 3: 1.0}),
        (58740, EVENT_RE_DETECTED, 3, 4, {1: REJECT, 2: REJECT, 4: 1.0}),
    ]

    def test_events_and_probed_pvalues(self, desk_seed_1):
        events = desk_seed_1[0].events
        assert [(e.t, e.kind, e.old_label, e.new_label) for e in events] == [
            event[:4] for event in self.EVENTS]
        for event, (*_, pvalues) in zip(events, self.EVENTS):
            assert event.probed_pvalues == pytest.approx(pvalues, rel=1e-9, abs=0.0)


class TestLivePlan:
    """A plan is made only where a check interval starts, spans whole intervals
    and is kept while it holds the next interval; ``test_reference_run.py``
    checks the steps it serves."""

    @pytest.mark.parametrize("case", list(TINY_CASES))
    def test_plans_are_reused_and_replanned_off_grid(self, case, monkeypatch):
        """Every live plan is made where an interval starts, at most one between
        two checks, and only when the last one cannot hold the interval: at its
        end, or off its grid where a probe moved the cursor past it. A probe's
        own plan is made at its start cursor, for exactly its episodes."""
        log = []  # ("plan", cursor, episodes), ("step",), ("check",), ("probe", start, end)
        encode_plan, rollout = swoks.runner._encode_plan, TreeGraphEnv.rollout
        advance, ingest_block = TreeGraphEnv.advance, Detector.ingest_block

        def counted(env, encoder, episodes):
            log.append(("plan", env.cursor, episodes))
            return encode_plan(env, encoder, episodes)

        def spanned(env, n, choose):
            start = env.cursor
            played = rollout(env, n, choose)
            log.append(("probe", start, env.cursor))
            return played

        def stepped(env, action):
            log.append(("step",))
            return advance(env, action)

        def checked(detector, phi, actions, rewards):
            log.append(("check",))
            return ingest_block(detector, phi, actions, rewards)

        monkeypatch.setattr(swoks.runner, "_encode_plan", counted)
        monkeypatch.setattr(TreeGraphEnv, "rollout", spanned)
        monkeypatch.setattr(TreeGraphEnv, "advance", stepped)
        monkeypatch.setattr(Detector, "ingest_block", checked)
        result = run_experiment(tiny_case(case, seed=0))
        depth, h = result.config.env.depth, result.config.detector.history_len
        # A probe's plan comes right before its rollout; the live plans are the rest.
        probe_plans = [i for i, entry in enumerate(log[:-1])
                       if entry[0] == "plan" and log[i + 1][0] == "probe"]
        assert len(probe_plans) == sum(entry[0] == "probe" for entry in log)
        for i in probe_plans:
            (_, cursor, episodes), (_, start, end) = log[i], log[i + 1]
            assert cursor == start and episodes * (depth + 1) == end - start
        log = [entry for i, entry in enumerate(log) if i not in probe_plans]
        interval = h // depth * (depth + 1)  # observations per check interval
        # The fewest whole intervals that cover the plan's observations.
        span = -(-swoks.runner._PLAN_OBSERVATIONS // interval) * interval
        plans = [entry for entry in log if entry[0] == "plan"]
        assert all(episodes * (depth + 1) == span for _, _, episodes in plans)
        # One plan serves many episodes.
        assert 0 < len(plans) < (result.trace.probe_flag == 0).sum() / (10 * depth)
        since_check = planned = served = 0  # since the last check; probes a plan outlives
        plan_at = -span
        for i, (kind, *cursors) in enumerate(log):
            if kind == "check":
                since_check = planned = 0
            elif kind == "step":
                since_check += 1
            elif kind == "plan":
                # Only where an interval starts, and only if the last plan cannot hold it.
                assert since_check == planned == 0
                assert cursors[0] + interval > plan_at + span
                planned, plan_at = 1, cursors[0]
            elif cursors[1] + interval <= plan_at + span and log[i + 1:i + 2] == [("step",)]:
                served += 1  # a probe inside the plan's span, and the plan serves on
        if case == "short-probe":
            assert any(e.probed_pvalues for e in result.events) and served and probe_plans

    def test_no_action_draw_runs_ahead(self, monkeypatch):
        """Desk seed 1's action generator has drawn ``history_len`` uniforms per
        check interval started and its probe generator one per probe row: no
        value the run did not use, so their ``bit_generator.state`` is all a
        snapshot of them needs."""
        drawn = {}

        def captured(master_seed, name):
            drawn[name] = substream(master_seed, name)
            return drawn[name]

        monkeypatch.setattr(swoks.runner, "substream", captured)
        result = run_experiment(load_config("desk", seed=1))
        h, flags = result.config.detector.history_len, result.trace.probe_flag
        live, probed = int((flags == 0).sum()), int(flags.sum())
        assert live == result.episodes * result.config.env.depth and probed > 0
        for name, used in (("actions", -(-live // h) * h), ("probe-actions", probed)):
            fresh = substream(1, name)
            fresh.random(used)
            assert drawn[name].bit_generator.state == fresh.bit_generator.state, name

    @given(st.integers(1, 3), st.integers(2, 4), st.sampled_from([0.0, 0.05, 2.0]),
           st.integers(0, 2**16), st.lists(st.integers(-2, 7), max_size=300),
           st.integers(1, 100))
    @settings(max_examples=60, deadline=None)
    def test_observations_are_one_draw_each_in_order(self, depth, branching, sigma, seed,
                                                     moves, episodes):
        """``reset`` and ``step`` return the base vector plus ``sigma`` times one
        ``standard_normal(obs_dim)`` draw per observation, in order, whatever
        ``plan`` (move -2) and ``rollout`` (move -1) calls come between them; an
        episode that starts on the latest plan's grid observes the plan's rows."""
        cfg = TreeGraphConfig(depth=depth, branching=branching, obs_dim=4,
                              obs_noise_sigma=sigma, env_seed=seed)
        env = TreeGraphEnv(cfg, (TaskSpec(1, 0),))
        base = TreeGraphEnv(replace(cfg, obs_noise_sigma=0.0), (TaskSpec(1, 0),))
        env.set_task(1)
        base.set_task(1)
        per_call = substream(seed, "tree-obs-noise")
        plan_at, plan = 0, np.empty((0, 0, 4))
        rows = None  # the plan's rows for the running episode, if it started on its grid
        done, node = True, 0
        for move in moves:
            if move == -2:
                cursor = env.cursor
                plan_at, plan = cursor, env.plan(episodes)
                assert env.cursor == cursor
                nodes = (branching ** depth - 1) // (branching - 1)  # those that are not leaves
                assert plan.shape == (episodes, nodes, 4)
                continue
            if move == -1:
                cursor = env.cursor
                env.rollout(2 * depth, lambda steps, obs: np.zeros(len(steps), dtype=int))
                per_call.standard_normal((env.cursor - cursor, 4))
                done = True
                continue
            if done:
                episode, off_grid = divmod(env.cursor - plan_at, depth + 1)
                rows = None if off_grid or episode >= len(plan) else plan[episode]
                obs, expected, node, done = env.reset(), base.reset(), 0, False
            else:
                action = move % branching
                obs, _, done = env.step(action)
                expected = base.step(action)[0]
                node = node * branching + 1 + action
            expected = expected + sigma * per_call.standard_normal(4)
            assert obs.tobytes() == expected.tobytes()
            if rows is not None and not done:
                assert rows[node].tobytes() == obs.tobytes()


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

    def test_streamed_run_memory_does_not_grow_with_its_length(self, tmp_path):
        """With an out_dir the rows go to trace.csv as they come: once the
        windows are full, 8,000 steps peak no higher than 2,000."""

        def peak_kb(steps: int) -> float:
            cfg = replace(load_config("desk", seed=1), curriculum=Curriculum(((1, steps),)))
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = run_experiment(cfg, out_dir=tmp_path / str(steps))
            peak = tracemalloc.get_traced_memory()[1]
            assert result.events == [] and result.trace is None
            return (peak - base) / 1024

        tracemalloc.start()
        try:
            peak_kb(2000)  # warm-up: imports, caches and first-use allocations
            short, long = peak_kb(2000), peak_kb(8000)
        finally:
            tracemalloc.stop()
        assert abs(long - short) < 64, (short, long)


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
        # The streamed file and the in-memory trace of the same run agree.
        assert res.trace is None
        streamed = tmp_path / "a" / "trace.csv"
        mem = run_experiment(cfg)
        assert read_trace(streamed) == mem.trace
        # Every live episode is counted, those its events roll back included.
        assert res.episodes == mem.episodes
        assert res.episodes * cfg.env.depth == (mem.trace.probe_flag == 0).sum()

    def test_run_that_raises_leaves_its_rows_and_events(self, tmp_path, monkeypatch):
        cfg = tiny_config(MIRROR)
        full = run_experiment(cfg, out_dir=tmp_path / "full")
        inner = Detector.ingest_block
        calls = []

        def ingest_block(self, phi, actions, rewards):
            calls.append((self.t, len(rewards)))
            if len(calls) == 150:  # after the new-task event, before the re-detection
                raise RuntimeError("injected")
            return inner(self, phi, actions, rewards)

        monkeypatch.setattr(Detector, "ingest_block", ingest_block)
        with pytest.raises(RuntimeError, match="injected"):
            run_experiment(cfg, out_dir=tmp_path / "out")
        t, pending = calls[-1]
        lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        # Every row before the failing check boundary: the trace's header and first rows.
        assert len(lines) == 1 + t + pending - 1
        assert lines == (tmp_path / "full" / "trace.csv").read_text().splitlines()[:len(lines)]
        kept = [event_record(ev) for ev in full.events if ev.t <= t]
        assert 0 < len(kept) < len(full.events)
        assert json.loads((tmp_path / "out" / "events.json").read_text()) == kept

    def test_failed_output_write_does_not_hide_the_runs_error(self, tmp_path, monkeypatch):
        def ingest_block(self, phi, actions, rewards):
            raise RuntimeError("injected")

        def write_events(path, events):
            raise OSError("disk full")

        monkeypatch.setattr(Detector, "ingest_block", ingest_block)
        monkeypatch.setattr(swoks.runner, "write_events", write_events)
        with pytest.raises(RuntimeError, match="injected"), pytest.warns(
                UserWarning, match="disk full"):
            run_experiment(tiny_config(MIRROR), out_dir=tmp_path)
        # The header and the rows before the first check boundary.
        assert (tmp_path / "trace.csv").read_text().count("\n") == 1 + (LD - 1)

    def test_different_seeds_differ(self, tmp_path):
        run_experiment(tiny_config(((1, 400),), seed=3), out_dir=tmp_path / "a")
        run_experiment(tiny_config(((1, 400),), seed=4), out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "trace.csv").read_bytes() != (tmp_path / "b" / "trace.csv").read_bytes()

    def test_bank_save_and_load_between_runs(self, tmp_path):
        bank_path = tmp_path / "bank.npz"
        run_experiment(tiny_config(MIRROR), save_bank=bank_path)
        res = run_experiment(tiny_config(((1, 200),)), load_bank=bank_path)
        assert set(res.bank.labels()) >= {1, 2}

    def test_desk_bank_round_trip_is_exact(self, tmp_path, desk_seed_1):
        """Desk seed 1's four trained labels and one more go through the
        archive bit for bit, and saving the loaded bank gives the same bytes."""
        bank = copy.deepcopy(desk_seed_1[0].bank)
        assert bank.labels() == [1, 2, 3, 4]
        extra = bank.get_or_create(5)
        extra.params = np.random.default_rng(5).normal(size=extra.params.shape)
        extra.update_count = 12
        bank.save(tmp_path / "bank")
        loaded = PolicyBank(2, bank.get_or_create(1).latent_dim)
        loaded.load(tmp_path / "bank")
        assert loaded.labels() == [1, 2, 3, 4, 5]
        for label in loaded.labels():
            saved, restored = bank.get_or_create(label), loaded.get_or_create(label)
            assert restored.params.tobytes() == saved.params.tobytes()
            assert restored.update_count == saved.update_count > 0
        loaded.save(tmp_path / "again")
        assert (tmp_path / "again").read_bytes() == (tmp_path / "bank").read_bytes()

    def test_unwritable_bank_path_keeps_the_outputs(self, tmp_path):
        cfg = tiny_config(((1, 200),))
        with pytest.raises(OSError):
            run_experiment(cfg, out_dir=tmp_path / "out", save_bank=tmp_path / "nodir" / "bank.npz")
        run_experiment(cfg, out_dir=tmp_path / "ref")
        for name in ("trace.csv", "events.json"):
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


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

    def changes_stream(self, tmp_path):
        """9437 rows: more than two read blocks, and a multiple of neither the
        block length nor history_len. The second change falls inside the
        stable phase of the first; the third lands mid-block."""
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
        return path, replace(self.det_config(), stable_phase=1000)

    def test_block_replay_equals_step_by_step_ingest(self, tmp_path):
        path, cfg = self.changes_stream(tmp_path)

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
        assert detector.t == 9437 and detector_view(detector) == detector_view(stepwise)

    def test_reader_process_and_in_process_replays_are_equal(self, tmp_path, monkeypatch):
        path, cfg = self.changes_stream(tmp_path)
        events, detector = detect_offline(path, cfg)
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(stream, "_usable_cpus", lambda: 1)
        in_process_events, in_process = detect_offline(path, cfg)
        assert len(events) >= 4
        assert events == in_process_events
        assert detector.t == 9437 and detector_view(detector) == detector_view(in_process)

    @pytest.mark.parametrize("stop", [RuntimeError("ingest failed"), KeyboardInterrupt()])
    def test_reader_is_reaped_when_ingest_stops_early(self, tmp_path, monkeypatch, stop):
        path = tmp_path / "long.csv"
        write_stream(path, synth_stream(40000, None, seed=11))  # more than the pipe holds
        ingest_block = Detector.ingest_block
        running = []

        def fail_on_second_block(detector, *args):
            if detector.t:
                running.extend(multiprocessing.active_children())
                raise stop
            return ingest_block(detector, *args)

        monkeypatch.setattr(Detector, "ingest_block", fail_on_second_block)
        with pytest.raises(type(stop)):
            detect_offline(path, self.det_config())
        assert len(running) == 1
        assert multiprocessing.active_children() == []

    def test_replay_raises_no_warning(self, tmp_path):
        """Also no DeprecationWarning from a fork in a multi-threaded process
        (Python 3.12+). That warning is cleared inside ``os.fork`` when a
        filter turns it into an error, so the second run records warnings."""
        path, cfg = self.changes_stream(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            detect_offline(path, cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            detect_offline(path, cfg)
        assert [str(w.message) for w in caught] == []


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


class TestDeepTree:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_ends_with_one_label_per_task(self, seed):
        """Sets of 51 steps hold 17 whole depth-3 episodes, so every set sees each
        level of the tree equally often: no re-detection is followed by a duplicate
        label, and the four tasks end with four labels."""
        path = Path(__file__).parents[1] / "tools" / "configs" / "deep-tree.cfg"
        config = load_config(path, seed=seed)
        [row] = sweep_beta(config, [config.detector.beta])
        assert row["re_detected_events"] > 0
        assert row["final_labels"] == 4 and row["accuracy"] >= 0.91
