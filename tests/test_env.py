"""Tree environment: rewards, observations, task switching, curriculum."""
import numpy as np
import pytest

from conftest import env_view

from swoks.env import Curriculum, TaskSpec, TreeGraphConfig, TreeGraphEnv
from swoks.seeding import substream


def make_env(seed=0, sigma=0.05, tasks=None, depth=2, branching=2):
    cfg = TreeGraphConfig(depth=depth, branching=branching,
                          obs_noise_sigma=sigma, env_seed=seed)
    if tasks is None:
        tasks = [TaskSpec(i + 1, i) for i in range(branching ** depth)]
    return TreeGraphEnv(cfg, tasks)


class TestShape:
    def test_depth2_branching2_counts(self):
        env = make_env()
        assert env.n_states == 7  # 1 + 2 + 4
        assert env.n_leaves == 4
        assert env.n_actions == 2

    def test_depth3_branching3_counts(self):
        env = make_env(depth=3, branching=3)
        assert env.n_states == 40  # 1 + 3 + 9 + 27
        assert env.n_leaves == 27

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TreeGraphConfig(depth=0)
        with pytest.raises(ValueError):
            TreeGraphConfig(branching=1)
        with pytest.raises(ValueError):
            TreeGraphConfig(high_reward=-0.1, fail_reward=0.0)

    def test_task_validation(self):
        with pytest.raises(ValueError):
            make_env(tasks=[TaskSpec(1, 4)])  # only leaves 0..3 exist
        with pytest.raises(ValueError):
            make_env(tasks=[TaskSpec(1, 0), TaskSpec(1, 1)])
        with pytest.raises(ValueError):
            make_env(tasks=[])


class TestRewards:
    def test_rewarded_leaf_path(self):
        env = make_env()
        env.set_task(1)  # leaf 0: actions (0, 0)
        env.reset()
        _, r1, d1 = env.step(0)
        assert r1 == 0.0 and not d1
        _, r2, d2 = env.step(0)
        assert r2 == 1.0 and d2

    def test_wrong_leaf_fails(self):
        env = make_env()
        env.set_task(1)
        env.reset()
        env.step(1)
        _, r, done = env.step(1)  # leaf 3
        assert r == -0.1 and done

    def test_every_task_pays_exactly_its_leaf(self):
        env = make_env()
        for task in env.task_ids:
            env.set_task(task)
            pays = []
            for leaf in range(4):
                env.reset()
                a1, a0 = divmod(leaf, 2)
                _, _, _ = env.step(a1)
                _, r, done = env.step(a0)
                assert done
                if r == 1.0:
                    pays.append(leaf)
            assert pays == [task - 1]

    def test_step_after_done_rejected(self):
        env = make_env()
        env.set_task(1)
        env.reset()
        env.step(0)
        env.step(0)
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_bad_action_rejected(self):
        env = make_env()
        env.set_task(1)
        env.reset()
        with pytest.raises(ValueError):
            env.step(2)

    @pytest.mark.parametrize("action",
                             [1.0, np.float64(0.0), 0.5, "1", None, 2, -1, [1], np.True_])
    def test_rejected_action_leaves_the_episode_unchanged(self, action):
        # np.True_ is refused because operator.index refuses it.
        env, fresh = make_env(seed=4), make_env(seed=4)
        for e in (env, fresh):
            e.set_task(2)
            e.reset()
            e.step(0)
        before = env_view(env)
        with pytest.raises(ValueError):
            env.step(action)
        assert env_view(env) == before
        obs, reward, done = env.step(1)
        expected_obs, expected_reward, expected_done = fresh.step(1)
        assert obs.tobytes() == expected_obs.tobytes()
        assert (reward, done) == (expected_reward, expected_done)

    def test_numpy_integer_action_accepted(self):
        # Every type operator.index accepts steps exactly as the int does.
        for action in (np.int64(1), True, np.uint8(1)):
            env, twin = make_env(seed=2), make_env(seed=2)
            for e in (env, twin):
                e.set_task(4)
                e.reset()
            for _ in range(2):
                obs, reward, done = env.step(action)
                expected = twin.step(1)
                assert obs.tobytes() == expected[0].tobytes() and (reward, done) == expected[1:]
                assert type(reward) is type(expected[1])
            assert reward == 1.0 and done


class TestObservations:
    def test_same_observation_across_tasks(self):
        # identical seeds and action sequences give identical obs streams
        obs_by_task = []
        for task in (1, 2):
            env = make_env(seed=9)
            env.set_task(task)
            seq = [env.reset()]
            for a in (0, 1):
                obs, _, _ = env.step(a)
                seq.append(obs)
            obs_by_task.append(np.stack(seq))
        assert np.array_equal(obs_by_task[0], obs_by_task[1])

    def test_zero_sigma_gives_base_vectors(self):
        env = make_env(sigma=0.0)
        env.set_task(1)
        first = env.reset()
        env.step(0)
        env.step(0)
        again = env.reset()
        assert np.array_equal(first, again)

    def test_noise_scale(self):
        env = make_env(sigma=0.05, seed=3)
        env.set_task(1)
        draws = []
        for _ in range(400):
            draws.append(env.reset())  # root obs each time
        draws = np.stack(draws)
        std = draws.std(axis=0).mean()
        assert std == pytest.approx(0.05, rel=0.15)

    def test_block_draws_equal_per_call_draws(self):
        gen = substream(0, "g")
        block = gen.standard_normal((300, 16))
        again = substream(0, "g")
        assert all(np.array_equal(r, again.standard_normal(16)) for r in block)

    def test_observations_equal_the_per_call_noise_formula(self):
        # 1,203 observations, each drawn as it is made.
        base = make_env(seed=4, sigma=0.0)
        noisy = make_env(seed=4, sigma=0.05)
        per_call = substream(4, "tree-obs-noise")
        rng = np.random.default_rng(0)
        for env in (base, noisy):
            env.set_task(1)

        def expected(base_obs):
            return base_obs + 0.05 * per_call.standard_normal(16)

        for _ in range(401):
            assert np.array_equal(noisy.reset(), expected(base.reset()))
            done = False
            while not done:
                a = int(rng.integers(2))
                obs, _, done = noisy.step(a)
                assert np.array_equal(obs, expected(base.step(a)[0]))

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_noise_is_drawn_no_further_than_asked(self, depth):
        """A plan draws the rows of its episodes, an observation its own row, and
        neither a row more; a rollout draws none, its plan drew its rows."""
        env = make_env(depth=depth)
        env.set_task(1)

        def ahead() -> int:
            """Rows drawn from the cursor on."""
            return env._first + len(env._noise_rows) - env.cursor

        env.reset()
        assert ahead() == 0
        env.step(0)
        assert ahead() == 0
        for episodes, drawn in zip((1, 5, 3, 40), (1, 5, 5, 40)):
            env.plan(episodes)  # a shorter plan than the last draws nothing
            assert ahead() == drawn * (depth + 1)
        env.rollout(2 * depth, lambda steps, rows: np.zeros(len(steps), dtype=int))
        assert ahead() == 38 * (depth + 1)  # the rest of the last plan
        env.plan(40)  # the next rollout's plan
        assert ahead() == 40 * (depth + 1)
        env.rollout(40 * depth, lambda steps, rows: np.zeros(len(steps), dtype=int))
        assert ahead() == 0
        drawn = env._first + len(env._noise_rows)
        env.rollout(3 * depth, lambda steps, rows: np.zeros(len(steps), dtype=int))
        assert env._first + len(env._noise_rows) == drawn  # no plan: nothing drawn

    @pytest.mark.parametrize("depth, branching", [(1, 2), (2, 3), (3, 2)])
    def test_rollout_rows_name_the_observations_of_its_plan(self, depth, branching):
        """Row ``episode * N + node`` of a plan made at a rollout's start is what
        ``reset``/``step`` observe there with the same actions, and the env ends
        where that play ends."""
        env, twin = (make_env(depth=depth, branching=branching) for _ in range(2))
        for e in (env, twin):
            e.set_task(2)
            e.reset()  # the rollout starts mid-stream and mid-episode
        plan = np.concatenate(env.plan(7))  # (7 * N, obs_dim), episode after episode
        choices = np.random.default_rng(depth)
        seen = []

        def choose(steps, rows):
            seen.append(plan[rows])
            return choices.integers(branching, size=len(rows))

        actions, rewards = env.rollout(7 * depth, choose)
        actions, rewards = actions.reshape(7, depth), rewards.reshape(7, depth)
        for episode in range(7):
            obs = twin.reset()
            for level in range(depth):
                assert obs.tobytes() == seen[level][episode].tobytes()
                obs, reward, _ = twin.step(int(actions[episode, level]))
                assert reward == rewards[episode, level]
        assert env_view(env) == env_view(twin)

    @pytest.mark.parametrize("episodes", [0, -1])
    def test_plan_refuses_fewer_than_one_episode(self, episodes):
        env = make_env(depth=3)
        env.set_task(1)
        env.plan(2)
        env.reset()
        before = env_view(env)
        with pytest.raises(ValueError, match=rf"at least one episode, got {episodes}$"):
            env.plan(episodes)
        assert env_view(env) == before

    def test_deterministic_given_seed(self):
        def run(seed):
            env = make_env(seed=seed)
            env.set_task(2)
            out = [env.reset()]
            for a in (1, 0):
                obs, r, _ = env.step(a)
                out.append(obs)
            return np.stack(out), r

        o1, r1 = run(5)
        o2, r2 = run(5)
        assert np.array_equal(o1, o2) and r1 == r2


class TestTaskSwitching:
    def test_applies_at_next_reset(self):
        env = make_env()
        env.set_task(1)
        env.reset()
        env.set_task(4)  # mid-episode: must not apply yet
        env.step(0)
        _, r, done = env.step(0)
        assert done and r == 1.0  # still task 1
        env.reset()
        env.step(1)
        _, r, _ = env.step(1)  # leaf 3 = task 4's leaf
        assert r == 1.0

    def test_unknown_task_rejected(self):
        env = make_env()
        with pytest.raises(KeyError):
            env.set_task(99)

    def test_reset_without_task_rejected(self):
        env = make_env()
        with pytest.raises(RuntimeError):
            env.reset()
        with pytest.raises(RuntimeError):
            env.active_task


class TestCurriculum:
    def test_segment_lookup(self):
        cur = Curriculum(((1, 100), (2, 100)))
        assert cur.task_at(50) == 1
        assert cur.task_at(100) == 1
        assert cur.task_at(101) == 2
        assert cur.task_at(150) == 2

    def test_final_task_persists(self):
        cur = Curriculum(((1, 100), (2, 100)))
        assert cur.task_at(1000) == 2

    @pytest.mark.parametrize("segments", [
        ((1, 1),),
        ((1, 100), (2, 100)),
        ((3, 1), (1, 1), (2, 5), (3, 1), (1, 7)),
        ((2, 50), (2, 50), (1, 3)),
    ])
    def test_lookup_matches_the_linear_scan(self, segments):
        def linear(t):
            """(task, last step) of the segment governing ``t``."""
            upto = 0
            for task_id, duration in segments:
                upto += duration
                if t <= upto:
                    return task_id, upto
            return segments[-1][0], upto

        cur = Curriculum(segments)
        ends = np.cumsum([d for _, d in segments]).tolist()
        probes = {1, ends[-1] + 1, ends[-1] + 1000}
        for end in ends:
            probes.update((end - 1, end, end + 1))
        for t in sorted(p for p in probes if p >= 1):
            assert cur.segment(t) == linear(t), t
            assert cur.task_at(t) == linear(t)[0], t
        for t in (0, -3):
            with pytest.raises(ValueError):
                cur.task_at(t)
            with pytest.raises(ValueError):
                cur.segment(t)

    def test_total_steps(self):
        assert Curriculum(((1, 3), (2, 4))).total_steps == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            Curriculum(())
        with pytest.raises(ValueError):
            Curriculum(((1, 0),))
        with pytest.raises(ValueError):
            Curriculum(((1, 5),)).task_at(0)
