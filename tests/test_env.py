"""Tree environment: rewards, observations, task switching, curriculum."""
import numpy as np
import pytest

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
        # 1,203 observations cross several noise blocks.
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

    def test_total_steps(self):
        assert Curriculum(((1, 3), (2, 4))).total_steps == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            Curriculum(())
        with pytest.raises(ValueError):
            Curriculum(((1, 0),))
        with pytest.raises(ValueError):
            Curriculum(((1, 5),)).task_at(0)
