"""Encoder, policy gradient, and the checkpoint/rollback protocol."""
import copy
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FixedDraw, bad_banks, greedy_action, record_episode
from oracles import episode_gradient, episode_log_prob

from swoks.agent import (
    BASELINE_RATE,
    Encoder,
    EpisodeBuffer,
    Policy,
    PolicyBank,
    _inverse_cdf,
    _sum,
)


def random_episode(rng, n_steps=2, latent_dim=4, n_actions=2):
    return [
        (rng.normal(size=latent_dim), int(rng.integers(n_actions)), float(rng.normal()))
        for _ in range(n_steps)
    ]


def fd_gradient(params, episode, h=1e-5):
    """Central finite differences of the episode log probability."""
    grad = np.zeros_like(params)
    for i in range(params.shape[0]):
        for j in range(params.shape[1]):
            up = params.copy()
            up[i, j] += h
            down = params.copy()
            down[i, j] -= h
            grad[i, j] = (episode_log_prob(up, episode) - episode_log_prob(down, episode)) / (2 * h)
    return grad


class TestEncoder:
    def test_zero_maps_to_zero(self):
        enc = Encoder(obs_dim=6, latent_dim=3, seed=0)
        assert np.array_equal(enc.encode(np.zeros(6)), np.zeros(3))

    def test_deterministic(self):
        enc = Encoder(obs_dim=5, latent_dim=4, seed=1)
        obs = np.random.default_rng(0).normal(size=5)
        assert np.array_equal(enc.encode(obs), enc.encode(obs))

    def test_bounded(self):
        enc = Encoder(obs_dim=8, latent_dim=8, seed=2)
        obs = np.random.default_rng(1).normal(size=8) * 100
        assert np.max(np.abs(enc.encode(obs))) <= 1.0

    def test_same_seed_same_projection(self):
        obs = np.random.default_rng(2).normal(size=7)
        a = Encoder(7, 3, seed=9).encode(obs)
        b = Encoder(7, 3, seed=9).encode(obs)
        assert np.array_equal(a, b)

    def test_shape_check(self):
        enc = Encoder(obs_dim=4, latent_dim=2, seed=0)
        with pytest.raises(ValueError):
            enc.encode(np.zeros(5))


class TestPolicyBasics:
    def test_zero_params_uniform(self):
        pol = Policy(n_actions=3, latent_dim=4)
        probs = pol.action_probs(np.ones(4))
        assert np.allclose(probs, 1 / 3)

    def test_probs_normalized(self):
        rng = np.random.default_rng(0)
        pol = Policy(n_actions=4, latent_dim=5)
        pol.params = rng.normal(size=pol.params.shape) * 3
        for _ in range(20):
            probs = pol.action_probs(rng.normal(size=5))
            assert abs(probs.sum() - 1.0) <= 1e-9
            assert np.all(probs >= 0)

    def test_greedy_deterministic(self):
        rng = np.random.default_rng(1)
        pol = Policy(n_actions=3, latent_dim=4)
        pol.params = rng.normal(size=pol.params.shape)
        phi = rng.normal(size=4)
        assert greedy_action(pol, phi) == greedy_action(pol, phi)

    def test_sampling_matches_probs(self):
        # frequency check over 10^4 draws, 3 sigma binomial bound
        rng = np.random.default_rng(7)
        pol = Policy(n_actions=3, latent_dim=2)
        pol.params = np.array([[0.5, -0.2, 0.1], [0.0, 0.3, -0.4], [-0.1, 0.2, 0.3]])
        phi = np.array([0.4, -0.7])
        probs = pol.action_probs(phi)
        n = 10_000
        buffer = EpisodeBuffer(3, 2, n)
        counts = np.bincount([pol.act(phi, rng, buffer) for _ in range(n)], minlength=3)
        for a in range(3):
            sigma = np.sqrt(n * probs[a] * (1 - probs[a]))
            assert abs(counts[a] - n * probs[a]) <= 3 * sigma

    def test_validation(self):
        with pytest.raises(ValueError):
            Policy(n_actions=1, latent_dim=2)
        with pytest.raises(ValueError):
            Policy(n_actions=2, latent_dim=2, learning_rate=0.0)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(123)
        max_rel = 0.0
        for _ in range(50):
            params = rng.normal(size=(3, 5)) * 0.5
            episode = random_episode(rng, n_steps=int(rng.integers(1, 4)),
                                     latent_dim=4, n_actions=3)
            analytic = episode_gradient(params, episode)
            numeric = fd_gradient(params, episode)
            denom = max(np.linalg.norm(numeric), 1e-12)
            max_rel = max(max_rel, np.linalg.norm(analytic - numeric) / denom)
        assert max_rel <= 1e-4

    def test_zero_advantage_skips_update(self):
        pol = Policy(n_actions=2, latent_dim=3)
        pol.baseline = 1.0
        episode = [(np.ones(3), 0, 1.0)]  # return equals baseline
        before = pol.params.copy()
        pol.update(record_episode(pol, episode))
        assert np.array_equal(pol.params, before)
        assert pol.update_count == 1

    def test_baseline_ema(self):
        pol = Policy(n_actions=2, latent_dim=2)
        episode = [(np.zeros(2), 0, 1.0)]
        pol.update(record_episode(pol, episode))
        assert pol.baseline == pytest.approx(BASELINE_RATE * 1.0)
        pol.update(record_episode(pol, episode))
        expected = BASELINE_RATE + BASELINE_RATE * (1.0 - BASELINE_RATE)
        assert pol.baseline == pytest.approx(expected)

    def test_training_reaches_greedy_optimum(self):
        # reward the (0, 1) path; 200 episodes of on-policy REINFORCE
        rng = np.random.default_rng(5)
        pol = Policy(n_actions=2, latent_dim=3, learning_rate=0.15)
        phi_root = np.array([0.3, -0.2, 0.6])
        phi_mid = np.array([-0.5, 0.1, 0.2])
        episode = EpisodeBuffer(2, 3, 2)
        for _ in range(200):
            episode.clear()
            a1 = pol.act(phi_root, rng, episode)
            episode.rewards.append(0.0)
            a2 = pol.act(phi_mid, rng, episode)
            episode.rewards.append(1.0 if (a1, a2) == (0, 1) else -0.1)
            pol.update(episode)
        assert greedy_action(pol, phi_root) == 0
        assert greedy_action(pol, phi_mid) == 1

    def test_empty_episode_rejected(self):
        with pytest.raises(ValueError):
            Policy(2, 2).update(EpisodeBuffer(2, 2, 1))


def searchsorted_index(probs, u):
    """The sampling formula the inverse-CDF loop replaced."""
    return int(min(np.searchsorted(np.cumsum(probs), u, side="right"), len(probs) - 1))


def softmax_probs(params, phi):
    """The action probabilities ``Policy.act`` sampled from before the fast path."""
    x = np.concatenate([np.asarray(phi, dtype=float), [1.0]])
    logits = params @ x
    e = np.exp(logits - logits.max())
    return e / e.sum()


def outer_sum_gradient(params, episode):
    """The per-step formula the batched gradient replaced."""
    grad = np.zeros_like(params)
    for phi, action, _ in episode:
        x = np.concatenate([np.asarray(phi, dtype=float), [1.0]])
        coeff = -softmax_probs(params, phi)
        coeff[action] += 1.0
        grad += np.outer(coeff, x)
    return grad


LAST_DRAW = 1.0 - 2.0 ** -53  # the largest value Generator.random returns


def boundary_draws(probs):
    """Every running-sum boundary of ``probs`` and its two neighbours, within [0, 1)."""
    draws = {0.0, LAST_DRAW}
    for c in np.cumsum(probs).tolist():
        draws.update((np.nextafter(c, -1.0), c, np.nextafter(c, 2.0)))
    return sorted(float(u) for u in draws if 0.0 <= u < 1.0)


class TestFastPathEquivalence:
    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_inverse_cdf_matches_searchsorted(self, weights):
        probs = [w / sum(weights) for w in weights] if sum(weights) > 0 else weights
        for u in boundary_draws(probs):
            assert _inverse_cdf(probs, u) == searchsorted_index(probs, u)

    def test_inverse_cdf_when_the_sum_rounds_below_one(self):
        probs = [0.1] * 10
        assert np.cumsum(probs)[-1] < 1.0
        for u in (np.cumsum(probs)[-1], np.nextafter(1.0, 0.0), LAST_DRAW):
            assert _inverse_cdf(probs, float(u)) == searchsorted_index(probs, u) == 9

    @given(st.lists(st.floats(-1e300, 1e300), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_sum_is_numpy_sum(self, values):
        assert _sum(values) == np.sum(np.array(values, dtype=float))

    def test_sum_is_numpy_sum_on_rounding_values(self):
        # Probabilities-like values whose sum rounds differently by order.
        rng = np.random.default_rng(2)
        for n in range(41):
            for _ in range(20):
                values = rng.random(n).tolist()
                assert _sum(values) == np.sum(np.array(values))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 10), st.integers(1, 6),
           st.sampled_from([0.1, 1.0, 10.0, 300.0]))
    @settings(max_examples=100, deadline=None)
    def test_act_matches_old_formula_on_every_boundary(self, seed, n_actions, latent_dim, scale):
        rng = np.random.default_rng(seed)
        pol = Policy(n_actions=n_actions, latent_dim=latent_dim)
        pol.params = rng.normal(size=pol.params.shape) * scale
        phi = rng.normal(size=latent_dim)
        probs = softmax_probs(pol.params, phi)
        assert np.array_equal(pol.action_probs(phi), probs)
        draws = boundary_draws(probs)
        buffer = EpisodeBuffer(n_actions, latent_dim, len(draws))
        for u in draws:
            assert pol.act(phi, FixedDraw(u), buffer) == searchsorted_index(probs, u)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 10), st.integers(1, 6),
           st.integers(1, 20), st.sampled_from([0.1, 1.0, 10.0, 1000.0]))
    @settings(max_examples=100, deadline=None)
    def test_batched_gradient_matches_outer_sum(self, seed, n_actions, latent_dim, n_steps,
                                                scale):
        rng = np.random.default_rng(seed)
        params = rng.normal(size=(n_actions, latent_dim + 1)) * scale
        episode = random_episode(rng, n_steps, latent_dim, n_actions)
        batched = episode_gradient(params, episode)
        assert batched.tobytes() == outer_sum_gradient(params, episode).tobytes()

    def test_update_matches_outer_sum_step(self):
        rng = np.random.default_rng(11)
        pol = Policy(n_actions=3, latent_dim=4, learning_rate=0.15)
        pol.params = rng.normal(size=pol.params.shape)
        pol.baseline = 0.25
        episode = random_episode(rng, n_steps=5, latent_dim=4, n_actions=3)
        advantage = sum(r for _, _, r in episode) - 0.25
        expected = pol.params + 0.15 * advantage * outer_sum_gradient(pol.params, episode)
        pol.update(record_episode(pol, episode))
        assert pol.params.tobytes() == expected.tobytes()

    def test_phi_of_the_wrong_shape_is_rejected(self):
        pol = Policy(n_actions=2, latent_dim=3)
        episode = EpisodeBuffer(2, 3, 1)
        for phi in ([0.5], np.zeros(4), np.zeros((1, 3))):
            with pytest.raises(ValueError):
                pol.act(phi, FixedDraw(0.5), episode)
            with pytest.raises(ValueError):
                pol.action_probs(phi)
        assert episode.n == 0 and np.all(episode.x[:, -1] == 1.0)

    @given(st.integers(1, 11), st.integers(1, 19), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_dot_is_matmul_on_encoder_shapes(self, latent_dim, obs_dim, seed):
        rng = np.random.default_rng(seed)
        enc = Encoder(obs_dim, latent_dim, seed=seed)
        obs = rng.normal(size=obs_dim) * 10.0
        assert enc._w.dot(obs).tobytes() == (enc._w @ obs).tobytes()
        assert enc.encode(obs).tobytes() == np.tanh(enc._w @ obs).tobytes()

    @given(st.integers(2, 12), st.integers(1, 9), st.integers(0, 2**32 - 1),
           st.sampled_from([0.1, 1.0, 10.0, 300.0]))
    @settings(max_examples=300, deadline=None)
    def test_dot_is_matmul_on_policy_shapes(self, n_actions, latent_dim, seed, scale):
        rng = np.random.default_rng(seed)
        params = rng.normal(size=(n_actions, latent_dim + 1)) * scale
        rows = np.ones((3, latent_dim + 1))  # a buffer row is a view into a larger array
        rows[1, :-1] = rng.normal(size=latent_dim)
        assert params.dot(rows[1]).tobytes() == (params @ rows[1].copy()).tobytes()


class TestRowWisePaths:
    """The stacked encoder of plans and probes, and the probe's sampler, against
    the per-step ones."""

    @given(st.integers(1, 11), st.integers(1, 19), st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_encode_rows_equal_encode(self, latent_dim, obs_dim, rows, seed):
        rng = np.random.default_rng(seed)
        enc = Encoder(obs_dim, latent_dim, seed=seed)
        obs = rng.normal(size=(rows, obs_dim)) * 10.0
        per_row = np.array([enc.encode(o) for o in obs])
        assert enc.encode_rows(obs).tobytes() == per_row.tobytes()

    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 9), st.integers(1, 40),
           st.sampled_from([0.1, 1.0, 10.0, 300.0]))
    @settings(max_examples=200, deadline=None)
    def test_act_rows_equals_act_per_row(self, seed, n_actions, latent_dim, rows, scale):
        # Half the draws sit on a running-sum boundary of their row or next to one.
        # 8 or more actions take numpy's pairwise sum.
        rng = np.random.default_rng(seed)
        pol = Policy(n_actions=n_actions, latent_dim=latent_dim)
        pol.params = rng.normal(size=pol.params.shape) * scale
        phi = rng.normal(size=(rows, latent_dim))
        draws = [float(rng.choice(boundary_draws(pol.action_probs(p)))) if rng.random() < 0.5
                 else float(rng.random()) for p in phi]
        buffer = EpisodeBuffer(n_actions, latent_dim, rows)
        expected = [pol.act(p, FixedDraw(u), buffer) for p, u in zip(phi, draws)]
        x = np.append(phi, np.ones((rows, 1)), axis=1)  # the feature rows [phi; 1]
        assert pol.act_rows(x, np.array(draws)).tolist() == expected


class TestEpisodeBuffer:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 9),
           st.sampled_from([0.1, 1.0, 10.0, 30.0, 300.0]),
           st.lists(st.tuples(st.integers(1, 25), st.booleans(), st.integers(0, 25)),
                    min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_act_and_update_equal_the_reference(self, seed, n_actions, latent_dim, scale,
                                                 episodes):
        # Each episode is (steps, aborted, probe_at): an aborted episode is
        # dropped without an update; a probe's act_rows runs before step
        # probe_at. 8 or more actions take numpy's sum.
        data = np.random.default_rng(seed)
        pol = Policy(n_actions=n_actions, latent_dim=latent_dim, learning_rate=0.1)
        pol.params = data.normal(size=pol.params.shape) * scale
        ref = copy.deepcopy(pol)
        for n_steps, aborted, probe_at in episodes:
            buffer = EpisodeBuffer(n_actions, latent_dim, n_steps)
            phis = [data.normal(size=latent_dim) for _ in range(n_steps)]
            draws = data.random(n_steps).tolist()
            rewards = data.normal(size=n_steps).tolist()
            expected = [searchsorted_index(ref.action_probs(phi), u)
                        for phi, u in zip(phis, draws)]
            for t, (phi, u, reward) in enumerate(zip(phis, draws, rewards)):
                if t == probe_at:
                    before = (buffer.x.tobytes(), buffer.coeff.tobytes(), buffer.n)
                    x = np.append(data.normal(size=(3, latent_dim)), np.ones((3, 1)), axis=1)
                    pol.act_rows(x, data.random(3))
                    assert (buffer.x.tobytes(), buffer.coeff.tobytes(), buffer.n) == before
                assert pol.act(phi, FixedDraw(u), buffer) == expected[t]
                buffer.rewards.append(reward)
            assert buffer.n == n_steps
            probs = np.array([ref.action_probs(phi) for phi in phis])
            coeff = -probs
            coeff[np.arange(n_steps), expected] += 1.0
            assert buffer.coeff[:n_steps].tobytes() == coeff.tobytes()
            assert buffer.x[:n_steps].tobytes() == np.append(phis, np.ones((n_steps, 1)),
                                                             axis=1).tobytes()
            if aborted:
                continue
            steps = list(zip(phis, expected, rewards))
            advantage = float(sum(rewards)) - ref.baseline
            ref.params = ref.params + 0.1 * advantage * episode_gradient(ref.params, steps)
            ref.baseline += BASELINE_RATE * (float(sum(rewards)) - ref.baseline)
            pol.update(buffer)
            assert pol.params.tobytes() == ref.params.tobytes()
            assert pol.baseline == ref.baseline

    def test_update_rejects_a_reward_per_step_mismatch(self):
        rng = np.random.default_rng(4)
        pol = Policy(n_actions=3, latent_dim=2)
        buffer = EpisodeBuffer(3, 2, 3)
        for _ in range(3):
            pol.act(rng.normal(size=2), rng, buffer)
        buffer.rewards.extend([1.0, 1.0])
        with pytest.raises(ValueError):
            pol.update(buffer)
        buffer.rewards.extend([1.0, 1.0])
        with pytest.raises(ValueError):
            pol.update(buffer)
        assert pol.update_count == 0 and not pol.params.any()

    def test_a_buffer_has_at_least_one_step(self):
        for steps in (0, -1):
            with pytest.raises(ValueError, match="steps must be >= 1"):
                EpisodeBuffer(3, 2, steps)

    def test_a_step_past_the_last_row_writes_nothing(self):
        rng = np.random.default_rng(6)
        pol = Policy(n_actions=3, latent_dim=2)
        pol.params = rng.normal(size=pol.params.shape)
        buffer = EpisodeBuffer(3, 2, 2)
        for _ in range(2):
            pol.act(rng.normal(size=2), rng, buffer)
        before = (buffer.x.tobytes(), buffer.coeff.tobytes(), buffer.n)
        with pytest.raises(IndexError):
            pol.act(rng.normal(size=2), rng, buffer)
        assert (buffer.x.tobytes(), buffer.coeff.tobytes(), buffer.n) == before

    def test_update_refuses_a_partly_filled_buffer(self):
        rng = np.random.default_rng(8)
        pol = Policy(n_actions=3, latent_dim=2)
        pol.params = rng.normal(size=pol.params.shape)
        pol.baseline, pol.update_count = 0.5, 7
        before = (pol.params.tobytes(), pol.update_count, pol.baseline)
        buffer = EpisodeBuffer(3, 2, 3)
        for _ in range(2):
            pol.act(rng.normal(size=2), rng, buffer)
            buffer.rewards.append(1.0)
            with pytest.raises(ValueError, match=f"episode holds {buffer.n} of its 3 steps"):
                pol.update(buffer)
            assert (pol.params.tobytes(), pol.update_count, pol.baseline) == before


class TestBankCheckpoints:
    def run_updates(self, bank, label, n, episode=None):
        pol = bank.get_or_create(label)
        episode = episode or [(np.zeros(2), 0, 0.5)]
        for _ in range(n):
            pol.update(record_episode(pol, episode))
            bank.backup_if_due(label)
        return pol

    def test_first_checkpoint_at_freq(self):
        bank = PolicyBank(2, 2, backup_freq=50)
        self.run_updates(bank, 1, 49)
        assert bank.checkpoint_iterations(1) == []
        self.run_updates(bank, 1, 1)
        assert bank.checkpoint_iterations(1) == [50]

    def test_two_checkpoints_then_sliding(self):
        bank = PolicyBank(2, 2, backup_freq=50)
        self.run_updates(bank, 1, 100)
        assert bank.checkpoint_iterations(1) == [50, 100]
        self.run_updates(bank, 1, 49)
        assert bank.checkpoint_iterations(1) == [50, 100]
        self.run_updates(bank, 1, 1)
        assert bank.checkpoint_iterations(1) == [100, 150]

    def test_rollback_restores_older(self):
        # checkpoints at 50 and 100; detection at 130 restores 50
        bank = PolicyBank(2, 2, backup_freq=50)
        pol = self.run_updates(bank, 1, 100)
        params_at_50 = None
        # recreate the historical params by replaying deterministically
        twin_bank = PolicyBank(2, 2, backup_freq=50)
        twin = self.run_updates(twin_bank, 1, 50)
        params_at_50 = twin.params.copy()
        self.run_updates(bank, 1, 30)  # live at 130
        assert bank.rollback(1) == 50
        assert np.array_equal(pol.params, params_at_50)
        assert pol.update_count == 50
        assert pol.baseline == 0.0
        assert bank.checkpoint_iterations(1) == [50]

    def test_rollback_safety_margin(self):
        bank = PolicyBank(2, 2, backup_freq=10)
        pol = self.run_updates(bank, 1, 37)
        assert bank.checkpoint_iterations(1) == [20, 30]
        restored = bank.rollback(1)
        assert restored == 20
        assert restored <= 37 - bank.backup_freq

    def test_rollback_without_checkpoint_is_noop(self):
        bank = PolicyBank(2, 2, backup_freq=50)
        pol = self.run_updates(bank, 1, 10)
        before = pol.params.copy()
        assert bank.rollback(1) is None
        assert np.array_equal(pol.params, before)

    def test_single_checkpoint_restores_it(self):
        bank = PolicyBank(2, 2, backup_freq=50)
        self.run_updates(bank, 1, 60)
        assert bank.rollback(1) == 50

    def test_label_isolation(self):
        rng = np.random.default_rng(3)
        bank = PolicyBank(2, 2, backup_freq=50)
        other = bank.get_or_create(2)
        frozen = other.params.copy()
        episode = [(rng.normal(size=2), 1, 1.0)]
        self.run_updates(bank, 1, 5, episode=episode)
        assert np.array_equal(other.params, frozen)

    def test_get_or_create_stable_identity(self):
        bank = PolicyBank(2, 2)
        assert bank.get_or_create(1) is bank.get_or_create(1)

    def test_unknown_label_queries(self):
        bank = PolicyBank(2, 2)
        with pytest.raises(KeyError):
            bank.checkpoint_iterations(9)
        with pytest.raises(KeyError):
            bank.rollback(9)


class TestBankSerialization:
    @staticmethod
    def random_bank(labels=(1, 2, 5)) -> PolicyBank:
        rng = np.random.default_rng(0)
        bank = PolicyBank(3, 4, backup_freq=10)
        for label in labels:
            pol = bank.get_or_create(label)
            pol.params = rng.normal(size=pol.params.shape) * 10.0 ** rng.integers(-300, 300, size=(3, 5))
            pol.update_count = label * 7
        return bank

    def test_round_trip(self, tmp_path):
        bank = self.random_bank()
        path = tmp_path / "bank.npz"
        bank.save(path)
        loaded = PolicyBank(3, 4, backup_freq=10)
        loaded.load(path)
        assert loaded.labels() == [1, 2, 5]
        for label in (1, 2, 5):
            a = bank.get_or_create(label)
            b = loaded.get_or_create(label)
            assert a.params.tobytes() == b.params.tobytes()
            assert a.update_count == b.update_count
            assert b.baseline == 0.0
            assert loaded.checkpoint_iterations(label) == []

    def test_archive_layout(self, tmp_path):
        bank = self.random_bank()
        path = tmp_path / "bank"  # no suffix added
        bank.save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["bank"]
        with np.load(path, allow_pickle=False) as archive:
            assert sorted(archive.files) == ["iterations", "labels", "params"]
            assert archive["labels"].dtype == np.int64
            assert archive["labels"].tolist() == [1, 2, 5]
            assert archive["iterations"].dtype == np.int64
            assert archive["iterations"].tolist() == [7, 14, 35]
            assert archive["params"].shape == (3, 3, 5)
            assert archive["params"][2].tobytes() == bank.get_or_create(5).params.tobytes()

    def test_saves_are_byte_identical(self, tmp_path):
        bank = self.random_bank()
        bank.save(tmp_path / "a")
        bank.save(tmp_path / "b")
        loaded = PolicyBank(3, 4)
        loaded.load(tmp_path / "a")
        loaded.save(tmp_path / "c")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
        assert (tmp_path / "a").read_bytes() == (tmp_path / "c").read_bytes()

    def test_empty_bank_round_trip(self, tmp_path):
        PolicyBank(3, 4).save(tmp_path / "bank.npz")
        loaded = PolicyBank(3, 4)
        loaded.load(tmp_path / "bank.npz")
        assert loaded.labels() == []

    def test_shape_mismatch_rejected(self, tmp_path):
        bank = PolicyBank(3, 4)
        bank.get_or_create(1)
        path = tmp_path / "bank.npz"
        bank.save(path)
        other = PolicyBank(2, 4)
        with pytest.raises(ValueError):
            other.load(path)

    @pytest.mark.parametrize("case", sorted(bad_banks(3, 4)))
    def test_bad_file_rejected_without_change(self, tmp_path, case):
        data, message = bad_banks(3, 4)[case]
        path = tmp_path / "bank.npz"
        path.write_bytes(data)
        bank = PolicyBank(3, 4)
        bank.get_or_create(1).params += 1.0
        pattern = rf"^{re.escape(str(path))}: .*{re.escape(message)}"
        with pytest.raises(ValueError, match=pattern) as exc:
            bank.load(path)
        assert "allow_pickle" not in str(exc.value)  # numpy's advice to unpickle never shows
        assert bank.labels() == [1]
        assert (bank.get_or_create(1).params == 1.0).all()

    def test_missing_file_is_an_oserror(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            PolicyBank(3, 4).load(tmp_path / "absent.npz")
