"""Encoder, policy gradient, and the checkpoint/rollback protocol."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swoks.agent import (
    BASELINE_RATE,
    Encoder,
    Policy,
    PolicyBank,
    _episode_features,
    _episode_probs,
    _gradient,
    _inverse_cdf,
    _sum,
    episode_gradient,
    episode_log_prob,
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
        assert pol.act_greedy(phi) == pol.act_greedy(phi)

    def test_sampling_matches_probs(self):
        # frequency check over 10^4 draws, 3 sigma binomial bound
        rng = np.random.default_rng(7)
        pol = Policy(n_actions=3, latent_dim=2)
        pol.params = np.array([[0.5, -0.2, 0.1], [0.0, 0.3, -0.4], [-0.1, 0.2, 0.3]])
        phi = np.array([0.4, -0.7])
        probs = pol.action_probs(phi)
        n = 10_000
        counts = np.bincount([pol.act(phi, rng) for _ in range(n)], minlength=3)
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
        pol.update(episode)
        assert np.array_equal(pol.params, before)
        assert pol.update_count == 1

    def test_baseline_ema(self):
        pol = Policy(n_actions=2, latent_dim=2)
        episode = [(np.zeros(2), 0, 1.0)]
        pol.update(episode)
        assert pol.baseline == pytest.approx(BASELINE_RATE * 1.0)
        pol.update(episode)
        expected = BASELINE_RATE + BASELINE_RATE * (1.0 - BASELINE_RATE)
        assert pol.baseline == pytest.approx(expected)

    def test_training_reaches_greedy_optimum(self):
        # reward the (0, 1) path; 200 episodes of on-policy REINFORCE
        rng = np.random.default_rng(5)
        pol = Policy(n_actions=2, latent_dim=3, learning_rate=0.15)
        phi_root = np.array([0.3, -0.2, 0.6])
        phi_mid = np.array([-0.5, 0.1, 0.2])
        for _ in range(200):
            a1 = pol.act(phi_root, rng)
            a2 = pol.act(phi_mid, rng)
            reward = 1.0 if (a1, a2) == (0, 1) else -0.1
            pol.update([(phi_root, a1, 0.0), (phi_mid, a2, reward)])
        assert pol.act_greedy(phi_root) == 0
        assert pol.act_greedy(phi_mid) == 1

    def test_empty_episode_rejected(self):
        with pytest.raises(ValueError):
            Policy(2, 2).update([])


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


class FixedDraw:
    """Stands in for a Generator whose every uniform draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


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
        for u in boundary_draws(probs):
            assert pol.act(phi, FixedDraw(u)) == searchsorted_index(probs, u)

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

    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 9),
           st.integers(1, 25), st.sampled_from([0.1, 1.0, 10.0, 30.0, 300.0]))
    @settings(max_examples=200, deadline=None)
    def test_recorded_probabilities_give_the_recomputed_gradient(
            self, seed, n_actions, latent_dim, n_steps, scale):
        # Probabilities recorded by act under fixed params, as the runner
        # keeps them over a live episode; 8 or more actions take numpy's sum.
        rng = np.random.default_rng(seed)
        pol = Policy(n_actions=n_actions, latent_dim=latent_dim)
        pol.params = rng.normal(size=pol.params.shape) * scale
        episode, probs = [], []
        for _ in range(n_steps):
            phi = rng.normal(size=latent_dim)
            episode.append((phi, pol.act(phi, rng, probs), float(rng.normal())))
        assert np.array(probs).tobytes() == _episode_probs(pol.params, episode)[2].tobytes()
        x, actions = _episode_features(episode, latent_dim + 1)
        recorded = _gradient(x, actions, probs)
        assert recorded.tobytes() == episode_gradient(pol.params, episode).tobytes()
        twin = pol.clone()
        pol.update(episode, probs)
        twin.update(episode)
        assert pol.params.tobytes() == twin.params.tobytes()

    def test_update_rejects_a_probability_row_per_step_mismatch(self):
        rng = np.random.default_rng(4)
        pol = Policy(n_actions=3, latent_dim=2)
        episode, probs = [], []
        for _ in range(3):
            phi = rng.normal(size=2)
            episode.append((phi, pol.act(phi, rng, probs), 1.0))
        with pytest.raises(ValueError):
            pol.update(episode, probs[:2])
        with pytest.raises(ValueError):
            pol.update(episode, probs + probs[:1])
        assert pol.update_count == 0

    def test_update_matches_outer_sum_step(self):
        rng = np.random.default_rng(11)
        pol = Policy(n_actions=3, latent_dim=4, learning_rate=0.15)
        pol.params = rng.normal(size=pol.params.shape)
        pol.baseline = 0.25
        episode = random_episode(rng, n_steps=5, latent_dim=4, n_actions=3)
        advantage = sum(r for _, _, r in episode) - 0.25
        expected = pol.params + 0.15 * advantage * outer_sum_gradient(pol.params, episode)
        pol.update(episode)
        assert pol.params.tobytes() == expected.tobytes()

    def test_phi_of_the_wrong_shape_is_rejected(self):
        pol = Policy(n_actions=2, latent_dim=3)
        for phi in ([0.5], np.zeros(4), np.zeros((1, 3))):
            with pytest.raises(ValueError):
                pol.act(phi, FixedDraw(0.5))


class TestBankCheckpoints:
    def run_updates(self, bank, label, n, episode=None):
        pol = bank.get_or_create(label)
        episode = episode or [(np.zeros(2), 0, 0.5)]
        for _ in range(n):
            pol.update(episode)
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
        result = bank.rollback(1)
        assert result.restored_iteration == 50
        assert np.array_equal(result.policy.params, params_at_50)
        assert result.policy.update_count == 50
        assert result.policy.baseline == 0.0
        assert bank.checkpoint_iterations(1) == [50]

    def test_rollback_safety_margin(self):
        bank = PolicyBank(2, 2, backup_freq=10)
        pol = self.run_updates(bank, 1, 37)
        assert bank.checkpoint_iterations(1) == [20, 30]
        res = bank.rollback(1)
        assert res.restored_iteration == 20
        assert res.restored_iteration <= 37 - bank.backup_freq

    def test_rollback_without_checkpoint_is_noop(self):
        bank = PolicyBank(2, 2, backup_freq=50)
        pol = self.run_updates(bank, 1, 10)
        before = pol.params.copy()
        res = bank.rollback(1)
        assert res.restored_iteration is None
        assert np.array_equal(pol.params, before)

    def test_single_checkpoint_restores_it(self):
        bank = PolicyBank(2, 2, backup_freq=50)
        self.run_updates(bank, 1, 60)
        res = bank.rollback(1)
        assert res.restored_iteration == 50

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
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        bank = PolicyBank(3, 4, backup_freq=10)
        for label in (1, 2, 5):
            pol = bank.get_or_create(label)
            pol.params = rng.normal(size=pol.params.shape)
            pol.update_count = label * 7
        path = tmp_path / "bank.txt"
        bank.save(path)
        loaded = PolicyBank(3, 4, backup_freq=10)
        loaded.load(path)
        assert loaded.labels() == [1, 2, 5]
        for label in (1, 2, 5):
            a = bank.get_or_create(label)
            b = loaded.get_or_create(label)
            assert np.array_equal(a.params, b.params)  # repr round-trip exact
            assert a.update_count == b.update_count
            assert loaded.checkpoint_iterations(label) == []

    def test_shape_mismatch_rejected(self, tmp_path):
        bank = PolicyBank(3, 4)
        bank.get_or_create(1)
        path = tmp_path / "bank.txt"
        bank.save(path)
        other = PolicyBank(2, 4)
        with pytest.raises(ValueError):
            other.load(path)

    def test_truncated_file_rejected(self, tmp_path):
        bank = PolicyBank(2, 2)
        bank.get_or_create(1)
        path = tmp_path / "bank.txt"
        bank.save(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ValueError):
            PolicyBank(2, 2).load(path)

    @pytest.mark.parametrize("text, message", [
        ("nan", "parameter must be finite, got 'nan'"),
        ("-inf", "parameter must be finite, got '-inf'"),
        ("abc", "unparseable parameter 'abc'"),
    ])
    def test_bad_parameter_line_rejected(self, tmp_path, text, message):
        bank = PolicyBank(2, 2)
        for label in (1, 2):
            bank.get_or_create(label)
        path = tmp_path / "bank.txt"
        bank.save(path)
        lines = path.read_text().splitlines()
        # Label 2's header is lines 10-12; its second parameter is line 14.
        assert lines[9] == "label 2"
        lines[13] = text
        path.write_text("\n".join(lines) + "\n")
        loaded = PolicyBank(2, 2)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:14: {re.escape(message)}"):
            loaded.load(path)
