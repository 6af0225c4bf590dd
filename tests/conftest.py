"""Shared pytest wiring and policy helpers.

Acceptance tests register one verdict line each; they are echoed in the
terminal summary so the pass/fail record survives output capture.
"""
import numpy as np

from swoks.agent import EpisodeBuffer

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


class FixedDraw:
    """Stands in for a Generator whose every uniform draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def greedy_action(policy, phi) -> int:
    """Most probable action of ``policy`` at ``phi``; ties resolve to the lowest index."""
    return int(np.argmax(policy.params @ np.append(phi, 1.0)))


def record_episode(policy, steps) -> EpisodeBuffer:
    """The buffer ``policy.act`` writes for (phi, action, reward) steps
    under its current params, each action forced by a draw inside its
    probability interval."""
    episode = EpisodeBuffer(policy.n_actions, policy.latent_dim)
    for phi, action, reward in steps:
        cum = np.cumsum(policy.action_probs(phi))
        low = cum[action - 1] if action else 0.0
        draw = FixedDraw(float(low + (cum[action] - low) / 2))
        assert policy.act(phi, draw, episode) == action
        episode.rewards.append(reward)
    return episode
