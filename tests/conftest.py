"""Shared pytest wiring, policy helpers and scripted detector streams.

Acceptance tests register one verdict line each; they are echoed in the
terminal summary so the pass/fail record survives output capture.
"""
import io
import itertools

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


def unique_candidates_one_sided(x1, x2):
    """One-sided KS statistic ``sup_x (F1(x-) - F2(x-))``, clamped to [0, 1].

    An independent formula: the strict and non-strict ECDF differences
    at every distinct pooled value, as computed before the pooled values
    stopped being made unique.
    """
    a = np.asarray(x1, dtype=float)
    b = np.asarray(x2, dtype=float)
    candidates = np.unique(np.concatenate([a, b]))
    sa = np.sort(a, kind="stable")
    sb = np.sort(b, kind="stable")
    f1_lt = np.searchsorted(sa, candidates, side="left") / a.shape[0]
    f2_lt = np.searchsorted(sb, candidates, side="left") / b.shape[0]
    f1_le = np.searchsorted(sa, candidates, side="right") / a.shape[0]
    f2_le = np.searchsorted(sb, candidates, side="right") / b.shape[0]
    sup = max(float(np.max(f1_lt - f2_lt)), float(np.max(f1_le - f2_le)))
    return min(1.0, max(0.0, sup))


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


def npz_bytes(**arrays) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def bad_banks(n_actions: int, latent_dim: int) -> dict[str, tuple[bytes, str]]:
    """Files ``PolicyBank.load`` must reject for a bank of this shape, by
    case: the file's bytes and a fragment of the error message."""
    one = dict(labels=np.array([1], dtype=np.int64), iterations=np.array([0], dtype=np.int64),
               params=np.zeros((1, n_actions, latent_dim + 1)))
    good = npz_bytes(**one)

    def bad(**changes):
        return npz_bytes(**{**one, **changes})

    nan, inf = np.array(one["params"]), np.array(one["params"])
    nan[0, -1, -1], inf[0, 0, 0] = np.nan, -np.inf
    text = "label 1\niteration 0\n" + f"shape {n_actions} {latent_dim + 1}\n"
    text += "0.0\n" * (n_actions * (latent_dim + 1))
    npy = io.BytesIO()
    np.save(npy, one["params"])
    return {
        "duplicate-label": (bad(labels=np.array([2, 2], dtype=np.int64),
                                iterations=np.array([0, 0], dtype=np.int64),
                                params=np.zeros((2, n_actions, latent_dim + 1))),
                            "label 2 appears twice"),
        "negative-count": (bad(iterations=np.array([-3], dtype=np.int64)),
                           "label 1 has update count -3 < 0"),
        "nan-parameter": (bad(params=nan), "label 1 has a parameter that is not finite"),
        "inf-parameter": (bad(params=inf), "label 1 has a parameter that is not finite"),
        "params-float32": (bad(params=one["params"].astype(np.float32)), "params is float32"),
        "labels-float": (bad(labels=np.array([1.0])), "labels is float64"),
        "params-shape": (bad(params=np.zeros((1, n_actions + 1, latent_dim + 1))),
                         f"params is float64 (1, {n_actions + 1}, {latent_dim + 1})"),
        "iterations-length": (bad(iterations=np.array([0, 0], dtype=np.int64)),
                              "iterations is int64 (2,), expected int64 (1,)"),
        "missing-array": (npz_bytes(labels=one["labels"], iterations=one["iterations"]),
                          "not a policy bank archive"),
        "empty-file": (b"", "not a policy bank archive"),
        "truncated-archive": (good[:len(good) // 2], "not a policy bank archive"),
        "text-bank": (text.encode(), "not a policy bank archive"),
        "npy-array": (npy.getvalue(), "not a policy bank archive"),
    }


def regime(rng: np.random.Generator, mean: float, reward: float, width: int = 3,
           scale: float = 1.0):
    """Endless (phi, action, reward) tuples from one stationary regime.

    With ``scale=0`` every latent is ``mean``, so the rows take two values.
    """
    while True:
        yield rng.normal(mean, scale, size=width), int(rng.integers(0, 2)), reward


def limited_regime(rng: np.random.Generator, mean: float, reward: float, n: int,
                   width: int = 3):
    """The first ``n`` tuples of :func:`regime`: a probe source that runs dry."""
    return itertools.islice(regime(rng, mean, reward, width), n)


class ScriptedProbe:
    """Probe source replaying a scripted generator per label.

    ``deploy(label, n)`` returns the first ``n`` steps of a fresh run of
    the label's script as ``(phi, actions, rewards)`` columns, fewer when
    the script runs dry. Records the order of deploy calls so tests can
    assert which candidates were tried.
    """

    def __init__(self, scripts):
        self.scripts = scripts
        self.deploy_calls: list[int] = []

    def deploy(self, label: int, n: int):
        self.deploy_calls.append(label)
        steps = list(itertools.islice(self.scripts[label](), n))
        return tuple(zip(*steps)) or ((), (), ())


def detector_view(det):
    """Everything an input can change in a ``Detector``, in comparable form."""
    labels = {}
    for label in det.labels:
        st = det.label_state(label.id)
        labels[label.id] = (
            st.window.oldest(len(st.window)).tolist(), list(st.history),
            None if st.ref_window is None else st.ref_window.tolist(),
        )
    return det.t, det.last_swd, det.last_p_value, det.labels, det.current_label, labels
