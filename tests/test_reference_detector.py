"""The detector against a plain reference, input by input.

:class:`ReferenceDetector` follows the detector's rules on plain lists,
with a fresh sliced distance at every check and fresh sorts in every
shift test and probe. It keeps no sorted projections, no sorted halves
and no block boundaries, so it is the one oracle for the detector's
fast paths: the queue of sets sorted once each, the reference and probe
sets whose sorts are reused, and block ingest split where a set ends.
The distance and the shift test themselves are shared; ``test_ot.py``,
``test_stats.py`` and the acceptance tests check them against brute
force.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
from collections import defaultdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ScriptedProbe, detector_view, regime
from oracles import sliced_wasserstein

from swoks.detector import (
    EVENT_NEW_TASK,
    EVENT_RE_DETECTED,
    EVENT_SUPPRESSED,
    DetectionEvent,
    Detector,
    DetectorConfig,
    TaskLabel,
)
from swoks.ot import sample_unit_directions
from swoks.seeding import child_seed
from swoks.stats import detect_shift


class ReferenceDetector:
    """The detector's decisions from per-label lists of rows, recomputed at every use.

    A row is ``[sqrt(k) * reward, action, phi...]``. A label's ``rows``
    are those pushed since its window was last cleared; each time their
    count is a multiple of ``history_len`` a set is complete, and they
    are cut to the newest ``history_len * (swd_history_len + 1)``, the
    window, which then gets a check if it is full. ``history`` holds the
    newest ``2 * swd_history_len`` distances. Steps go in one at a time;
    a block with a value above ``sqrt(DBL_MAX / (16 * history_len *
    width))`` in magnitude, nan and inf included, is rejected before any
    goes in, and so is a probe with such a value, or with another number
    of steps than asked for, before its steps are counted. The stable
    phase runs from ``last_z_change``, a step kept apart from the labels,
    so it checks the detector's rule of reading the newest label's
    ``created_at``.
    """

    def __init__(self, config: DetectorConfig, probe=None):
        self.cfg, self.probe = config, probe
        self.t = self.last_z_change = 0
        self.last_swd = self.last_p_value = None
        self.labels = {1: TaskLabel(id=1, created_at=0)}
        self.current = 1
        self.states = defaultdict(
            lambda: SimpleNamespace(rows=[], history=[], ref_window=None))
        self.capacity = config.history_len * (config.swd_history_len + 1)
        self.dirs = None

    @staticmethod
    def pack(phi, action, reward) -> list[float]:
        return [math.sqrt(len(phi)) * float(reward), float(action), *map(float, phi)]

    def refuse_large(self, rows) -> None:
        for row in rows:
            bound = math.sqrt(sys.float_info.max / (16 * self.cfg.history_len * len(row)))
            if not all(abs(value) <= bound for value in row):
                raise ValueError("a value that is not finite or too large: rejected whole")

    def ingest_block(self, phi, actions, rewards) -> list[DetectionEvent]:
        steps = list(zip(phi, actions, rewards))
        self.refuse_large(map(self.pack, *zip(*steps)))
        events = (self.ingest(*step) for step in steps)
        return [event for event in events if event is not None]

    def ingest(self, phi, action, reward) -> DetectionEvent | None:
        cfg, h, half = self.cfg, self.cfg.history_len, self.cfg.swd_history_len
        if self.dirs is None:
            self.dirs = sample_unit_directions(len(phi) + 2, cfg.n_projections,
                                               seed=child_seed(cfg.master_seed, "projections"))
        st = self.states[self.current]
        st.rows.append(self.pack(phi, action, reward))
        self.t += 1
        if len(st.rows) % h:
            return None
        st.rows = st.rows[-self.capacity:]
        if len(st.rows) < self.capacity:
            return None
        self.last_swd = sliced_wasserstein(st.rows[-h:], st.rows[:h], self.dirs)
        st.history = (st.history + [self.last_swd])[-2 * half:]
        if len(st.history) < 2 * half:
            return None
        self.last_p_value = detect_shift(st.history[half:], st.history[:half],
                                         beta=cfg.beta).p_value
        return self.redetect() if self.last_p_value < cfg.alpha else None

    def redetect(self) -> DetectionEvent:
        old = self.current
        if self.t - self.last_z_change < self.cfg.stable_phase:
            return DetectionEvent(t=self.t, old_label=old, new_label=old, kind=EVENT_SUPPRESSED)
        pvalues: dict[int, float] = {}
        for z in sorted(self.labels) if self.probe is not None else []:
            if z != old and (event := self.probe_label(z, pvalues)) is not None:
                return event
        self.depart(old)
        new = max(self.labels) + 1
        self.labels[new] = TaskLabel(id=new, created_at=self.t)
        self.current = new
        self.last_z_change = self.t
        return DetectionEvent(t=self.t, old_label=old, new_label=new, kind=EVENT_NEW_TASK,
                              probed_pvalues=pvalues)

    def probe_label(self, z: int, pvalues) -> DetectionEvent | None:
        old, h, st = self.current, self.cfg.history_len, self.states[z]
        n = self.cfg.resolved_probe_samples * h
        rows = [self.pack(*step) for step in zip(*self.probe.deploy(z, n))]
        if len(rows) != n:
            raise ValueError(f"probe of label {z} returned {len(rows)} steps, not {n}")
        self.refuse_large(rows)
        self.t += n
        swds = [sliced_wasserstein(rows[i:i + h], st.ref_window, self.dirs)
                for i in range(0, n, h)]
        pvalues[z] = detect_shift(swds, st.history, beta=self.cfg.beta).p_value
        if pvalues[z] < self.cfg.alpha:
            return None
        self.depart(old)
        st.rows = rows[-self.capacity:]
        self.current = z
        return DetectionEvent(t=self.t, old_label=old, new_label=z, kind=EVENT_RE_DETECTED,
                              probed_pvalues=pvalues)

    def depart(self, label: int) -> None:
        # Only the oldest rows and the old distance half are kept: the
        # shift test just judged the newer ones foreign to this label.
        st = self.states[label]
        st.ref_window = st.rows[:self.cfg.history_len]
        st.rows, st.history = [], st.history[:self.cfg.swd_history_len]

    def view(self):
        """What :func:`conftest.detector_view` reads from a ``Detector``."""
        labels = {z: tuple(vars(self.states[z]).values()) for z in self.labels}
        return (self.t, self.last_swd, self.last_p_value,
                [self.labels[z] for z in sorted(self.labels)], self.labels[self.current], labels)


def run_both(config, phi, actions, rewards, make_probe, order: str, seed: int = 0):
    """Feed one stream to a detector and a reference, each with a probe
    source of its own, and return the events; after every input the two
    must agree with ``==``, and every probed p-value must be a float. ``order`` is ``"step"`` (one ``ingest`` per step),
    ``"aligned"`` (blocks ending where the current label's set being filled
    completes) or ``"random"`` (blocks of 1 to ``3 * history_len`` steps, a
    one-step block through ``ingest``).
    Each block of more than one step goes in first with a last reward that is
    not finite, which both must reject whole."""
    det, ref = Detector(config, make_probe()), ReferenceDetector(config, make_probe())
    h, sizes = config.history_len, np.random.default_rng(seed)
    events, i = [], 0
    while i < len(actions):
        if order == "aligned":
            take = det.label_state(det.current_label.id).window.room
        else:
            take = 1 if order == "step" else int(sizes.integers(1, 3 * h + 1))
        block = phi[i:i + take], actions[i:i + take], rewards[i:i + take]
        i += len(block[2])
        if len(block[2]) == 1:
            got = [e for e in [det.ingest(*(column[0] for column in block))] if e is not None]
        else:
            for detector in (det, ref):  # rejected whole: a change would show below
                with pytest.raises(ValueError):
                    detector.ingest_block(*block[:2], np.append(block[2][:-1], np.nan))
            got = det.ingest_block(*block)
        want = ref.ingest_block(*block)
        assert got == want, f"events of the block ending at step {i}"
        for event in got + want:  # every probed label has a reference to score against
            assert all(isinstance(p, float) for p in event.probed_pvalues.values())
        assert detector_view(det) == ref.view(), f"state after step {i}"
        events += got
    return events


def stream(rng, plan, width: int = 3):
    """``(phi, actions, rewards)`` of the ``(mean, reward, steps[, scale])`` regimes of ``plan``."""
    steps = []
    for mean, reward, n, *scale in plan:
        steps += itertools.islice(regime(rng, mean, reward, width, *scale), n)
    phi, actions, rewards = zip(*steps)
    return np.stack(phi), np.array(actions), np.array(rewards)


ORDERS = ["step", "aligned", "random"]


def small_config(**overrides) -> DetectorConfig:
    params = dict(history_len=10, swd_history_len=6, alpha=0.01, beta=1.1, stable_phase=0,
                  n_projections=32, master_seed=5)
    return DetectorConfig(**{**params, **overrides})


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("seed", [0, 1])
def test_every_event_kind_and_a_moved_check_grid(seed, order):
    """A change inside the stable phase (suppressed), a new label, a return
    that a probe re-detects and a change whose probe of label 2 rejects, so
    label 3 is minted. Probes play whole sets, so every event lands on the
    history_len grid."""
    plan = [(0.0, 1.0, 300), (3.0, -1.0, 280), (-3.0, 2.0, 420), (0.0, 1.0, 300),
            (3.0, -1.0, 300)]

    def make_probe():
        rng = np.random.default_rng(50 + seed)
        return ScriptedProbe({
            1: lambda: regime(rng, 3.0, -1.0),  # label 1 departed on this regime
            2: lambda: regime(rng, -6.0, 8.0),  # matches no regime of the stream
        })

    # A probe block of 8 sets is longer than the 7-set window it re-seeds.
    config = small_config(stable_phase=400, probe_swd_samples=8, master_seed=seed)
    events = run_both(config, *stream(np.random.default_rng(10 + seed), plan), make_probe, order)
    assert {ev.kind for ev in events} == {EVENT_NEW_TASK, EVENT_RE_DETECTED, EVENT_SUPPRESSED}
    assert not any(ev.t % config.history_len for ev in events)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("seed", [0, 1])
def test_readopted_label_runs_past_its_old_row_count(seed, order):
    """Label 1 departs and is re-detected with a probe block of 60 rows,
    shorter than its 70-row window; its refilled window then takes more
    rows than the label had taken before it departed."""
    plan = [(0.0, 1.0, 300), (3.0, -1.0, 420), (0.0, 1.0, 900)]

    def make_probe():
        rng = np.random.default_rng(900 + seed)
        return ScriptedProbe({1: lambda: regime(rng, 0.0, 1.0)})

    events = run_both(small_config(master_seed=seed),
                      *stream(np.random.default_rng(300 + seed), plan), make_probe, order)
    assert [ev.kind for ev in events] == [EVENT_NEW_TASK, EVENT_RE_DETECTED]
    assert 60 + 1620 - (events[1].t - 60) > events[0].t + 70


# (mean, reward, scale): the last has constant latents, so its distances tie.
REGIMES = [(0.0, 1.0, 1.0), (3.0, -1.0, 1.0), (-3.0, 2.0, 1.0), (1.0, 0.5, 0.0)]


@st.composite
def scenarios(draw):
    """A config, a latent width, a stream of regimes with shifts, a scripted
    probe per label and a seed."""
    h, half = draw(st.integers(2, 60)), draw(st.integers(2, 8))
    window = h * (half + 1)
    config = DetectorConfig(
        history_len=h, swd_history_len=half,
        alpha=draw(st.sampled_from([0.01, 0.2])),  # a test of 2 + 2 values needs the larger
        beta=draw(st.sampled_from([1.0, 1.1, 1.4])),
        stable_phase=draw(st.sampled_from([0, 0, window, 4 * window])),
        n_projections=draw(st.integers(1, 32)),
        probe_swd_samples=draw(st.one_of(st.none(), st.integers(1, half + 2))),
        master_seed=draw(st.integers(0, 3)),
    )
    # Every segment changes the regime; the first fills the distance history.
    n = len(REGIMES)
    regimes = [draw(st.integers(0, n - 1))]
    for _ in range(draw(st.integers(2, 3))):
        regimes.append((regimes[-1] + draw(st.integers(1, n - 1))) % n)
    plan = [(mean, reward, draw(st.integers(1 + 2 * (i == 0), 4)) * window
             + draw(st.integers(0, h - 1)), scale)
            for i, (mean, reward, scale) in enumerate(REGIMES[r] for r in regimes)]
    # Label z is minted on segment z - 1 when every change is caught once;
    # its probe replays that segment's regime or the next one.
    probes = [(regimes[z % len(regimes)] + draw(st.sampled_from([0, 0, 0, 1]))) % n
              for z in range(8)]
    return config, draw(st.integers(1, 8)), plan, probes, draw(st.integers(0, 2**16))


@given(scenarios(), st.sampled_from(ORDERS))
@settings(max_examples=30, deadline=None)
def test_random_configs_and_streams(scenario, order):
    config, width, plan, probes, seed = scenario

    def make_probe():
        rng = np.random.default_rng(seed)

        def script(regime_index):
            mean, reward, scale = REGIMES[regime_index]
            return functools.partial(regime, rng, mean, reward, width, scale)

        return ScriptedProbe({z: script(probes[(z - 1) % len(probes)]) for z in range(1, 64)})

    run_both(config, *stream(np.random.default_rng(seed), plan, width), make_probe, order, seed)
