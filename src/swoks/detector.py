"""Online task-change detector over streaming experience.

Each label has its own state, made with the label: a FIFO window of
datapoint sets, a distance history and, once it departs, a frozen
reference. Steps arrive in blocks of any size; each is packed into a
datapoint and pushed into the current label's window. The first step
fixes the datapoint width and draws the projection directions. A
block with a step that has another width, or a value too large for a
distance to stay finite (nan and inf included), is rejected whole and
leaves the detector as it was. The window is a queue of whole sets of
``history_len`` points and the set being filled; a set is sorted along
every direction once, when its last point arrives. Each time a set
completes a window of ``swd_history_len + 1`` sets, the sliced
transport distance between the newest and oldest set is appended to
that label's distance history; when the history is full, a one-sided
shift test compares its new half against its scaled old half. A
significant shift triggers re-detection: stored policies for the other
labels are probed one by one in ascending id, fresh probe sets are
scored against each label's frozen reference set, and the first label
whose test does not reject is re-adopted, with the probe's sets, sorts
and all, as its window. If every label rejects, a new label is minted.

Probing is read-only with respect to stored references, and a stable
phase after each new label suppresses further detections while the
fresh policy is still learning.
"""
from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .ot import sample_unit_directions, sorted_distance, sorted_projections
from .seeding import child_seed
from .stats import detect_shift
from .stream import make_datapoints

__all__ = [
    "DetectorConfig",
    "TaskLabel",
    "DetectionEvent",
    "ProbeSource",
    "Detector",
]

EVENT_NEW_TASK = "new-task"
EVENT_RE_DETECTED = "re-detected"
EVENT_SUPPRESSED = "suppressed-by-stablePhase"


@dataclass(frozen=True)
class DetectorConfig:
    """Tuning knobs for the detector.

    history_len is the size of each compared point set, and a label's
    distance is taken each time its window takes ``history_len`` more
    points once it holds ``swd_history_len + 1`` sets; swd_history_len
    is also the size of each half of the shift test. probe_swd_samples
    defaults to ``min(swd_history_len, 25)`` when left unset.

    A test never rejects if ``alpha`` is not above its smallest p-value,
    ``exp(-L)`` for the shift test and ``exp(-2 n L / (n + L))`` for a probe
    (``L = swd_history_len``): :func:`~swoks.config.load_config` refuses it.
    """

    history_len: int = 240
    swd_history_len: int = 125
    alpha: float = 0.001
    beta: float = 1.1
    stable_phase: int = 50_000
    n_projections: int = 128
    probe_swd_samples: int | None = None
    master_seed: int = 0

    def __post_init__(self):
        if self.history_len < 2:
            raise ValueError(f"history_len must be >= 2, got {self.history_len}")
        if self.swd_history_len < 2:
            raise ValueError(
                f"swd_history_len must be >= 2, got {self.swd_history_len}"
            )
        if not 0.0 < self.alpha < 1.0:  # also rejects nan
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not (math.isfinite(self.beta) and self.beta >= 1.0):
            raise ValueError(f"beta must be >= 1 and finite, got {self.beta}")
        if self.stable_phase < 0:
            raise ValueError(f"stable_phase must be >= 0, got {self.stable_phase}")
        if self.n_projections < 1:
            raise ValueError(f"n_projections must be >= 1, got {self.n_projections}")
        if self.probe_swd_samples is not None and self.probe_swd_samples < 1:
            raise ValueError(
                f"probe_swd_samples must be >= 1, got {self.probe_swd_samples}"
            )

    @property
    def resolved_probe_samples(self) -> int:
        if self.probe_swd_samples is not None:
            return self.probe_swd_samples
        return min(self.swd_history_len, 25)


@dataclass(frozen=True)
class TaskLabel:
    id: int
    created_at: int


@dataclass(frozen=True)
class DetectionEvent:
    """One detection outcome.

    ``probed_pvalues`` maps each probed label id to its acceptance
    p-value (None for a label without a reference, which is not
    probed). ``t`` is the global step at which the outcome was settled,
    i.e. after any probe steps the decision consumed.
    """

    t: int
    old_label: int
    new_label: int
    kind: str
    probed_pvalues: dict[int, float | None] = field(default_factory=dict)


class ProbeSource(Protocol):
    """Supplies fresh experience under a stored policy on demand."""

    def deploy(self, label: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``n`` steps collected under ``label``'s policy, as ``phi (n, k)``,
        ``actions (n,)`` and ``rewards (n,)``, in step order.

        The detector refuses any other number of steps with ValueError, so
        probe steps move ``t`` by whole sets of ``history_len``.
        """
        ...


def _value_bound(history_len: int, width: int) -> float:
    """Largest magnitude a datapoint value may have: no distance overflows below it.

    A projection onto a unit direction is at most ``sqrt(width)`` times
    the bound, so a squared difference of two is at most
    ``4 * width * bound**2`` and a sum of ``history_len`` of them at most
    a quarter of the largest double; the factor 4 is room for rounding.
    """
    return math.sqrt(sys.float_info.max / (16 * history_len * width))


class _Window:
    """One label's FIFO window: a queue of whole point sets and the set being filled.

    A set is whole once it holds ``set_len`` rows. It is then sorted
    along every projection direction, once, and queued as ``(rows,
    sorted projections)``; the queue keeps the newest ``n_sets + 1``
    sets, so once it is full its first set is a check's old set and its
    last set the recent one.
    """

    __slots__ = ("sets", "_set_len", "_part", "_filled")

    def __init__(self, set_len: int, n_sets: int):
        self.sets: deque[tuple[np.ndarray, np.ndarray]] = deque(maxlen=n_sets + 1)
        self._set_len = set_len
        self.clear()

    @property
    def is_full(self) -> bool:
        return len(self.sets) == self.sets.maxlen

    @property
    def room(self) -> int:
        """Rows the set being filled takes before it is whole."""
        return self._set_len - self._filled

    @property
    def filling(self) -> np.ndarray:
        """The rows of the set being filled, a view."""
        return self._part[:self._filled]

    def clear(self) -> None:
        self.sets.clear()
        self._part = np.empty((self._set_len, 0))
        self._filled = 0

    def push(self, rows: np.ndarray, dirs: np.ndarray) -> bool:
        """Append 1 to :attr:`room` rows of an ``(n, width)`` array; True when
        they complete the set being filled, which is then sorted and queued."""
        if not self._filled:
            self._part = np.empty((self._set_len, rows.shape[1]))
        end = self._filled + rows.shape[0]
        self._part[self._filled:end] = rows
        self._filled = end % self._set_len
        if self._filled:
            return False
        self.sets.append((self._part, sorted_projections(self._part, dirs)))
        return True


class _LabelState:
    __slots__ = ("window", "history", "reference")

    def __init__(self, window: _Window, history: deque[float]):
        self.window = window
        # The last 2 * swd_history_len distances, oldest first; frozen while
        # departed: only the current label's grows.
        self.history = history
        # Frozen at departure: the window's oldest set as (rows, sorted
        # projections), which with the history scores probes of this label later.
        self.reference: tuple[np.ndarray, np.ndarray] | None = None


class Detector:
    """Streaming detector with per-label buffers and probe-based re-detection.

    Pass ``probe=None`` to run without a probe source (offline replay):
    every accepted detection then mints a new label.
    """

    def __init__(self, config: DetectorConfig, probe: ProbeSource | None = None):
        self._cfg = config
        self._probe = probe
        self.t = 0
        self.last_z_change = 0
        self.last_swd: float | None = None
        self.last_p_value: float | None = None
        self._labels: dict[int, TaskLabel] = {1: TaskLabel(id=1, created_at=0)}
        self._states: dict[int, _LabelState] = {1: self._new_state()}  # the keys of _labels
        self._current = 1
        # (n_projections, width), unit rows: drawn when the first step fixes the width.
        self._dirs: np.ndarray | None = None

    # -- introspection --------------------------------------------------

    @property
    def config(self) -> DetectorConfig:
        return self._cfg

    @property
    def current_label(self) -> TaskLabel:
        return self._labels[self._current]

    @property
    def labels(self) -> list[TaskLabel]:
        return [self._labels[i] for i in sorted(self._labels)]

    @property
    def offline(self) -> bool:
        return self._probe is None

    def label_state(self, label: int) -> _LabelState:
        return self._states[label]

    # -- internals -------------------------------------------------------

    def _new_state(self) -> _LabelState:
        return _LabelState(
            window=_Window(self._cfg.history_len, self._cfg.swd_history_len),
            history=deque(maxlen=2 * self._cfg.swd_history_len),
        )

    def _depart(self, label: int) -> None:
        # The shift test just adjudicated the newer data as foreign to
        # this label, so only the window's oldest set, sorts and all, and
        # the old distance half are kept as the label's frozen identity.
        st = self._states[label]
        st.reference = st.window.sets[0] if st.window.sets else None
        st.window.clear()
        while len(st.history) > self._cfg.swd_history_len:
            st.history.pop()

    def _pack(self, phi, actions, rewards) -> np.ndarray:
        """The steps as datapoints, or ValueError naming the first step with
        another width than the detector's first step, or with a value that is
        not finite or above :func:`_value_bound` in magnitude."""
        points = make_datapoints(phi, actions, rewards)
        n, width = points.shape
        if self._dirs is not None and width != self._dirs.shape[1]:
            raise ValueError(f"step 0 of {n}: datapoint width {width} "
                             f"does not match {self._dirs.shape[1]}")
        bound = _value_bound(self._cfg.history_len, width)
        small = np.abs(points) <= bound  # False at nan and inf
        if not small.all():
            bad = int(np.argmin(small.all(axis=1)))
            raise ValueError(f"step {bad} of {n}: phi, action and scaled reward "
                             f"must be finite and at most {bound:.6g} in magnitude")
        return points

    # -- main entry points ------------------------------------------------

    def ingest(self, phi, action: int, reward: float) -> DetectionEvent | None:
        """Consume one step: :meth:`ingest_block` of a one-row block; its event or None."""
        events = self.ingest_block([phi], [action], [reward])
        return events[0] if events else None

    def ingest_block(self, phi, actions, rewards) -> list[DetectionEvent]:
        """Consume ``n`` steps of experience; return their events in order.

        ``phi`` is ``(n, k)``; ``actions`` and ``rewards`` have length
        ``n``. How the steps are split into blocks does not change the
        result. A block that :meth:`_pack` refuses raises its ValueError
        and changes nothing.
        """
        points = self._pack(phi, actions, rewards)
        n, width = points.shape
        if n and self._dirs is None:
            self._dirs = sample_unit_directions(
                width, self._cfg.n_projections,
                seed=child_seed(self._cfg.master_seed, "projections"),
            )
        events: list[DetectionEvent] = []
        i = 0
        while i < n:
            # Push up to the end of the set being filled; the label may change there.
            st = self._states[self._current]
            take = min(n - i, st.window.room)
            whole = st.window.push(points[i:i + take], self._dirs)
            self.t += take
            i += take
            if whole and st.window.is_full:
                event = self._check(st)
                if event is not None:
                    events.append(event)
        return events

    def _check(self, st: _LabelState) -> DetectionEvent | None:
        """The distance check due when a set completes a full window."""
        sets = st.window.sets
        swd = sorted_distance(sets[-1][1], sets[0][1])
        st.history.append(swd)
        self.last_swd = swd
        half = self._cfg.swd_history_len
        if len(st.history) < 2 * half:
            return None
        values = np.array(st.history)
        result = detect_shift(values[half:], values[:half], beta=self._cfg.beta)
        self.last_p_value = result.p_value
        if result.p_value < self._cfg.alpha:
            return self.redetect()
        return None

    def redetect(self) -> DetectionEvent:
        """Resolve a triggered shift: suppress, re-adopt a label, or mint one."""
        if self._dirs is None:
            raise RuntimeError("redetect before any data was ingested")
        old = self._current
        if self.t - self.last_z_change < self._cfg.stable_phase:
            return DetectionEvent(
                t=self.t, old_label=old, new_label=old, kind=EVENT_SUPPRESSED,
            )
        pvalues: dict[int, float | None] = {}
        if self._probe is not None:
            for z in sorted(self._labels):
                if z == old:
                    continue
                outcome = self._probe_label(z, pvalues)
                if outcome is not None:
                    return outcome
        # Every candidate rejected (or probing unavailable): new label.
        self._depart(old)
        new_id = max(self._labels) + 1
        self._labels[new_id] = TaskLabel(id=new_id, created_at=self.t)
        self._states[new_id] = self._new_state()
        self._current = new_id
        self.last_z_change = self.t
        return DetectionEvent(
            t=self.t, old_label=old, new_label=new_id, kind=EVENT_NEW_TASK,
            probed_pvalues=pvalues,
        )

    def _probe_label(self, z: int, pvalues: dict[int, float | None]) -> DetectionEvent | None:
        """Probe one candidate label; its event if it is accepted, else None.

        A source that returns another number of steps than asked for, or a
        probe step that :meth:`_pack` refuses, raises ValueError before
        ``t`` moves.
        """
        old = self._current
        st = self._states[z]
        if st.reference is None or not len(st.history):
            pvalues[z] = None  # nothing to compare against; treat as rejection
            return None
        n_samples = self._cfg.resolved_probe_samples
        n_points = n_samples * self._cfg.history_len
        phi, actions, rewards = self._probe.deploy(z, n_points)
        if len(rewards) != n_points:
            raise ValueError(f"probe of label {z} returned {len(rewards)} steps, "
                             f"not the {n_points} asked for")
        points = self._pack(phi, actions, rewards)
        self.t += n_points
        h = self._cfg.history_len
        sets = [points[i:i + h] for i in range(0, n_points, h)]
        sorts = [sorted_projections(rows, self._dirs) for rows in sets]
        ref = st.reference[1]
        probe_swds = np.array([sorted_distance(s, ref) for s in sorts])
        result = detect_shift(probe_swds, np.array(st.history), beta=self._cfg.beta)
        pvalues[z] = result.p_value
        if result.p_value < self._cfg.alpha:
            return None  # rejected; caller tries the next candidate
        # Accepted: freeze the departing label; the probe's sets, sorts and
        # all, become the live window.
        self._depart(old)
        st.window.clear()
        st.window.sets.extend(zip(sets, sorts))
        self._current = z
        return DetectionEvent(
            t=self.t, old_label=old, new_label=z, kind=EVENT_RE_DETECTED,
            probed_pvalues=pvalues,
        )
