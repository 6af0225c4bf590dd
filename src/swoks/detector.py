"""Online task-change detector over streaming experience.

Steps arrive in blocks of any size; each is packed into a datapoint
and pushed into the current label's FIFO window. Once per
``history_len`` steps the sliced transport distance between the newest
and oldest window is appended to that label's distance history; when
the history is full, a one-sided shift test compares its new half
against its scaled old half. A significant shift triggers
re-detection: stored policies for the other labels are probed one by
one in ascending id, fresh probe experience is scored against each
label's frozen references, and the first label whose test does not
reject is re-adopted. If every label rejects, a new label is minted.

Probing is read-only with respect to stored references, and a stable
phase after each new label suppresses further detections while the
fresh policy is still learning.
"""
from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Protocol

import numpy as np

from .ot import sample_unit_directions, sorted_distance, sorted_projections
from .seeding import child_seed
from .stats import detect_shift
from .stream import SwdHistory, WindowBuffer, make_datapoints

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
EVENT_PROBE_ERROR = "probe-error"


@dataclass(frozen=True)
class DetectorConfig:
    """Tuning knobs for the detector.

    history_len is both the size of each compared point set and the
    cadence of distance computation; swd_history_len is the size of
    each half of the shift test. probe_swd_samples defaults to
    ``min(swd_history_len, 25)`` when left unset.
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
    p-value (None when the label could not be probed). ``t`` is the
    global step at which the outcome was settled, i.e. after any probe
    steps the decision consumed.
    """

    t: int
    old_label: int
    new_label: int
    kind: str
    probed_pvalues: dict[int, float | None] = field(default_factory=dict)


class ProbeSource(Protocol):
    """Supplies fresh experience under a stored policy on demand."""

    def deploy(self, label: int) -> Iterator[tuple[np.ndarray, int, float]]:
        """Yield (phi, action, reward) steps collected under ``label``'s policy."""
        ...


class _LabelState:
    __slots__ = ("window", "history", "ref_window", "ref_swd", "sorted_sets")

    def __init__(self, window: WindowBuffer, history: SwdHistory):
        self.window = window
        self.history = history
        # Frozen at departure: the last clean reference window and
        # distance sample, used to score probes of this label later.
        self.ref_window: np.ndarray | None = None
        self.ref_swd: np.ndarray | None = None
        # Sorted projections of earlier recent sets, oldest first, keyed
        # by the window index of their first row: each comes back as the
        # old set swd_history_len checks later.
        self.sorted_sets: deque[tuple[int, np.ndarray]] = deque()

    def clear_window(self) -> None:
        self.window.clear()
        self.sorted_sets.clear()


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
        self._states: dict[int, _LabelState] = {}
        self._current = 1
        self._width: int | None = None
        self._dirs: np.ndarray | None = None  # (n_projections, width), unit rows

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

    def _init_width(self, width: int) -> None:
        self._width = width
        self._dirs = sample_unit_directions(
            width, self._cfg.n_projections,
            seed=child_seed(self._cfg.master_seed, "projections"),
        )

    def _new_state(self) -> _LabelState:
        assert self._width is not None
        return _LabelState(
            window=WindowBuffer(self._width, self._cfg.history_len,
                                self._cfg.swd_history_len),
            history=SwdHistory(self._cfg.swd_history_len),
        )

    def _state(self, label: int) -> _LabelState:
        st = self._states.get(label)
        if st is None:
            st = self._new_state()
            self._states[label] = st
        return st

    def _depart(self, label: int) -> None:
        # The shift test just adjudicated the newer data as foreign to
        # this label, so only the old window and old distance half are
        # kept as the label's frozen identity.
        st = self._state(label)
        n_keep = min(len(st.window), self._cfg.history_len)
        oldest = st.window.oldest(n_keep)
        st.ref_window = oldest if n_keep == self._cfg.history_len else None
        old_vals = st.history.values()[: self._cfg.swd_history_len]
        st.ref_swd = old_vals if old_vals.size > 0 else None
        st.clear_window()
        st.history.keep_oldest(self._cfg.swd_history_len)

    # -- main entry points ------------------------------------------------

    def ingest(self, phi, action: int, reward: float) -> DetectionEvent | None:
        """Consume one step: :meth:`ingest_block` of a one-row block; its event or None."""
        events = self.ingest_block([phi], [action], [reward])
        return events[0] if events else None

    def ingest_block(self, phi, actions, rewards) -> list[DetectionEvent]:
        """Consume ``n`` steps of experience; return their events in order.

        ``phi`` is ``(n, k)``; ``actions`` and ``rewards`` have length
        ``n``. How the steps are split into blocks does not change the
        result. A block whose width differs from the first step's raises
        ValueError and changes nothing. A row that is not finite raises
        ValueError naming it, after the rows before it were ingested;
        their events are then not returned.
        """
        points = make_datapoints(phi, actions, rewards)
        n = points.shape[0]
        if self._width is not None and points.shape[1] != self._width:
            raise ValueError(f"datapoint width {points.shape[1]} does not match {self._width}")
        finite = np.isfinite(points).all(axis=1)
        n_ok = n if finite.all() else int(np.argmin(finite))
        if n_ok and self._width is None:
            self._init_width(points.shape[1])
        events: list[DetectionEvent] = []
        h = self._cfg.history_len
        i = 0
        while i < n_ok:
            # Push up to the next check boundary; the label may change there.
            take = min(n_ok - i, h - self.t % h)
            st = self._state(self._current)
            st.window.extend(points[i:i + take])
            self.t += take
            i += take
            if self.t % h == 0 and st.window.is_full:
                event = self._check(st)
                if event is not None:
                    events.append(event)
        if n_ok < n:
            raise ValueError(f"row {n_ok} of the block: phi, action and scaled reward "
                             "must be finite")
        return events

    def _check(self, st: _LabelState) -> DetectionEvent | None:
        """The distance check due at a full window on a history_len boundary."""
        swd = self._window_distance(st)
        st.history.push(swd)
        self.last_swd = swd
        if not st.history.is_full:
            return None
        result = detect_shift(
            st.history.new_half(), st.history.old_half(),
            alpha=self._cfg.alpha, beta=self._cfg.beta,
        )
        self.last_p_value = result.p_value
        if result.p_value < self._cfg.alpha:
            return self.redetect()
        return None

    def _window_distance(self, st: _LabelState) -> float:
        """Sliced distance between the recent and the old set of a full window."""
        window, cache = st.window, st.sorted_sets
        old_first = window.pushed - window.capacity
        while cache and cache[0][0] < old_first:
            cache.popleft()
        if cache and cache[0][0] == old_first:
            old = cache.popleft()[1]
        else:
            old = sorted_projections(window.old_set(), self._dirs)
        recent = sorted_projections(window.recent_set(), self._dirs)
        cache.append((window.pushed - window.set_len, recent))
        return sorted_distance(recent, old)

    def redetect(self) -> DetectionEvent:
        """Resolve a triggered shift: suppress, re-adopt a label, or mint one."""
        if self._width is None:
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
        """Probe one candidate label; returns an event on accept/error.

        A probe step that is not finite or does not fit the width raises
        ValueError before ``t`` moves.
        """
        old = self._current
        st = self._states.get(z)
        if st is None or st.ref_window is None or st.ref_swd is None:
            pvalues[z] = None  # nothing to compare against; treat as rejection
            return None
        n_samples = self._cfg.resolved_probe_samples
        n_points = n_samples * self._cfg.history_len
        steps = list(itertools.islice(self._probe.deploy(z), n_points))
        if len(steps) < n_points:
            self.t += len(steps)
            pvalues[z] = None
            return DetectionEvent(
                t=self.t, old_label=old, new_label=old, kind=EVENT_PROBE_ERROR,
                probed_pvalues=pvalues,
            )
        phi, actions, rewards = zip(*steps)
        points = make_datapoints(np.array(phi, dtype=float), actions, rewards)
        if points.shape[1] != self._width or not np.isfinite(points).all():
            raise ValueError(f"probe steps of label {z} must be finite and "
                             f"pack to width {self._width}")
        self.t += n_points
        ref = sorted_projections(st.ref_window, self._dirs)
        h = self._cfg.history_len
        probe_swds = np.array([
            sorted_distance(sorted_projections(points[i * h:(i + 1) * h], self._dirs), ref)
            for i in range(n_samples)
        ])
        result = detect_shift(probe_swds, st.ref_swd,
                              alpha=self._cfg.alpha, beta=self._cfg.beta)
        pvalues[z] = result.p_value
        if result.p_value < self._cfg.alpha:
            return None  # rejected; caller tries the next candidate
        # Accepted: freeze the departing label, hand the live window over.
        self._depart(old)
        st.clear_window()
        st.window.extend(points)
        self._current = z
        return DetectionEvent(
            t=self.t, old_label=old, new_label=z, kind=EVENT_RE_DETECTED,
            probed_pvalues=pvalues,
        )
