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

import math
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
EVENT_PROBE_ERROR = "probe-error"


@dataclass(frozen=True)
class DetectorConfig:
    """Tuning knobs for the detector.

    history_len is both the size of each compared point set and the
    cadence of distance computation; swd_history_len is the size of
    each half of the shift test. probe_swd_samples defaults to
    ``min(swd_history_len, 25)`` when left unset.

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

    def deploy(self, label: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``n`` steps collected under ``label``'s policy, as ``phi (m, k)``,
        ``actions (m,)`` and ``rewards (m,)``, in step order.

        ``m <= n``; a source that cannot deliver all ``n`` steps returns
        the ``m < n`` it took, and the detector reports a probe error
        after counting them.
        """
        ...


class _Window:
    """One label's FIFO window: a ring of datapoint rows and its two point sets.

    The ring holds ``set_len * (n_sets + 1)`` rows. Once it is full, its
    oldest ``set_len`` rows form the old set and its newest ``set_len``
    the recent set. Rows are indexed by arrival since the last clear;
    the sorted projections of each recent set are kept under the index
    of its first row, because ``n_sets`` checks later the same rows are
    the old set and need not be sorted again.
    """

    __slots__ = ("_data", "_set_len", "_capacity", "_next", "_size", "_pushed", "_sorted")

    def __init__(self, width: int, set_len: int, n_sets: int):
        self._set_len = set_len
        self._capacity = set_len * (n_sets + 1)
        self._data = np.zeros((self._capacity, width), dtype=float)
        # Sorted projections of earlier recent sets, oldest first.
        self._sorted: deque[tuple[int, np.ndarray]] = deque()
        self.clear()

    @property
    def is_full(self) -> bool:
        return self._size == self._capacity

    def __len__(self) -> int:
        return self._size

    def extend(self, rows: np.ndarray) -> None:
        """Append the rows of an ``(n, width)`` array in order, evicting the oldest when full."""
        n = rows.shape[0]
        self._pushed += n
        self._size = min(self._size + n, self._capacity)
        if n > self._capacity:
            rows = rows[n - self._capacity:]
            n = self._capacity
        head = min(n, self._capacity - self._next)
        self._data[self._next:self._next + head] = rows[:head]
        self._data[:n - head] = rows[head:]
        self._next = (self._next + n) % self._capacity

    def clear(self) -> None:
        self._next = self._size = self._pushed = 0
        self._sorted.clear()

    def _rows(self, start: int, count: int) -> np.ndarray:
        # start is an offset from the oldest stored row. A view of the ring
        # where the rows do not wrap: valid only until the next extend.
        first = (self._next - self._size + start) % self._capacity
        head = min(count, self._capacity - first)
        if head == count:
            return self._data[first:first + count]
        return np.concatenate([self._data[first:], self._data[:count - head]])

    def oldest(self, count: int) -> np.ndarray:
        """Oldest ``count`` stored rows, a copy: a frozen reference outlives the ring."""
        if count < 0 or count > self._size:
            raise ValueError(f"cannot take {count} rows from {self._size} stored")
        return self._rows(0, count).copy()

    def distance(self, dirs: np.ndarray) -> float:
        """Sliced distance between the recent and the old set of a full ring."""
        cache, n = self._sorted, self._set_len
        old_first = self._pushed - self._capacity
        while cache and cache[0][0] < old_first:
            cache.popleft()
        if cache and cache[0][0] == old_first:
            old = cache.popleft()[1]
        else:
            old = sorted_projections(self._rows(0, n), dirs)
        recent = sorted_projections(self._rows(self._size - n, n), dirs)
        cache.append((self._pushed - n, recent))
        return sorted_distance(recent, old)


class _LabelState:
    __slots__ = ("window", "history", "ref_window")

    def __init__(self, window: _Window, history: deque[float]):
        self.window = window
        # The last 2 * swd_history_len distances, oldest first; frozen while
        # departed: only the current label's grows.
        self.history = history
        # Frozen at departure: the last clean reference window, which with
        # the history scores probes of this label later.
        self.ref_window: np.ndarray | None = None


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
            window=_Window(self._width, self._cfg.history_len, self._cfg.swd_history_len),
            history=deque(maxlen=2 * self._cfg.swd_history_len),
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
        st, h = self._state(label), self._cfg.history_len
        st.ref_window = st.window.oldest(h) if len(st.window) >= h else None
        st.window.clear()
        while len(st.history) > self._cfg.swd_history_len:
            st.history.pop()

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
        n_ok = n
        if not np.isfinite(points).all():  # the per-row mask only for a block that needs it
            n_ok = int(np.argmin(np.isfinite(points).all(axis=1)))
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
        swd = st.window.distance(self._dirs)
        if not 0.0 <= swd < math.inf:  # projections of finite rows can overflow
            raise ValueError(f"distance values must be finite and non-negative, got {swd}")
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

        A probe step that is not finite or does not fit the width, or a
        source that returns more than the steps asked for, raises
        ValueError before ``t`` moves.
        """
        old = self._current
        st = self._states.get(z)
        if st is None or st.ref_window is None or not len(st.history):
            pvalues[z] = None  # nothing to compare against; treat as rejection
            return None
        n_samples = self._cfg.resolved_probe_samples
        n_points = n_samples * self._cfg.history_len
        phi, actions, rewards = self._probe.deploy(z, n_points)
        if len(rewards) < n_points:
            self.t += len(rewards)
            pvalues[z] = None
            return DetectionEvent(
                t=self.t, old_label=old, new_label=old, kind=EVENT_PROBE_ERROR,
                probed_pvalues=pvalues,
            )
        points = make_datapoints(phi, actions, rewards)
        if points.shape != (n_points, self._width) or not np.isfinite(points).all():
            raise ValueError(f"probe steps of label {z} must be finite and "
                             f"pack to width {self._width}")
        self.t += n_points
        ref = sorted_projections(st.ref_window, self._dirs)
        h = self._cfg.history_len
        probe_swds = np.array([
            sorted_distance(sorted_projections(points[i * h:(i + 1) * h], self._dirs), ref)
            for i in range(n_samples)
        ])
        result = detect_shift(probe_swds, np.array(st.history), beta=self._cfg.beta)
        pvalues[z] = result.p_value
        if result.p_value < self._cfg.alpha:
            return None  # rejected; caller tries the next candidate
        # Accepted: freeze the departing label, hand the live window over.
        self._depart(old)
        st.window.clear()
        st.window.extend(points)
        self._current = z
        return DetectionEvent(
            t=self.t, old_label=old, new_label=z, kind=EVENT_RE_DETECTED,
            probed_pvalues=pvalues,
        )
