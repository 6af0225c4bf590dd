"""Run traces, kept in columns, and their CSV form.

One row per global step, live and probe steps alike. The p_value and
swd columns carry the most recent shift-check values for the label the
step was assigned to, and are empty between a label switch and the next
check. Floats are written with repr so a rerun with identical seeds
produces byte-identical files.
"""
from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

__all__ = [
    "TRACE_COLUMNS", "Trace", "TraceRow", "write_trace", "read_trace", "event_record",
    "write_events",
]

TRACE_COLUMNS = [
    "t", "iteration", "gt_task", "pred_label", "event",
    "p_value", "swd", "reward", "probe_flag",
]

_CHUNK = 4096  # rows per tolist() batch, which bounds the Python objects alive at once
_LINE = "%d,%d,%d,%d,%s,%s,%r,%d\n"  # one trace.csv row; the p_value,swd pair comes formatted


class TraceRow(NamedTuple):
    t: int
    iteration: int
    gt_task: int
    pred_label: int
    event: str
    p_value: float | None
    swd: float | None
    reward: float
    probe_flag: int


class _Column:
    """A numpy column of a :class:`Trace`: the first ``len(trace)`` entries."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, trace, owner=None):
        return trace._data[self.name][:trace._n]


class Trace:
    """A run's trace as numpy columns, one row per global step.

    ``t``, ``iteration``, ``gt_task``, ``pred_label``, ``reward`` and
    ``probe_flag`` are per-row columns. The shift-check values are kept
    once per check: ``checks`` lists ``(p_value, swd)`` pairs, None
    where no check has run, and the ``check`` column holds each row's
    index into it. ``events`` maps a row index to the event kind it
    carries. Iterating yields :class:`TraceRow` records; ``len`` and
    ``==`` behave as they do for the list of those records.
    """

    t = _Column()
    iteration = _Column()
    gt_task = _Column()
    pred_label = _Column()
    reward = _Column()
    probe_flag = _Column()
    check = _Column()

    _DTYPES = {"t": np.int64, "iteration": np.int64, "gt_task": np.int64,
               "pred_label": np.int64, "reward": np.float64, "probe_flag": np.int64,
               "check": np.int64}

    def __init__(self, capacity: int = 0):
        """An empty trace with room for ``capacity`` rows; it grows past that as needed."""
        self._n = 0
        self._data = {name: np.empty(capacity, dtype) for name, dtype in self._DTYPES.items()}
        self.checks: list[tuple[float | None, float | None]] = []
        self.events: dict[int, str] = {}

    def append(self, t: int, iteration, gt_task, pred_label, reward, probe_flag: int,
               p_value: float | None, swd: float | None, event: str = "") -> None:
        """Append rows ``t, t + 1, ...`` that share one check's p_value and swd.

        ``reward`` holds one value per row; ``iteration``, ``gt_task``
        and ``pred_label`` take one value per row or one for all of
        them. ``event`` marks the first row. The check is stored once
        while the same ``p_value`` and ``swd`` objects keep coming.
        """
        k = len(reward)
        if not k:
            return
        n = self._n
        if n + k > len(self._data["t"]):
            size = max(2 * len(self._data["t"]), n + k, 1024)
            for name, col in self._data.items():
                grown = np.empty(size, dtype=col.dtype)
                grown[:n] = col[:n]
                self._data[name] = grown
        last = self.checks[-1] if self.checks else None
        if last is None or last[0] is not p_value or last[1] is not swd:
            self.checks.append((p_value, swd))
        d = self._data
        rows = slice(n, n + k)
        d["t"][rows] = np.arange(t, t + k)
        d["iteration"][rows] = iteration
        d["gt_task"][rows] = gt_task
        d["pred_label"][rows] = pred_label
        d["reward"][rows] = reward
        d["probe_flag"][rows] = probe_flag
        d["check"][rows] = len(self.checks) - 1
        if event:
            self.events[n] = event
        self._n = n + k

    def __len__(self) -> int:
        return self._n

    def _chunks(self):
        """The rows as Python lists, ``_CHUNK`` rows at a time, in
        ``TraceRow`` field order with ``check`` in place of p_value and swd."""
        d = self._data
        for lo in range(0, self._n, _CHUNK):
            hi = min(lo + _CHUNK, self._n)
            event = [""] * (hi - lo)
            for i, kind in self.events.items():
                if lo <= i < hi:
                    event[i - lo] = kind
            yield (d["t"][lo:hi].tolist(), d["iteration"][lo:hi].tolist(),
                   d["gt_task"][lo:hi].tolist(), d["pred_label"][lo:hi].tolist(),
                   event, d["check"][lo:hi].tolist(), d["reward"][lo:hi].tolist(),
                   d["probe_flag"][lo:hi].tolist())

    def __iter__(self):
        checks = self.checks
        for cols in self._chunks():
            for t, iteration, gt_task, pred_label, event, check, reward, probe_flag in zip(*cols):
                yield TraceRow(t, iteration, gt_task, pred_label, event, *checks[check],
                               reward, probe_flag)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def _fmt_opt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def write_trace(path, trace: Trace) -> None:
    """Write ``trace`` as CSV, each check's p_value and swd formatted once."""
    checks = [f"{_fmt_opt(p)},{_fmt_opt(s)}" for p, s in trace.checks]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for t, iteration, gt_task, pred_label, event, check, reward, probe_flag in (
                trace._chunks()):
            fh.writelines(map(_LINE.__mod__, zip(
                t, iteration, gt_task, pred_label, event, map(checks.__getitem__, check),
                reward, probe_flag)))


def read_trace(path) -> Trace:
    """The trace of a ``trace.csv`` written by :func:`write_trace`.

    Lines go straight into the columns. A run of lines with the same
    p_value and swd text is one check, so 0.0 and -0.0 stay apart.
    """
    trace = Trace()
    columns = [[] for _ in Trace._DTYPES]  # in _DTYPES order
    check_text = None
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header.split(",") != TRACE_COLUMNS:
            raise ValueError(f"{path}:1: unexpected trace header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(TRACE_COLUMNS):
                raise ValueError(f"{path}:{lineno}: expected {len(TRACE_COLUMNS)} fields, "
                                 f"got {len(parts)}")
            t, iteration, gt_task, pred_label, event, p_value, swd, reward, probe_flag = parts
            try:
                values = (int(t), int(iteration), int(gt_task), int(pred_label), float(reward),
                          int(probe_flag))
                if (p_value, swd) != check_text:
                    trace.checks.append((float(p_value) if p_value else None,
                                         float(swd) if swd else None))
                    check_text = p_value, swd
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: unparseable value ({exc})") from None
            for column, value in zip(columns, (*values, len(trace.checks) - 1)):
                column.append(value)
            if event:
                trace.events[trace._n] = event
            trace._n += 1
    trace._data = {name: np.array(column, dtype)
                   for (name, dtype), column in zip(Trace._DTYPES.items(), columns)}
    return trace


def event_record(ev) -> dict:
    """A detection event as a plain JSON-ready record, probed labels in id order."""
    return {
        "t": ev.t,
        "kind": ev.kind,
        "old_label": ev.old_label,
        "new_label": ev.new_label,
        "probed_pvalues": {str(k): v for k, v in sorted(ev.probed_pvalues.items())},
    }


def write_events(path, events) -> None:
    """Write detection events as a JSON array of :func:`event_record` records."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([event_record(ev) for ev in events], fh, indent=2, sort_keys=True)
        fh.write("\n")
