"""Run traces, kept in columns, and their CSV form.

One row per global step, live and probe steps alike. The swd and
p_value columns carry the detector's latest distance check and shift
test, whichever label ran them: they are empty (None in a
:class:`Trace`, which keeps every field but ``event`` as a column) only
before the run's first check and first test, and after a label switch
they keep the triggering check's values until the new label's window is
checked. Floats are written with repr so a rerun with identical seeds
produces byte-identical files. A :class:`TraceWriter` writes the file as
rows are appended, so a run's memory does not grow with its length.
"""
from __future__ import annotations

import json
from itertools import chain, repeat, starmap
from typing import NamedTuple

import numpy as np

__all__ = [
    "TRACE_COLUMNS", "Trace", "TraceRow", "TraceWriter", "read_trace",
    "event_record", "write_events",
]

TRACE_COLUMNS = [
    "t", "iteration", "gt_task", "pred_label", "event",
    "p_value", "swd", "reward", "probe_flag",
]

_CHUNK = 4096  # rows per tolist() batch, which bounds the Python objects alive at once


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


def _row_count(reward, iteration, gt_task) -> int:
    """``len(reward)``; ValueError if ``iteration`` or ``gt_task`` is a sequence of another."""
    k = len(reward)
    for value in (iteration, gt_task):
        if hasattr(value, "__len__") and len(value) != k:
            raise ValueError(f"iteration and gt_task must hold one value, or one per reward ({k})")
    return k


class Trace:
    """A run's trace as columns, one row per global step.

    Every field of ``trace.csv`` but ``event`` is a column: ``t``,
    ``iteration``, ``gt_task``, ``pred_label``, ``reward`` and
    ``probe_flag`` numeric, ``p_value`` and ``swd`` object columns that
    hold the appended float, or None where no check has run; the rows of
    one append share the same objects. ``events`` maps a row index to the
    event kind it carries. Iterating yields :class:`TraceRow` records;
    ``len`` and ``==`` behave as they do for the list of those records,
    and ``==`` compares the columns and ``events``.
    """

    t = _Column()
    iteration = _Column()
    gt_task = _Column()
    pred_label = _Column()
    p_value = _Column()
    swd = _Column()
    reward = _Column()
    probe_flag = _Column()

    _DTYPES = {"t": np.int64, "iteration": np.int64, "gt_task": np.int64,
               "pred_label": np.int64, "p_value": object, "swd": object,
               "reward": np.float64, "probe_flag": np.int64}

    def __init__(self, capacity: int = 0):
        """An empty trace with room for ``capacity`` rows; it grows past that as needed."""
        self._n = 0
        self._data = {name: np.empty(capacity, dtype) for name, dtype in self._DTYPES.items()}
        self.events: dict[int, str] = {}

    def append(self, t: int, iteration, gt_task, pred_label, reward, probe_flag: int,
               p_value: float | None, swd: float | None, event: str = "") -> None:
        """Append rows ``t, t + 1, ...`` that share one check's p_value and swd.

        ``reward`` holds one value per row; ``iteration`` and ``gt_task``
        take one value per row or one for all of them (ValueError before
        anything is stored if a sequence has another length), and
        ``pred_label`` one for all of them. ``event`` marks the first row.
        """
        k = _row_count(reward, iteration, gt_task)
        if not k:
            return
        n = self._n
        if n + k > len(self._data["t"]):
            size = max(2 * len(self._data["t"]), n + k, 1024)
            for name, col in self._data.items():
                grown = np.empty(size, dtype=col.dtype)
                grown[:n] = col[:n]
                self._data[name] = grown
        values = (np.arange(t, t + k), iteration, gt_task, pred_label, p_value, swd, reward,
                  probe_flag)  # in _DTYPES order
        for col, value in zip(self._data.values(), values):
            col[n:n + k] = value
        if event:
            self.events[n] = event
        self._n = n + k

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        """The rows as :class:`TraceRow` records, converted ``_CHUNK`` rows at a time."""
        for lo in range(0, self._n, _CHUNK):
            hi = min(lo + _CHUNK, self._n)
            fields = {name: col[lo:hi].tolist() for name, col in self._data.items()}
            fields["event"] = events = [""] * (hi - lo)
            for i, kind in self.events.items():
                if lo <= i < hi:
                    events[i - lo] = kind
            yield from starmap(TraceRow, zip(*(fields[name] for name in TRACE_COLUMNS)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.events == other.events and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in self._DTYPES)


def _check_text(p_value: float | None, swd: float | None) -> str:
    """A check's ``p_value,swd`` fields: repr, or empty where no check has run."""
    return ",".join("" if v is None else repr(float(v)) for v in (p_value, swd))


class TraceWriter:
    """A ``trace.csv`` written as rows arrive.

    The file and its header are written when the writer is made.
    ``append`` takes :meth:`Trace.append`'s arguments and writes the rows
    at once, so memory stays flat however long the run, and a run that
    stops early leaves every row appended before :meth:`close`.
    """

    def __init__(self, path):
        self._fh = open(path, "w", encoding="utf-8")
        self._fh.write(",".join(TRACE_COLUMNS) + "\n")
        self._check = None  # (p_value, swd, their text) of the latest append

    def append(self, t: int, iteration, gt_task, pred_label, reward, probe_flag: int,
               p_value: float | None, swd: float | None, event: str = "") -> None:
        """Write rows ``t, t + 1, ...``, as :meth:`Trace.append` stores them;
        ``pred_label`` is one label for every row of the append."""
        k = _row_count(reward, iteration, gt_task)
        if not k:
            return
        check = self._check
        if check is None or check[0] is not p_value or check[1] is not swd:
            check = self._check = (p_value, swd, _check_text(p_value, swd))
        # The fields every row shares are formatted once, into the line format.
        fields = [range(t, t + k), _per_row(iteration), _per_row(gt_task)]
        head = "%d,%d,%d," + "%d" % pred_label + ","
        tail = "," + check[2] + ",%r," + "%d\n" % probe_flag
        first = head + str(event).replace("%", "%%") + tail
        # One format call for the block.
        values = tuple(chain.from_iterable(zip(*fields, map(float, reward))))
        self._fh.write((first + (head + tail) * (k - 1)) % values)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _per_row(value):
    """``value`` as an iterable over rows: one value repeats for every row."""
    return value if hasattr(value, "__len__") else repeat(value)


def read_trace(path) -> Trace:
    """The trace of a ``trace.csv`` written by a :class:`TraceWriter`.

    Lines go straight into the columns. A run of lines with the same
    p_value and swd text shares one parsed pair, as an append's rows do:
    0.0 and -0.0 stay apart, and a row parses no floats of its own there.
    """
    trace = Trace()
    columns = [[] for _ in Trace._DTYPES]  # in _DTYPES order
    check_text = check = None
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
                if (p_value, swd) != check_text:
                    check = (float(p_value) if p_value else None, float(swd) if swd else None)
                    check_text = p_value, swd
                values = (int(t), int(iteration), int(gt_task), int(pred_label), *check,
                          float(reward), int(probe_flag))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: unparseable value ({exc})") from None
            for column, value in zip(columns, values):
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
