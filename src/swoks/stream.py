"""Streaming data structures: datapoints, FIFO windows, distance history.

A datapoint packs one environment step into a flat vector
``[sqrt(len(phi)) * reward, action, phi...]``; the reward is scaled up
with the latent width so it is not drowned out by the latent block when
the vector is projected onto random directions. Steps are packed a
block at a time (:func:`make_datapoints`).
"""
from __future__ import annotations

import itertools
import math
import warnings
from collections import deque
from typing import Iterator, NamedTuple

import numpy as np

__all__ = [
    "NotReadyError",
    "make_datapoints",
    "WindowBuffer",
    "SwdHistory",
    "StreamBlock",
    "write_stream",
    "read_stream_blocks",
]


class NotReadyError(RuntimeError):
    """A windowed quantity was requested before the window filled up."""


def make_datapoints(phi, actions, rewards) -> np.ndarray:
    """Pack a block of steps into an ``(n, k + 2)`` array of datapoints.

    ``phi`` is ``(n, k)``, ``actions`` and ``rewards`` have length
    ``n``. Row ``i`` holds ``sqrt(k) * rewards[i]``, ``actions[i]`` and
    ``phi[i]``. Shapes are checked here; finiteness is left to the
    caller, which must reject the rows that are not finite (a scaled
    reward that overflows is one).
    """
    latent = np.asarray(phi, dtype=float)
    if latent.ndim != 2 or latent.shape[1] < 1:
        raise ValueError("phi must be a 2D block with at least one latent column")
    n, k = latent.shape
    a = np.asarray(actions, dtype=float)
    r = np.asarray(rewards, dtype=float)
    if a.shape != (n,) or r.shape != (n,):
        raise ValueError(
            f"actions {a.shape} and rewards {r.shape} must have shape ({n},)"
        )
    out = np.empty((n, k + 2), dtype=float)
    with np.errstate(over="ignore"):
        out[:, 0] = math.sqrt(k) * r
    out[:, 1] = a
    out[:, 2:] = latent
    return out


class WindowBuffer:
    """Fixed-capacity FIFO of datapoints backed by a ring of rows.

    Capacity is ``set_len * (n_windows + 1)`` rows: the newest
    ``set_len`` rows form the recent set, the oldest ``set_len`` the
    old set, and both are only defined once the buffer is full.
    """

    def __init__(self, width: int, set_len: int, n_windows: int):
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        if set_len < 1:
            raise ValueError(f"set_len must be >= 1, got {set_len}")
        if n_windows < 1:
            raise ValueError(f"n_windows must be >= 1, got {n_windows}")
        self._width = width
        self._set_len = set_len
        self._capacity = set_len * (n_windows + 1)
        self._data = np.zeros((self._capacity, width), dtype=float)
        self._next = 0  # next write slot
        self._size = 0
        self._pushed = 0  # rows pushed since the last clear

    @property
    def width(self) -> int:
        return self._width

    @property
    def set_len(self) -> int:
        return self._set_len

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def is_full(self) -> bool:
        return self._size == self._capacity

    @property
    def pushed(self) -> int:
        """Rows pushed since the last clear; the newest row has index ``pushed - 1``."""
        return self._pushed

    def __len__(self) -> int:
        return self._size

    def extend(self, datapoints) -> None:
        """Append the rows of an ``(n, width)`` array in order, evicting the oldest when full."""
        rows = np.asarray(datapoints, dtype=float)
        if rows.size == 0:
            return
        if rows.ndim != 2 or rows.shape[1] != self._width:
            raise ValueError(
                f"datapoints shape {rows.shape} does not match buffer width {self._width}"
            )
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
        self._size = 0
        self._next = 0
        self._pushed = 0

    def _rows(self, start: int, count: int) -> np.ndarray:
        # start is an offset from the oldest stored row.
        first = (self._next - self._size + start) % self._capacity
        head = min(count, self._capacity - first)
        if head == count:
            return self._data[first:first + count].copy()
        return np.concatenate([self._data[first:], self._data[:count - head]])

    def recent_set(self) -> np.ndarray:
        """Newest ``set_len`` rows in arrival order. Requires a full buffer."""
        if not self.is_full:
            raise NotReadyError(f"buffer holds {self._size}/{self._capacity} rows")
        return self._rows(self._size - self._set_len, self._set_len)

    def old_set(self) -> np.ndarray:
        """Oldest ``set_len`` rows in arrival order. Requires a full buffer."""
        if not self.is_full:
            raise NotReadyError(f"buffer holds {self._size}/{self._capacity} rows")
        return self._rows(0, self._set_len)

    def oldest(self, count: int) -> np.ndarray:
        """Oldest ``count`` stored rows (no fullness requirement)."""
        if count < 0 or count > self._size:
            raise ValueError(f"cannot take {count} rows from {self._size} stored")
        return self._rows(0, count)


class SwdHistory:
    """FIFO of sliced distance values split into an old and a new half.

    Holds ``2 * half_len`` values once full; the newest ``half_len``
    form the new half and the preceding ``half_len`` the old half.
    """

    def __init__(self, half_len: int):
        if half_len < 1:
            raise ValueError(f"half_len must be >= 1, got {half_len}")
        self._half = half_len
        self._values: deque[float] = deque(maxlen=2 * half_len)

    @property
    def half_len(self) -> int:
        return self._half

    @property
    def is_full(self) -> bool:
        return len(self._values) == 2 * self._half

    def __len__(self) -> int:
        return len(self._values)

    def push(self, value: float) -> None:
        v = float(value)
        if not np.isfinite(v) or v < 0.0:
            raise ValueError(f"distance values must be finite and non-negative, got {value}")
        self._values.append(v)

    def values(self) -> np.ndarray:
        return np.array(self._values, dtype=float)

    def new_half(self) -> np.ndarray:
        if not self.is_full:
            raise NotReadyError(f"history holds {len(self._values)}/{2 * self._half} values")
        return np.array(list(self._values)[self._half:], dtype=float)

    def old_half(self) -> np.ndarray:
        if not self.is_full:
            raise NotReadyError(f"history holds {len(self._values)}/{2 * self._half} values")
        return np.array(list(self._values)[: self._half], dtype=float)

    def keep_oldest(self, count: int) -> None:
        """Drop everything but the oldest ``count`` values."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        kept = list(self._values)[:count]
        self._values.clear()
        self._values.extend(kept)


class StreamBlock(NamedTuple):
    """Consecutive recorded steps as parallel arrays, one entry per step."""

    t: np.ndarray  # int64
    gt_task: np.ndarray  # int64
    reward: np.ndarray
    action: np.ndarray  # float, truncated toward zero like int()
    phi: np.ndarray  # (n, k)


# Lines parsed or formatted per batch: enough to amortise a numpy call,
# few enough that a block's arrays stay well under a megabyte.
_BLOCK_LINES = 4096


def _stream_header(latent_dim: int) -> list[str]:
    return ["t", "gt_task", "r", "a"] + [f"phi_{i + 1}" for i in range(latent_dim)]


def write_stream(path, block: StreamBlock) -> int:
    """Write a block as CSV with columns t, gt_task, r, a, phi_1..phi_k.

    ``t``, ``gt_task`` and the action are written as integers (the
    action truncated toward zero), the reward and latents with ``repr``.
    Returns the number of rows written.
    """
    t, gt_task, reward, action = (np.asarray(column) for column in block[:4])
    reward = reward.astype(float)  # repr of a float, also for integer rewards
    phi = np.asarray(block.phi, dtype=float)
    if phi.ndim != 2 or any(c.shape != phi.shape[:1] for c in (t, gt_task, reward, action)):
        raise ValueError(f"t, gt_task, r and a must be 1D with one entry per row of phi "
                         f"{phi.shape}")
    n, k = phi.shape
    if not n:
        raise ValueError("cannot write an empty stream")
    line = "%d,%d,%r,%d" + ",%r" * k + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(_stream_header(k)) + "\n")
        for lo in range(0, n, _BLOCK_LINES):
            rows = slice(lo, lo + _BLOCK_LINES)
            fh.writelines(map(line.__mod__, zip(
                t[rows].tolist(), gt_task[rows].tolist(), reward[rows].tolist(),
                action[rows].tolist(), *phi[rows].T.tolist())))
    return n


def read_stream_blocks(path) -> Iterator[StreamBlock]:
    """Parse a recorded stream block by block, reporting malformed lines by number.

    Blank lines are skipped. Every value must be finite, ``t`` and
    ``gt_task`` integers; the action is truncated toward zero. Only the
    current block is held in memory.
    """
    with open(path, "r", encoding="utf-8") as fh:
        k = _read_header(fh, path)
        lineno = 2
        empty = True
        while lines := list(itertools.islice(fh, _BLOCK_LINES)):
            table = _parse_block(lines, k)
            if table is None:
                table = _parse_lines(lines, k, path, lineno)
            lineno += len(lines)
            if table.shape[0]:
                empty = False
                yield StreamBlock(
                    t=table[:, 0].astype(np.int64),
                    gt_task=table[:, 1].astype(np.int64),
                    reward=table[:, 2],
                    action=np.trunc(table[:, 3]),
                    phi=table[:, 4:],
                )
    if empty:
        raise ValueError(f"{path}: stream contains no data rows")


def _read_header(fh, path) -> int:
    """Check the header line and return the latent width."""
    header = fh.readline()
    if not header:
        raise ValueError(f"{path}:1: empty stream file")
    cols = [c.strip() for c in header.strip().split(",")]
    if len(cols) < 5 or cols[:4] != ["t", "gt_task", "r", "a"]:
        raise ValueError(
            f"{path}:1: bad header, expected 't,gt_task,r,a,phi_1..' got {header.strip()!r}"
        )
    expected = _stream_header(len(cols) - 4)
    if cols != expected:
        raise ValueError(f"{path}:1: bad latent columns, expected {expected[4:]}")
    return len(cols) - 4


def _parse_block(lines: list[str], k: int) -> np.ndarray | None:
    """The lines as a ``(rows, k + 4)`` table, or None when any line is malformed.

    A line of only whitespace also gives None; the per-line parse then
    skips it.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a block of empty lines "contains no data"
            table = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except ValueError:
        return None
    if table.shape[0] == 0:
        return np.empty((0, k + 4))
    if table.shape[1] != k + 4:
        return None
    ids = table[:, :2]
    if not (np.isfinite(table).all() and (ids == np.trunc(ids)).all()):
        return None
    return table


def _parse_lines(lines: list[str], k: int, path, first_lineno: int) -> np.ndarray:
    """Parse line by line: the table of a block, or an error naming the bad line."""
    rows = []
    for lineno, line in enumerate(lines, start=first_lineno):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != k + 4:
            raise ValueError(f"{path}:{lineno}: expected {k + 4} fields, got {len(parts)}")
        try:
            values = [float(v) for v in parts]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: unparseable value ({exc})") from None
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{path}:{lineno}: non-finite value")
        for name, v in zip(("t", "gt_task"), values):
            if not v.is_integer():
                raise ValueError(f"{path}:{lineno}: {name} must be an integer, got {v!r}")
        rows.append(values)
    return np.array(rows, dtype=float).reshape(-1, k + 4)
