"""Streaming data: datapoints and stream files.

A datapoint packs one environment step into a flat vector
``[sqrt(len(phi)) * reward, action, phi...]``; the reward is scaled up
with the latent width so it is not drowned out by the latent block when
the vector is projected onto random directions. Steps are packed a
block at a time (:func:`make_datapoints`).
"""
from __future__ import annotations

import itertools
import math
import os
import warnings
from typing import Iterator, NamedTuple

import numpy as np

__all__ = [
    "make_datapoints",
    "StreamBlock",
    "write_stream",
    "read_stream_blocks",
    "prefetch_stream_blocks",
]


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


class StreamBlock(NamedTuple):
    """Consecutive recorded steps as parallel arrays, one entry per step."""

    t: np.ndarray  # int64
    gt_task: np.ndarray  # int64
    reward: np.ndarray
    action: np.ndarray  # float, truncated toward zero like int()
    phi: np.ndarray  # (n, k)


# t and gt_task become int64, so they must lie in [-2**63, 2**63); both
# ends are exact as floats.
_INT64_END = 2.0 ** 63

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
    ``gt_task`` integers in the int64 range; the action is truncated
    toward zero. Only the current block is held in memory.
    """
    with open(path, "r", encoding="utf-8") as fh:
        k = _read_header(fh, path)
        yield from map(_block, _tables(fh, k, path))


def _tables(fh, k: int, path) -> Iterator[np.ndarray]:
    """The validated ``(rows, k + 4)`` table of every non-empty block after the header."""
    lineno = 2
    empty = True
    while lines := list(itertools.islice(fh, _BLOCK_LINES)):
        table = _parse_block(lines, k)
        if table is None:
            table = _parse_lines(lines, k, path, lineno)
        lineno += len(lines)
        if table.shape[0]:
            empty = False
            yield table
    if empty:
        raise ValueError(f"{path}: stream contains no data rows")


def _block(table: np.ndarray) -> StreamBlock:
    """A table's columns as a block that owns its arrays, each contiguous."""
    return StreamBlock(
        t=table[:, 0].astype(np.int64),
        gt_task=table[:, 1].astype(np.int64),
        reward=table[:, 2].copy(),
        action=np.trunc(table[:, 3]),
        phi=table[:, 4:].copy(),
    )


# How long a reader that was told to stop may take to exit before it is killed.
_REAP_TIMEOUT_S = 1.0
# Slots in the ring of blocks shared with the reader. While a new label's
# window fills (30,240 rows, 7.4 blocks, at paper windows) the detector
# makes no checks and drains the ring faster than the reader parses, so the
# ring holds eight blocks, or as many as fit in _RING_BYTES, but at least two.
_RING_BLOCKS = 8
_RING_BYTES = 8 << 20


def prefetch_stream_blocks(path) -> Iterator[StreamBlock]:
    """:func:`read_stream_blocks`, parsed in a reader process ahead of the caller.

    On the first ``next()`` the header is read here and a reader process
    is forked to parse the rest. It copies each block's table into a free
    slot of a ring in shared memory and sends only the slot and row count
    through a pipe; this process copies the slot into a block of its own
    and hands the slot back before yielding the block. The ring holds a
    few blocks and a reader without a free slot waits, so memory stays
    flat. The reader's errors are raised here, after the blocks before
    them, with the same type and message. Closing the generator (also
    through ``contextlib.closing`` when an exception ends the caller's
    loop) stops and reaps the reader. Without ``fork``, in a daemonic
    process or with one usable CPU, the blocks are parsed in this process
    instead.
    """
    with open(path, "r", encoding="utf-8") as fh:
        k = _read_header(fh, path)
        started = _start_reader(fh, k, path)
        if started is None:
            yield from map(_block, _tables(fh, k, path))
            return
    receiver, returns, reader, slots = started
    try:
        while (item := _receive(receiver, reader, path)) is not None:
            if isinstance(item, BaseException):
                raise item
            slot, rows = item
            block = _block(slots[slot, :rows])
            try:
                returns.send(slot)
            except BrokenPipeError:
                pass  # the reader has exited; the next receive says how
            yield block
    finally:
        receiver.close()  # a reader blocked on a send now gets a broken pipe,
        returns.close()  # and one waiting for a free slot the end of its pipe
        reader.join(_REAP_TIMEOUT_S)
        if reader.is_alive():
            reader.kill()
            reader.join()
        reader.close()


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _start_reader(fh, k: int, path):
    """``(block pipe, slot pipe, reader process, ring slots)``, or None where no
    reader can run. The reader goes on reading ``fh`` after its header."""
    if not hasattr(os, "fork") or _usable_cpus() < 2:
        return None
    import mmap  # on first use, like multiprocessing
    import multiprocessing  # on first use: the import costs 15-20 ms
    from multiprocessing import util

    if multiprocessing.current_process().daemon:  # may not start children
        return None
    ctx = multiprocessing.get_context("fork")
    slot_bytes = 8 * _BLOCK_LINES * (k + 4)
    n_slots = max(2, min(_RING_BLOCKS, _RING_BYTES // slot_bytes))
    ring = mmap.mmap(-1, n_slots * slot_bytes)  # anonymous: shared with forked children
    slots = np.frombuffer(ring, dtype=float).reshape(n_slots, _BLOCK_LINES, k + 4)
    receiver, sender = ctx.Pipe(duplex=False)
    free, returns = ctx.Pipe(duplex=False)
    # Every process forked from here on, this reader and any other, closes
    # its copies of our ends: closing ours must break the pipes.
    for end in (receiver, returns):
        util.register_after_fork(end, type(end).close)
    reader = ctx.Process(target=_fill_slots, args=(fh, k, path, slots, sender, free),
                         name="swoks-stream-reader", daemon=True)
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on every fork of a multi-threaded process.
            # The other threads are typically BLAS workers, which stop
            # around a fork, and the reader only parses and copies.
            warnings.filterwarnings("ignore", ".*multi-threaded.*fork", DeprecationWarning)
            reader.start()
    except OSError:  # fork refused, e.g. at a process limit
        receiver.close()
        returns.close()
        return None
    finally:
        sender.close()  # the reader holds the only writing end of the block pipe
        free.close()  # and the only reading end of the slot pipe
    return receiver, returns, reader, slots


def _receive(receiver, reader, path):
    """The reader's next message: a ``(slot, rows)`` pair, its error, or None at the end."""
    try:
        return receiver.recv()
    except EOFError:
        reader.join(_REAP_TIMEOUT_S)
        raise RuntimeError(f"{path}: stream reader exited with code {reader.exitcode} "
                           "before the end of the stream") from None


def _fill_slots(fh, k, path, slots, sender, free) -> None:
    """Body of the reader process: each table into a slot (the ring's own on
    the first lap, then each one handed back), then None or the error."""
    import signal  # here, not at module level: 1-2 ms of every ``import swoks``

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is for the parent to handle
    try:
        for i, table in enumerate(_tables(fh, k, path)):
            slot = i if i < len(slots) else free.recv()
            slots[slot, :table.shape[0]] = table
            sender.send((slot, table.shape[0]))
        outcome = None
    except (BrokenPipeError, EOFError):
        return  # the parent stopped reading
    except Exception as exc:  # noqa: BLE001 - raised again in the parent
        outcome = exc
    try:
        sender.send(outcome)
    except BrokenPipeError:
        pass


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
    if not (np.isfinite(table).all() and (ids == np.trunc(ids)).all()
            and (ids >= -_INT64_END).all() and (ids < _INT64_END).all()):
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
            if not -_INT64_END <= v < _INT64_END:
                raise ValueError(f"{path}:{lineno}: {name} {v!r} is outside the int64 range")
        rows.append(values)
    return np.array(rows, dtype=float).reshape(-1, k + 4)
