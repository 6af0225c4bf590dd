"""Run trace records and their CSV form.

One row per global step, live and probe steps alike. The p_value and
swd columns carry the most recent shift-check values for the label the
step was assigned to, and are empty between a label switch and the next
check. Floats are written with repr so a rerun with identical seeds
produces byte-identical files.
"""
from __future__ import annotations

import json
from typing import NamedTuple

__all__ = [
    "TRACE_COLUMNS", "TraceRow", "write_trace", "read_trace", "event_record", "write_events",
]

TRACE_COLUMNS = [
    "t", "iteration", "gt_task", "pred_label", "event",
    "p_value", "swd", "reward", "probe_flag",
]


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


def _fmt_opt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def format_row(row: TraceRow) -> str:
    return ",".join([
        str(row.t), str(row.iteration), str(row.gt_task), str(row.pred_label),
        row.event, _fmt_opt(row.p_value), _fmt_opt(row.swd),
        repr(float(row.reward)), str(row.probe_flag),
    ])


def write_trace(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for row in rows:
            fh.write(format_row(row) + "\n")


def read_trace(path) -> list[TraceRow]:
    rows: list[TraceRow] = []
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
                raise ValueError(f"{path}:{lineno}: expected {len(TRACE_COLUMNS)} fields")
            rows.append(TraceRow(
                t=int(parts[0]), iteration=int(parts[1]), gt_task=int(parts[2]),
                pred_label=int(parts[3]), event=parts[4],
                p_value=float(parts[5]) if parts[5] else None,
                swd=float(parts[6]) if parts[6] else None,
                reward=float(parts[7]), probe_flag=int(parts[8]),
            ))
    return rows


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
