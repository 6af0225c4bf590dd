"""Checks of each workload's outputs, and the label-quality metrics.

Every check compares the program's outputs with an independent
computation (``reference``) or with a property the method must have;
none compares with a stored copy of earlier output. Each function
returns ``(errors, failed, quality)``: a list of failed checks, the
number of operations that failed, and the workload's
``label_accuracy`` and ``detection_delay_steps``.

The last round's outputs are checked in full (for ``desk`` they are
the files on disk). Every round repeats the same inputs, so a round
whose outputs equal the last round's shares its verdict, and a round
whose outputs differ from them fails.
"""
from __future__ import annotations

import csv
import json
import math
import statistics
from pathlib import Path

import numpy as np

import reference
import synth

SWITCHES = ("new-task", "re-detected")
REL_TOL = 1e-9


def _tally(rounds, outputs, found, last_fails=False):
    """Errors and the number of failed rounds.

    ``found`` are the errors in the last round's outputs; ``last_fails``
    fails it without an error. ``outputs(round)`` gives what must repeat.
    """
    ref = outputs(rounds[-1])
    differ = sum(1 for r in rounds if outputs(r) != ref)
    errors = list(found)
    if differ:
        errors.append(f"{differ} of {len(rounds)} rounds gave other outputs than the "
                      "last round on the same inputs")
    return errors, len(rounds) if found or last_fails else differ


def desk(out: dict, run_dir: Path):
    rounds = out["rounds"]
    found, quality = _desk_files(rounds[-1], run_dir)
    errors, failed = _tally(rounds, lambda r: (r["summary"]["trace_sha256"],
                                                r["summary"]["events_sha256"]), found)
    return errors, failed, quality


def _desk_files(rnd: dict, run_dir: Path):
    s = rnd["summary"]
    errors = []
    with open(run_dir / "trace.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    events = json.loads((run_dir / "events.json").read_text(encoding="utf-8"))
    ts = [int(r["t"]) for r in rows]
    n = rnd["steps"]
    if ts != list(range(1, n + 1)):
        errors.append(f"trace t is not 1..{n} without gaps")
        return errors, {}
    probe = [r["probe_flag"] == "1" for r in rows]
    pred = [int(r["pred_label"]) for r in rows]
    gt = [int(r["gt_task"]) for r in rows]
    marked = [i for i, r in enumerate(rows) if r["event"]]
    if len(marked) != len(events):
        errors.append(f"{len(events)} events but {len(marked)} trace rows carry one")
    top = 1
    n_new = 0
    expected_probe_rows = 0
    for i, ev in zip(marked, events):
        row_t = ts[i]
        if rows[i]["event"] != ev["kind"]:
            errors.append(f"t={row_t}: trace event {rows[i]['event']!r} != {ev['kind']!r}")
        with_p = sum(1 for v in ev["probed_pvalues"].values() if v is not None)
        block = with_p * s["probe_samples"] * s["history_len"]
        expected_probe_rows += block
        if ev["t"] - row_t != block or not all(probe[row_t:ev["t"]]):
            errors.append(f"t={row_t}: probe rows up to {ev['t']} do not match "
                          f"{with_p} probed labels x {s['probe_samples']} x {s['history_len']}")
        if ev["kind"] in SWITCHES:
            if pred[i] != ev["old_label"]:
                errors.append(f"t={row_t}: label {pred[i]} before event, expected {ev['old_label']}")
            if ev["t"] < n and pred[ev["t"]] != ev["new_label"]:
                errors.append(f"t={ev['t'] + 1}: label {pred[ev['t']]} after event, "
                              f"expected {ev['new_label']}")
        elif ev["new_label"] != ev["old_label"]:
            errors.append(f"t={row_t}: {ev['kind']} event changed the label")
        if ev["kind"] == "new-task":
            n_new += 1
            if ev["new_label"] != top + 1:
                errors.append(f"t={ev['t']}: new task got label {ev['new_label']}, expected {top + 1}")
            top = max(top, ev["new_label"])
    if sum(probe) != expected_probe_rows:
        errors.append(f"{sum(probe)} probe rows, events account for {expected_probe_rows}")
    if s["labels"] != 1 + n_new:
        errors.append(f"{s['labels']} labels after {n_new} new-task events")
    delays = reference.detection_delays(reference.change_steps(ts, gt),
                                        reference.change_steps(ts, pred))
    if not delays or None in delays:
        errors.append(f"a true change is not answered by a label change: {delays}")
        return errors, {}
    live = [i for i in range(n) if not probe[i]]
    quality = {
        "label_accuracy": reference.label_accuracy([pred[i] for i in live], [gt[i] for i in live]),
        "detection_delay_steps": statistics.mean(delays),
    }
    return errors, quality


def datapoints(rows: dict[str, np.ndarray]) -> np.ndarray:
    """``[sqrt(k) * reward, action, phi_1..phi_k]`` per step."""
    k = rows["phi"].shape[1]
    return np.column_stack([math.sqrt(k) * rows["r"], rows["a"], rows["phi"]])


def _recompute_last_check(s: dict, stream: Path, n: int, last_event: int):
    """The detector's last distance and last p-value, from the stream alone.

    The current label's window fills from the step after its creation;
    a distance is taken every ``h`` steps once ``h * (m + 1)`` points
    are held, between the newest and the oldest ``h`` of them, and a
    test once ``2m`` distances are held.
    """
    h, m = s["history_len"], s["swd_history_len"]
    cap = h * (m + 1)
    last = (n // h) * h
    first_check = last_event + cap
    checks = list(range(last - (2 * m - 1) * h, last + 1, h))
    if checks[0] < first_check:
        raise ValueError("the stream ends before the last label ran a full test")
    rows = synth.read_csv_rows(stream, checks[0] - cap + 1, last)
    points = datapoints(rows)
    offset = checks[0] - cap + 1
    dirs = reference.unit_directions(points.shape[1], s["n_projections"],
                                     reference.named_seed(s["detector_seed"], "projections"))
    swds = []
    for t in checks:
        newest = points[t - h + 1 - offset:t + 1 - offset]
        oldest = points[t - cap + 1 - offset:t - cap + 1 + h - offset]
        swds.append(reference.sliced_distance(newest, oldest, dirs))
    _, p = reference.ks_one_sided_pvalue(swds[:m], swds[m:], s["beta"])
    return swds[-1], p


def _close(a, b) -> bool:
    return a is not None and abs(a - b) <= REL_TOL * abs(b)


def detect_paper(out: dict, stream: Path, segments):
    rounds = out["rounds"]
    found, quality = _detect_outputs(rounds[-1], stream, segments)
    errors, failed = _tally(rounds, lambda r: [r["steps"]] + [
        r["summary"][k] for k in ("events", "last_swd", "last_p_value")], found)
    return errors, failed, quality


def _detect_outputs(rnd: dict, stream: Path, segments):
    s = rnd["summary"]
    errors = []
    n = sum(steps for _, steps in segments)
    if rnd["steps"] != n:
        errors.append(f"detector saw {rnd['steps']} steps, stream has {n}")
    changes = synth.change_points(segments)
    events = s["events"]
    bounds = changes + [n + 1]
    window = s["swd_history_len"] * s["history_len"]
    if any(t < changes[0] for t, *_ in events):
        errors.append("an event fired before the first change")
    for c, nxt in zip(changes, bounds[1:]):
        hits = [ev for ev in events if c <= ev[0] < nxt]
        if len(hits) != 1 or hits[0][1] != "new-task":
            errors.append(f"change at {c}: events {hits}, expected one new-task")
        elif hits[0][0] - c >= window:
            errors.append(f"change at {c} detected {hits[0][0] - c} steps late (>= {window})")
    if [ev[3] for ev in events] != list(range(2, len(events) + 2)):
        errors.append("new-task events did not mint labels 2, 3, ...")
    try:
        swd, p = _recompute_last_check(s, stream, n, events[-1][0] if events else 0)
    except ValueError as exc:
        errors.append(str(exc))
    else:
        if not _close(s["last_swd"], swd):
            errors.append(f"last_swd {s['last_swd']!r} != recomputed {swd!r}")
        if not _close(s["last_p_value"], p):
            errors.append(f"last_p_value {s['last_p_value']!r} != recomputed {p!r}")
    if errors:
        return errors, {}
    # Rows after an event's step carry the new label.
    starts = [1] + [ev[0] + 1 for ev in events] + [n + 1]
    pred: list[int] = []
    for label, (lo, hi) in enumerate(zip(starts, starts[1:]), start=1):
        pred.extend([label] * (hi - lo))
    gt = [task for task, steps in segments for _ in range(steps)]
    delays = reference.detection_delays(changes, starts[1:-1])
    quality = {
        "label_accuracy": reference.label_accuracy(pred, gt),
        "detection_delay_steps": statistics.mean(delays),
    }
    return errors, quality


def stationary(out: dict):
    """Operations are runs: a failed round counts all of its runs."""
    rounds = out["rounds"]
    s = rounds[-1]["summary"]
    runs = s["runs"]
    found = []
    k = sum(1 for r in runs if r["events"])
    if len(runs) != s["n_runs"]:
        found.append(f"{len(runs)} runs made, {s['n_runs']} asked for")
    if abs(s["rate"] * s["n_runs"] - k) > 1e-9:
        found.append(f"rate {s['rate']} is not {k}/{s['n_runs']}")
    level = 1.0 - (1.0 - s["alpha"]) ** s["tests_per_run"]
    # Over the level the detector misses its false-trigger rate: the runs
    # fail, but the outputs are still what the program computed.
    over = k > reference.binomial_upper(s["n_runs"], level, 0.001)
    errors, failed = _tally(rounds, lambda r: (r["summary"]["rate"], r["summary"]["runs"]),
                            found, last_fails=over)
    quality = {
        "label_accuracy": sum(r["matched"] for r in runs) / sum(r["live"] for r in runs),
        # No true change here: the steps each run takes to its first shift
        # test, the earliest step at which any change could be answered.
        "detection_delay_steps": statistics.mean(r["first_test"] for r in runs),
    }
    return errors, failed * s["n_runs"], quality
