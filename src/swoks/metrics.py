"""Run evaluation: label alignment, detection delay, false positive rate,
and the seed loops that score whole runs (beta sweep, false positives).

Predicted labels are arbitrary integers, so accuracy is scored under
the best injective label-to-task assignment (rectangular Hungarian);
renaming labels never changes the score.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import runner
from .detector import EVENT_NEW_TASK, EVENT_RE_DETECTED
from .seeding import child_seed

__all__ = [
    "optimal_label_map",
    "label_alignment_accuracy",
    "detection_delay",
    "run_included_mask",
    "false_positive_rate",
    "sweep_beta",
]


def _checked(pred, gt, include) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    p = np.asarray(pred)
    g = np.asarray(gt)
    if p.ndim != 1 or g.ndim != 1 or p.shape != g.shape:
        raise ValueError("pred and gt must be 1D sequences of equal length")
    if p.shape[0] == 0:
        raise ValueError("empty sequences")
    if include is None:
        m = np.ones(p.shape[0], dtype=bool)
    else:
        m = np.asarray(include, dtype=bool)
        if m.shape != p.shape:
            raise ValueError("include mask must match sequence length")
    return p, g, m


def _confusion(pred, gt, include):
    p, g, m = _checked(pred, gt, include)
    labels, li = np.unique(p[m], return_inverse=True)
    tasks, ti = np.unique(g[m], return_inverse=True)
    shape = (labels.shape[0], tasks.shape[0])
    counts = np.bincount(li * shape[1] + ti, minlength=shape[0] * shape[1]).reshape(shape)
    return labels, tasks, counts, int(li.shape[0])


def _best_assignment(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # scipy.optimize is most of the package's import time, so only the
    # scoring functions load it, on first use.
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment(counts, maximize=True)


def optimal_label_map(pred, gt, include=None) -> dict[int, int]:
    """Best injective assignment of labels to tasks by step agreement.

    Labels left unassigned (when labels outnumber tasks) are omitted
    from the returned dict.
    """
    labels, tasks, counts, total = _confusion(pred, gt, include)
    if total == 0:
        return {}
    rows, cols = _best_assignment(counts)
    return {int(labels[r]): int(tasks[c]) for r, c in zip(rows, cols)}


def label_alignment_accuracy(pred, gt, include=None) -> float:
    """Fraction of (included) steps matched under the best injective map."""
    labels, tasks, counts, total = _confusion(pred, gt, include)
    if total == 0:
        raise ValueError("no included steps to score")
    rows, cols = _best_assignment(counts)
    return float(counts[rows, cols].sum() / total)


def detection_delay(trace) -> list[float]:
    """Steps from each ground-truth change to the next label change.

    ``trace`` is a :class:`~swoks.trace.Trace`, its ``t`` increasing. A
    change never answered by a label change yields ``inf``.
    """
    t = trace.t
    if not t.shape[0]:
        raise ValueError("empty trace")
    gt_changes = t[1:][np.diff(trace.gt_task) != 0]
    pred_changes = t[1:][np.diff(trace.pred_label) != 0]
    # The first label change at or after each task change.
    first = np.searchsorted(pred_changes, gt_changes)
    answered = first < pred_changes.shape[0]
    delays = np.full(gt_changes.shape[0], np.inf)
    delays[answered] = pred_changes[first[answered]] - gt_changes[answered]
    return delays.tolist()


def run_included_mask(trace, events, stable_phase: int) -> np.ndarray:
    """Steps of a :class:`~swoks.trace.Trace` that count toward alignment:
    no probe steps, no stable phase.

    The stable phase restarts at 0 and at every new-task event, exactly
    mirroring the detector's suppression window.
    """
    changes = np.array([0] + sorted(ev.t for ev in events if ev.kind == EVENT_NEW_TASK))
    t = trace.t
    # The latest change at or before each step.
    last = changes[np.maximum(np.searchsorted(changes, t, side="right") - 1, 0)]
    return (trace.probe_flag == 0) & (t - last >= stable_phase)


def false_positive_rate(config, n_runs: int, seed: int) -> float:
    """Fraction of stationary runs that raise any detection event.

    Each run uses a seed derived from ``seed`` and the run index. The
    config's curriculum must hold a single task, so that every event is
    spurious by construction; ValueError otherwise, before any run.
    """
    if n_runs < 0:
        raise ValueError(f"n_runs must be >= 0, got {n_runs}")
    tasks = sorted({task for task, _ in config.curriculum.segments})
    if len(tasks) > 1:
        raise ValueError(f"false-positive runs need a single-task curriculum, got tasks {tasks}")
    if n_runs == 0:
        return 0.0
    positives = 0
    for i in range(n_runs):
        cfg = replace(config, master_seed=child_seed(seed, f"fpr-run-{i}"))
        result = runner.run_experiment(cfg)
        if result.events:
            positives += 1
    return positives / n_runs


def sweep_beta(config, betas) -> list[dict]:
    """Run the experiment once per beta on identical seeds.

    Returns one summary row per beta: new-task event count and aligned
    accuracy over included (non-probe, post-stable-phase) steps.
    """
    # Every beta is validated before the first run starts.
    configs = [replace(config, detector=replace(config.detector, beta=float(beta)))
               for beta in betas]
    if not configs:
        raise ValueError("betas must not be empty")
    rows = []
    for cfg in configs:
        result = runner.run_experiment(cfg)
        mask = run_included_mask(result.trace, result.events,
                                 cfg.detector.stable_phase)
        accuracy = (
            label_alignment_accuracy(result.trace.pred_label, result.trace.gt_task,
                                     include=mask)
            if mask.any() else float("nan")
        )
        rows.append({
            "beta": cfg.detector.beta,
            "new_task_events": sum(1 for e in result.events if e.kind == EVENT_NEW_TASK),
            "re_detected_events": sum(1 for e in result.events if e.kind == EVENT_RE_DETECTED),
            "accuracy": accuracy,
            "final_labels": result.final_label_count,
        })
    return rows
