"""The three workloads, as run inside the measured process.

Each workload loads its config (part of set-up), then runs one round:
the timed call into swoks plus a summary of its outputs that the
parent process checks. Every round of a run repeats the same inputs.
"""
from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from pathlib import Path

import swoks.agent
import swoks.config
import swoks.detector
import swoks.env
import swoks.metrics
import swoks.runner

import reference
from hostspeed import clock

BENCH_DIR = Path(__file__).resolve().parent
STATIONARY_CONFIG = BENCH_DIR / "configs" / "stationary.cfg"
STATIONARY_RUNS = 10


def load(workload: str, seed: int):
    if workload == "desk":
        return swoks.config.load_config("desk", seed=seed)
    if workload == "detect-paper":
        return swoks.config.load_config("paper")
    if workload == "stationary":
        return swoks.config.load_config(STATIONARY_CONFIG)
    raise ValueError(f"unknown workload {workload!r}")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class Round:
    seconds: float
    steps: int
    summary: dict


def run_round(workload: str, cfg, seed: int, work: Path, stream: Path | None) -> Round:
    if workload == "desk":
        return _desk(cfg, work)
    if workload == "detect-paper":
        return _detect(cfg, stream)
    return _stationary(cfg, seed)


def _desk(cfg, work: Path) -> Round:
    t0 = clock()
    result = swoks.runner.run_experiment(cfg, out_dir=work)
    seconds = clock() - t0
    return Round(seconds, result.detector.t, {
        "labels": len(result.detector.labels),
        "trace_sha256": _sha256(work / "trace.csv"),
        "events_sha256": _sha256(work / "events.json"),
        "history_len": cfg.detector.history_len,
        "probe_samples": cfg.detector.resolved_probe_samples,
    })


def _detect(cfg, stream: Path) -> Round:
    t0 = clock()
    events, detector = swoks.runner.detect_offline(stream, cfg.detector)
    seconds = clock() - t0
    return Round(seconds, detector.t, {
        "events": [[e.t, e.kind, e.old_label, e.new_label] for e in events],
        "labels": len(detector.labels),
        "last_swd": detector.last_swd,
        "last_p_value": detector.last_p_value,
        "detector_seed": cfg.detector.master_seed,
        "history_len": cfg.detector.history_len,
        "swd_history_len": cfg.detector.swd_history_len,
        "n_projections": cfg.detector.n_projections,
        "beta": cfg.detector.beta,
    })


def _summarise_run(result) -> dict:
    live = [row for row in result.trace if not row.probe_flag]
    pred = [row.pred_label for row in live]
    first_test = next((row.t for row in result.trace if row.p_value is not None),
                      result.detector.t)
    return {
        "steps": result.detector.t,
        "events": len(result.events),
        "label_changes": len(reference.change_steps([r.t for r in live], pred)),
        "matched": reference.best_label_map(pred, [row.gt_task for row in live])[1],
        "live": len(live),
        "first_test": first_test,
    }


def _stationary(cfg, seed: int) -> Round:
    runs: list[dict] = []
    spent = [0.0]
    inner = swoks.runner.run_experiment

    def capture(*args, **kwargs):
        result = inner(*args, **kwargs)
        t0 = clock()
        runs.append(_summarise_run(result))
        spent[0] += clock() - t0
        return result

    swoks.runner.run_experiment = capture
    try:
        t0 = clock()
        rate = swoks.metrics.false_positive_rate(cfg, n_runs=STATIONARY_RUNS, seed=seed)
        seconds = clock() - t0 - spent[0]
    finally:
        swoks.runner.run_experiment = inner
    d = cfg.detector
    return Round(seconds, sum(r["steps"] for r in runs), {
        "rate": rate,
        "n_runs": STATIONARY_RUNS,
        "runs": runs,
        "alpha": d.alpha,
        "tests_per_run": reference.tests_per_run(
            cfg.curriculum.total_steps, d.history_len, d.swd_history_len),
        "capture_s": spent[0],
    })


# -- tracing --------------------------------------------------------------

KEEP = ("detector.ingest", "detector.check")


def _on_ingest(tracer, args, result, frame, dt):
    tracer.durations["detector.ingest"].append(dt)
    kids = frame[2]
    if kids and "ot.swd" in kids:
        redetect = kids.get("detector.redetect")
        tracer.durations["detector.check"].append(dt - (redetect[0] if redetect else 0.0))


def _on_probe(tracer, args, result, frame, dt):
    kids = frame[2] or {}
    steps = kids.get("stream.make_datapoint", (0.0, 0))[1]
    tracer.add("probe.steps", steps)
    if result is not None and result.kind == swoks.detector.EVENT_RE_DETECTED:
        tracer.add("probe.useful_steps", steps)


def _on_read(tracer, args, result, frame, dt):
    tracer.add("stream.read.rows", len(result))


def _on_write(tracer, args, result, frame, dt):
    tracer.add("trace.bytes", os.path.getsize(args[0]))


def install(tracer) -> None:
    """Patch every traced boundary; names are the layer metrics' prefixes."""
    det, run, agent, env = swoks.detector, swoks.runner, swoks.agent, swoks.env
    tracer.patch(env.TreeGraphEnv, "step", "env.step")
    tracer.patch(env.TreeGraphEnv, "reset", "env.step")
    tracer.patch(agent.Encoder, "encode", "agent.encode")
    tracer.patch(agent.Policy, "act", "agent.act")
    tracer.patch(agent.Policy, "update", "agent.update")
    tracer.patch(agent.PolicyBank, "rollback", "agent.rollback")
    tracer.patch(det, "make_datapoint", "stream.make_datapoint")
    tracer.patch(run, "read_stream", "stream.read", _on_read)
    tracer.patch(det.Detector, "ingest", "detector.ingest", _on_ingest)
    tracer.patch(det.Detector, "redetect", "detector.redetect")
    tracer.patch(det.Detector, "_probe_label", "detector.probe", _on_probe)
    tracer.patch(det, "sliced_wasserstein", "ot.swd")
    tracer.patch(det, "detect_shift", "stats.detect_shift")
    tracer.patch(run, "write_trace", "trace.write", _on_write)
    tracer.patch(run, "write_events", "trace.write", _on_write)
    tracer.patch(run, "run_experiment", "runner.run")
    tracer.patch(run, "detect_offline", "runner.run")
    tracer.patch(swoks.metrics, "false_positive_rate", "metrics.fpr")


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered), max(1, math.ceil(q * len(ordered)))) - 1]


def layer_metrics(tracer, capture_s: float = 0.0) -> dict[str, float]:
    """Per-layer figures of one traced round (durations are pooled later)."""
    t = tracer
    probe_steps = t.extra.get("probe.steps", 0.0)
    return {
        "env.step.calls": t.calls("env.step"),
        "env.step.self_s": t.self_time("env.step"),
        "agent.encode.self_s": t.self_time("agent.encode"),
        "agent.act.self_s": t.self_time("agent.act"),
        "agent.update.calls": t.calls("agent.update"),
        "agent.update.self_s": t.self_time("agent.update"),
        "agent.rollback.calls": t.calls("agent.rollback"),
        "stream.make_datapoint.self_s": t.self_time("stream.make_datapoint"),
        "stream.read.self_s": t.self_time("stream.read"),
        "stream.read.rows": t.extra.get("stream.read.rows", 0.0),
        "detector.ingest.self_s": t.self_time("detector.ingest"),
        "detector.check.calls": len(t.durations["detector.check"]),
        "detector.redetect.calls": t.calls("detector.redetect"),
        "detector.probe.steps": probe_steps,
        "detector.probe.useful_ratio": (
            t.extra.get("probe.useful_steps", 0.0) / probe_steps if probe_steps else 0.0),
        "ot.swd.calls": t.calls("ot.swd"),
        "ot.swd_check.self_s": t.self_time("ot.swd", "detector.ingest"),
        "ot.swd_probe.self_s": t.self_time("ot.swd", "detector.probe"),
        "stats.detect_shift.calls": t.calls("stats.detect_shift"),
        "stats.detect_shift.self_s": t.self_time("stats.detect_shift"),
        "trace.write.self_s": t.self_time("trace.write"),
        "trace.bytes": t.extra.get("trace.bytes", 0.0),
        "runner.loop.self_s": t.self_time("runner.run"),
        # The stationary capture wrapper runs inside false_positive_rate's span.
        "metrics.fpr_loop.self_s": max(0.0, t.self_time("metrics.fpr") - capture_s),
    }


def duration_metrics(ingest, check) -> dict[str, float]:
    return {
        "detector.ingest.p50_us": _quantile(ingest, 0.5) * 1e6,
        "detector.check.p50_ms": _quantile(check, 0.5) * 1e3,
        "detector.check.p99_ms": _quantile(check, 0.99) * 1e3,
    }
