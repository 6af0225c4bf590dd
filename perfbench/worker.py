"""The measured process: set-up, then rounds of one workload.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.
Set-up is ``import swoks`` plus loading the workload's config; the
moment it ends is reported as a ``time.monotonic()`` reading, which
the parent compares with the moment it started this process. While a
round runs, ``hostspeed.Sampler`` probes the host's speed, and the
round reports the mean with its steps and time.

    python worker.py --root DIR --workload NAME --seed N --setup-only
    python worker.py --root DIR --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR [--stream CSV]

Prints one JSON object as its last line.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def _args():
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--work", default=None)
    p.add_argument("--stream", default=None)
    return p.parse_args()


def main() -> int:
    args = _args()
    t0 = time.perf_counter()
    import swoks
    t1 = time.perf_counter()
    src = (Path(args.root) / "src").resolve()
    if Path(swoks.__file__).resolve().parent.parent != src:
        print(f"swoks imported from {swoks.__file__}, not from {src}", file=sys.stderr)
        return 3
    import workloads
    t2 = time.perf_counter()
    cfg = workloads.load(args.workload, args.seed)
    t3 = time.perf_counter()
    setup = {"ready": time.monotonic(), "import_s": t1 - t0, "config_s": t3 - t2}
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    # Not imported at the top: tracer imports numpy (through hostspeed),
    # which would move numpy's import out of the timed ``import swoks``.
    from hostspeed import Sampler
    from tracer import Tracer

    work = Path(args.work)
    sampler = Sampler()
    stream = Path(args.stream) if args.stream else None
    rounds, layers, ingest, check = [], [], [], []
    absent: list[str] = []
    start = time.perf_counter()
    # Traced runs alternate untraced and traced rounds, at least one of each.
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        tracer = None
        if traced:
            tracer = Tracer(keep_durations=workloads.KEEP)
            workloads.install(tracer)
        sampler.start()
        try:
            rnd = workloads.run_round(args.workload, cfg, args.seed, work, stream)
        finally:
            speed = sampler.stop()
            if tracer is not None:
                tracer.unpatch()
        rounds.append({"seconds": rnd.seconds, "steps": rnd.steps, "host_speed": speed,
                       "traced": traced, "summary": rnd.summary})
        # A finished run sits in reference cycles (detector <-> probe source)
        # until a full collection; free it before the next round starts.
        gc.collect()
        if tracer is not None:
            layers.append(workloads.layer_metrics(tracer, rnd.summary.get("capture_s", 0.0)))
            ingest.extend(tracer.durations["detector.ingest"])
            check.extend(tracer.durations["detector.check"])
            absent = tracer.absent
        done = time.perf_counter() - start >= args.seconds
        if done and (not args.trace or len(rounds) >= 2):
            break
    out = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        merged = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
        merged.update(workloads.duration_metrics(ingest, check))
        out["layers"] = merged
        out["absent"] = absent
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
