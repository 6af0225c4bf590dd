"""Benchmark of swoks: one workload per invocation, end to end or per layer.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The program is imported from the
checkout's ``src``; the measured process (``worker.py``) runs whole
rounds of the workload until ``--seconds`` have passed. With
``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics and the tracing overhead. See README.md for the workloads.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import hostspeed
import synth

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("desk", "detect-paper", "stationary")
SETUP_SAMPLES = 7
PAPER_SEGMENTS = (4, 150_000)
CACHED_STREAMS = 3
# Time a run may take beyond --seconds: set-up samples, the round that
# is running when --seconds pass, and generating a stream.
OVERHEAD_S = 150.0


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker_cmd(args, *extra, python_flags=()) -> list[str]:
    return [sys.executable, *python_flags, str(BENCH_DIR / "worker.py"), "--root", str(ROOT),
            "--workload", args.workload, "--seed", str(args.seed), *extra]


def _run_child(cmd, timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True,
                          timeout=max(1.0, timeout))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return proc


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _setup_samples(args, deadline: float) -> list[dict]:
    """Set-up times of ``SETUP_SAMPLES`` processes, scaled to the reference host speed."""
    def sample():
        spawned = time.monotonic()
        proc = _run_child(_worker_cmd(args, "--setup-only"), deadline - time.monotonic())
        setup = _last_json(proc.stdout)["setup"]
        setup["setup_s"] = setup["ready"] - spawned
        return setup

    samples = []
    for _ in range(SETUP_SAMPLES):
        setup, speed = hostspeed.speed_around(sample)
        samples.append({k: setup[k] * speed for k in ("setup_s", "import_s", "config_s")})
    return samples


def _scipy_optimize_share(args, deadline: float) -> float:
    """Share of ``import swoks`` spent importing ``scipy.optimize``."""
    proc = _run_child(_worker_cmd(args, "--setup-only", python_flags=("-X", "importtime")),
                      deadline - time.monotonic())
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
        if m:
            cumulative.setdefault(m.group(2), int(m.group(1)))
    total = cumulative.get("swoks")
    return cumulative.get("scipy.optimize", 0) / total if total else 0.0


def _paper_stream(seed: int) -> tuple[Path, list]:
    """The detect-paper stream for ``seed``, generated once and cached."""
    segments = synth.segments_for(*PAPER_SEGMENTS)
    cache = WORK / "streams"
    # A changed generator or segment plan makes another file name.
    key = hashlib.sha256(Path(synth.__file__).read_bytes()
                         + repr(PAPER_SEGMENTS).encode()).hexdigest()[:12]
    path = cache / f"paper-s{seed}-{key}.csv"
    if not path.exists():
        cache.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        synth.write_csv(tmp, synth.generate(seed, segments))
        os.replace(tmp, path)
        old = sorted(cache.glob("paper-s*.csv"), key=lambda p: p.stat().st_mtime)
        for stale in old[:-CACHED_STREAMS]:
            stale.unlink()
    return path, segments


def _metrics(values: dict, listed: list[dict], complete: bool) -> dict:
    """``values`` with the units BENCHMARK.json lists for them.

    Every name must be listed there; with ``complete`` every listed
    name must also be present.
    """
    units = {m["name"]: m["unit"] for m in listed}
    unknown = sorted(values.keys() - units.keys())
    missing = sorted(units.keys() - values.keys()) if complete else []
    if unknown or missing:
        raise SystemExit(f"metrics not in BENCHMARK.json: {unknown}; "
                         f"listed there but not measured: {missing}")
    return {k: {"value": values[k], "unit": units[k]} for k in sorted(values)}


def _args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main() -> int:
    args = _args()
    deadline = time.monotonic() + args.seconds + OVERHEAD_S
    if not (ROOT / "src" / "swoks" / "__init__.py").is_file():
        print(f"no swoks sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    stream = segments = None
    if args.workload == "detect-paper":
        stream, segments = _paper_stream(args.seed)
    run_dir = WORK / "runs" / args.workload
    run_dir.mkdir(parents=True, exist_ok=True)

    samples = _setup_samples(args, deadline)
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(run_dir)]
    if stream is not None:
        extra += ["--stream", str(stream)]
    out = _last_json(_run_child(_worker_cmd(args, *extra), deadline - time.monotonic()).stdout)

    if args.workload == "desk":
        errors, failed, quality = checks.desk(out, run_dir)
    elif args.workload == "detect-paper":
        errors, failed, quality = checks.detect_paper(out, stream, segments)
    else:
        errors, failed, quality = checks.stationary(out)
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)

    rounds = out["rounds"]
    # Steps per second at the reference host speed (see hostspeed.py).
    rates = [(r["steps"] / (r["seconds"] * r["host_speed"]), r["traced"]) for r in rounds]
    attempted = len(rounds) * (rounds[0]["summary"].get("n_runs", 1))
    if args.trace:
        def sps(traced):
            return statistics.median(rate for rate, t in rates if t == traced)
        layers = dict(out["layers"])
        layers["import_s"] = statistics.median(s["import_s"] for s in samples)
        layers["config.load_s"] = statistics.median(s["config_s"] for s in samples)
        layers["import.scipy_optimize_share"] = _scipy_optimize_share(args, deadline)
        layers["bench.trace_overhead"] = 1.0 - sps(True) / sps(False)
        if out["absent"]:
            print("absent from the program: " + ", ".join(out["absent"]))
        metrics = _metrics(layers, bench["per_layer"], complete=True)
    else:
        values = {
            "steps_per_s": statistics.median(rate for rate, _ in rates),
            "setup_s": statistics.median(s["setup_s"] for s in samples),
            "peak_rss_mb": out["peak_rss_mb"],
            **quality,
        }
        # Outputs that fail their checks may leave the label quality unmeasured.
        metrics = _metrics(values, bench["end_to_end"], complete=not errors)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
