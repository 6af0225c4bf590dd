"""Command-line entry points.

Subcommands:
  run            seeded end-to-end experiment, writes trace.csv + events.json
  detect         offline detection on a recorded stream (probes disabled)
  sweep-beta     rerun one config across several beta values, print a table
  calibrate-fpr  fraction of stationary runs that raise any detection event
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .metrics import false_positive_rate, sweep_beta
from .runner import detect_offline, detector_config, run_experiment
from .trace import event_record


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swoks",
        description="Online task-change detection for streaming RL experience.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one seeded experiment")
    p_run.add_argument("--config", required=True,
                       help="config file path or preset name (desk, paper)")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config's master seed")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--save-bank", default=None,
                       help="write the final policy bank to this file")
    p_run.add_argument("--load-bank", default=None,
                       help="start from a previously saved policy bank")

    p_det = sub.add_parser("detect", help="replay a recorded stream offline")
    p_det.add_argument("--stream", required=True, help="recorded stream CSV")
    p_det.add_argument("--config", required=True,
                       help="config file path or preset name")
    p_det.add_argument("--out", default=None,
                       help="write the event JSON here instead of stdout")

    p_sweep = sub.add_parser("sweep-beta", help="compare beta settings")
    p_sweep.add_argument("--config", required=True,
                         help="config file path or preset name")
    p_sweep.add_argument("--betas", required=True,
                         help="comma-separated list, e.g. 1.0,1.1,1.4")
    p_sweep.add_argument("--seed", type=int, default=None,
                         help="override the config's master seed")

    p_fpr = sub.add_parser("calibrate-fpr",
                           help="false-trigger rate on a stationary task")
    p_fpr.add_argument("--config", required=True,
                       help="config file path or preset name")
    p_fpr.add_argument("--runs", type=int, default=1000)
    p_fpr.add_argument("--seed", type=int, default=0,
                       help="seed for deriving the per-run seeds")
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config, seed=args.seed)
    result = run_experiment(config, out_dir=args.out,
                            load_bank=args.load_bank, save_bank=args.save_bank)
    print(f"steps: {result.detector.t}")
    print(f"episodes: {result.episodes}")
    print(f"labels: {result.final_label_count}")
    print(f"events: {len(result.events)}")
    print(f"wrote {Path(args.out) / 'trace.csv'} and {Path(args.out) / 'events.json'}")
    return 0


def _cmd_detect(args) -> int:
    config = load_config(args.config)
    events, detector = detect_offline(args.stream, detector_config(config))
    payload = {
        "stream": str(args.stream),
        "probe_mode": "disabled",
        "steps": detector.t,
        "final_labels": len(detector.labels),
        "events": [event_record(ev) for ev in events],
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


def _cmd_sweep_beta(args) -> int:
    config = load_config(args.config, seed=args.seed)
    try:
        betas = [float(tok) for tok in args.betas.split(",")] if args.betas.strip() else []
    except ValueError as exc:
        raise ConfigError(f"bad --betas value: {exc}") from None
    rows = sweep_beta(config, betas)
    header = f"{'beta':>6}  {'new-task':>8}  {'re-detected':>11}  {'labels':>6}  {'accuracy':>8}"
    print(header)
    for row in rows:
        acc = "n/a" if row["accuracy"] != row["accuracy"] else f"{row['accuracy']:.4f}"
        print(f"{row['beta']:>6.2f}  {row['new_task_events']:>8d}  "
              f"{row['re_detected_events']:>11d}  {row['final_labels']:>6d}  {acc:>8}")
    return 0


def _cmd_calibrate_fpr(args) -> int:
    config = load_config(args.config)
    rate = false_positive_rate(config, n_runs=args.runs, seed=args.seed)
    print(f"runs: {args.runs}")
    print(f"false-positive rate: {rate:.6f}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "detect": _cmd_detect,
    "sweep-beta": _cmd_sweep_beta,
    "calibrate-fpr": _cmd_calibrate_fpr,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, MemoryError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
