"""Print the SHA-256 of the outputs that a hot-path change must leave unchanged.

    python3 tools/output_hashes.py > hashes.json

The script imports ``swoks`` from this checkout's ``src/`` and prints,
as JSON:

- ``desk``: ``trace.csv`` and ``events.json`` of ``swoks run --config
  desk`` for seeds 1-5; seed 1 also saves its policy bank to ``bank``
  (no suffix, so every version of the program writes the same path);
- ``bank``: the same files of ``swoks run --config desk --seed 2
  --load-bank bank``, a run that starts from seed 1's bank;
- ``deep-tree``: the same files of ``swoks run`` seed 1 on the desk
  preset with a depth-3, branching-3 tree and probes of 13 x 50 steps
  (``tools/configs/deep-tree.cfg``): 650 is not a multiple of the
  depth, so every probe ends in the middle of an episode, and the run
  re-detects labels;
- ``no-noise``: the same files of seed 1 on the desk preset with
  ``observation_noise_sigma = 0`` (``tools/configs/no-noise.cfg``):
  every episode observes the base vectors, its noise drawn and scaled
  to ±0.0;
- ``wide-tree``: the same files of seed 1 on the desk preset with a
  depth-3, branching-6 tree and rewarded leaves 0, 50, 100 and 150
  (``tools/configs/wide-tree.cfg``): 43 nodes to act at per episode,
  so the live loop's plans are far larger than its episodes' steps;
- ``detect``: the stdout of ``swoks detect --config desk`` on the
  synthetic stream ``perfbench/synth.py`` makes with
  ``generate(3, segments_for(4, 20000))``, written to ``stream.csv`` in
  the working directory (stdout names the stream, so the path is fixed);
- ``detect-paper``: the stdout of ``swoks detect --config paper`` on
  ``generate(3, segments_for(2, 150000))``, written to
  ``paper-stream.csv``: paper windows (n = 240) on a stream of 74
  blocks, many more than the reader's ring has slots;
- ``sweep-beta``: the stdout of ``swoks sweep-beta --config desk
  --betas 1.0,1.1,1.4``;
- ``calibrate-fpr``: the stdout of ``swoks calibrate-fpr --config
  perfbench/configs/stationary.cfg --runs 3``.

Run it on two checkouts and compare the output: equal JSON means the
same bytes. Everything is written under a temporary directory; nothing
in the checkout changes. It takes about 14 s on 2 CPUs.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import synth  # noqa: E402  (perfbench/synth.py)
from swoks.cli import main  # noqa: E402

DESK_SEEDS = range(1, 6)
STATIONARY_CONFIG = ROOT / "perfbench" / "configs" / "stationary.cfg"
EXTRA_CONFIGS = ROOT / "tools" / "configs"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stdout(argv: list[str]) -> str:
    """The SHA-256 of what ``swoks <argv>`` prints; a failing command raises."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"swoks {' '.join(argv)} exited {code}")
    return _sha256(out.getvalue().encode("utf-8"))


def _run(config: str, seed: int, out: Path, *flags: str) -> dict:
    """The SHA-256 of ``trace.csv`` and ``events.json`` of one ``swoks run``."""
    _stdout(["run", "--config", config, "--seed", str(seed), "--out", str(out), *flags])
    return {name: _sha256((out / name).read_bytes()) for name in ("trace.csv", "events.json")}


def hashes() -> dict:
    result: dict = {"desk": {}}
    for seed in DESK_SEEDS:
        flags = ["--save-bank", "bank"] if seed == 1 else []
        result["desk"][str(seed)] = _run("desk", seed, Path(f"desk-{seed}"), *flags)
    result["bank"] = _run("desk", 2, Path("bank-loaded"), "--load-bank", "bank")
    for name in ("deep-tree", "no-noise", "wide-tree"):
        result[name] = _run(str(EXTRA_CONFIGS / f"{name}.cfg"), 1, Path(name))
    synth.write_csv("stream.csv", synth.generate(3, synth.segments_for(4, 20000)))
    result["detect"] = _stdout(["detect", "--config", "desk", "--stream", "stream.csv"])
    synth.write_csv("paper-stream.csv", synth.generate(3, synth.segments_for(2, 150000)))
    result["detect-paper"] = _stdout(
        ["detect", "--config", "paper", "--stream", "paper-stream.csv"])
    result["sweep-beta"] = _stdout(["sweep-beta", "--config", "desk", "--betas", "1.0,1.1,1.4"])
    result["calibrate-fpr"] = _stdout(
        ["calibrate-fpr", "--config", str(STATIONARY_CONFIG), "--runs", "3"])
    return result


if __name__ == "__main__":
    here = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="swoks-hashes-") as work:
        os.chdir(work)
        try:
            found = hashes()
        finally:
            os.chdir(here)
    json.dump(found, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
