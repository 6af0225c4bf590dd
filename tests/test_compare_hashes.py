"""tools/compare_hashes.py: the entry-by-entry comparison of two hash files."""
from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).parents[1] / "tools" / "compare_hashes.py"
HASHES = {
    "desk": {"1": {"trace.csv": "a1", "events.json": "b1"},
             "2": {"trace.csv": "a2", "events.json": "b2"}},
    "detect": "c",
}


def compare(tmp_path, after: dict, *flags: str) -> subprocess.CompletedProcess:
    (tmp_path / "before.json").write_text(json.dumps(HASHES))
    (tmp_path / "after.json").write_text(json.dumps(after))
    return subprocess.run([sys.executable, str(SCRIPT), str(tmp_path / "before.json"),
                           str(tmp_path / "after.json"), *flags],
                          capture_output=True, text=True, check=False)


def edited(name: str, value: str) -> dict:
    """HASHES with the entry at ``name``, ``desk/1/trace.csv`` say, set to ``value``."""
    tree = copy.deepcopy(HASHES)
    *parents, leaf = name.split("/")
    node = tree
    for key in parents:
        node = node[key]
    node[leaf] = value
    return tree


def test_identical_files_pass(tmp_path):
    run = compare(tmp_path, HASHES)
    assert run.returncode == 0
    assert run.stdout == "0 of 5 entries differ\n"


def test_an_edited_entry_fails_and_is_named(tmp_path):
    run = compare(tmp_path, edited("desk/2/events.json", "x"))
    assert run.returncode == 1
    assert run.stdout.splitlines() == [
        f"desk/2/events.json: {tmp_path / 'before.json'} b2, {tmp_path / 'after.json'} x",
        "1 of 5 entries differ",
    ]


def test_an_entry_only_one_file_has_fails(tmp_path):
    run = compare(tmp_path, {**HASHES, "bank": "d"})
    assert run.returncode == 1
    assert run.stdout.startswith("bank: ")


def test_a_skipped_suffix_is_left_out(tmp_path):
    after = edited("desk/1/trace.csv", "x")
    assert compare(tmp_path, after).returncode == 1
    run = compare(tmp_path, after, "--skip", "/trace.csv")
    assert run.returncode == 0
    assert run.stdout == "0 of 3 entries differ, skipping names ending in /trace.csv\n"
    assert compare(tmp_path, edited("desk/1/events.json", "x"), "--skip",
                   "/trace.csv").returncode == 1
