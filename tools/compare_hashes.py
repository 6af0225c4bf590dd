"""Compare two outputs of ``tools/output_hashes.py`` entry by entry.

    python3 tools/compare_hashes.py BEFORE.json AFTER.json [--skip SUFFIX ...]

Each file's nested JSON is flattened to entries named by their path,
such as ``desk/1/trace.csv``. Every entry whose hash differs, or that
only one file has, is printed with both hashes, then a count. Entries
whose name ends in a ``--skip`` suffix (``/trace.csv``, say) are left
out. Exits 1 if any entry differs, else 0.
"""
from __future__ import annotations

import argparse
import json
import sys


def entries(tree, prefix: str = "") -> dict:
    """``{"desk/1/trace.csv": hash, ...}`` of the nested JSON."""
    if not isinstance(tree, dict):
        return {prefix[:-1]: tree}
    return {name: value for key, sub in tree.items()
            for name, value in entries(sub, f"{prefix}{key}/").items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--skip", action="append", default=[], metavar="SUFFIX",
                        help="leave out entries whose name ends in SUFFIX")
    args = parser.parse_args(argv)
    trees = []
    for path in (args.before, args.after):
        with open(path, encoding="utf-8") as fh:
            trees.append(entries(json.load(fh)))
    before, after = trees
    names = sorted(name for name in before.keys() | after.keys()
                   if not name.endswith(tuple(args.skip)))
    differ = [name for name in names if before.get(name) != after.get(name)]
    for name in differ:
        print(f"{name}: {args.before} {before.get(name)}, {args.after} {after.get(name)}")
    skipped = f", skipping names ending in {' '.join(args.skip)}" if args.skip else ""
    print(f"{len(differ)} of {len(names)} entries differ{skipped}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
