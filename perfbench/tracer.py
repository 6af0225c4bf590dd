"""Span tracer that wraps the program's public functions from outside.

Each wrapped call is a span with a name and a parent (the innermost
wrapped call still running). Spans are aggregated as they close, so
memory stays flat on long runs: per (name, parent) a call count, the
inclusive time and the self time (inclusive minus the time covered by
child spans). An exit hook may keep a span's duration for percentiles.

Names are imported by value into the modules that call them
(``sliced_wasserstein`` into ``swoks.detector``, ``read_stream`` into
``swoks.runner``, ...), so each target is patched in the namespace
where it is called. A target that no longer exists is recorded as
absent and skipped.
"""
from __future__ import annotations

import functools
from array import array

from hostspeed import clock

_ROOT = ""


class Tracer:
    def __init__(self, keep_durations=()):
        self.stats: dict[tuple[str, str], list] = {}  # (name, parent) -> [calls, incl, self]
        self.durations: dict[str, array] = {name: array("d") for name in keep_durations}
        self.extra: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value

    def wrap(self, fn, name: str, on_exit=None):
        stack = self._stack
        stats = self.stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # frame: name, time covered by children, per-child {name: [time, calls]}
            frame = [name, 0.0, None]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                key = (name, parent[0] if parent is not None else _ROOT)
                row = stats.get(key)
                if row is None:
                    row = stats[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += dt
                row[2] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                    kids = parent[2]
                    if kids is None:
                        kids = parent[2] = {}
                    kid = kids.get(name)
                    if kid is None:
                        kids[name] = [dt, 1]
                    else:
                        kid[0] += dt
                        kid[1] += 1
            if on_exit is not None:
                on_exit(self, args, result, frame, dt)
            return result

        return traced

    # -- patching ------------------------------------------------------

    def patch(self, owner, attr: str, name: str, on_exit=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper, or record it absent."""
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None or not callable(original):
            self.absent.append(label)
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, on_exit))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- queries -------------------------------------------------------

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(row[0] for (n, p), row in self.stats.items()
                   if n == name and (parent is None or p == parent))

    def self_time(self, name: str, parent: str | None = None) -> float:
        return sum(row[2] for (n, p), row in self.stats.items()
                   if n == name and (parent is None or p == parent))
