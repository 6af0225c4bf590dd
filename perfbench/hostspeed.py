"""Host speed, sampled while a workload runs, to take it out of a rate.

The speed of a shared host drifts: a fixed loop runs up to twice as
long in a slow phase as in a fast one, and phases last from seconds to
minutes. That drift moves every rate the benchmark measures, whatever
the program does. ``Sampler`` runs a fixed probe (about 10 ms of
interpreter and small-array numpy work, the mix the workloads spend
their time in) from a ``SIGALRM`` handler every ``PERIOD_S`` of wall
time while a round runs. A probe's speed relative to ``PROBE_REF_S``
samples the host's speed at that moment. The probes are evenly spaced
in wall time, so their mean speed is the host's mean speed over the
round. A probe lasts several scheduler time slices, so it also sees a
host that shares the CPU with others, not only a slower CPU.

``clock()`` is ``perf_counter()`` minus the time spent in probes, so
the timed call of a round and the tracer's spans exclude the probes.
A round's rate at the reference speed is
``steps / (clock seconds * mean relative speed)``.
"""
from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

PERIOD_S = 0.2
# A probe's time on the host of the reference figures in README.md; any
# fixed value would do, as it scales every rate alike.
PROBE_REF_S = 0.010

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((240, 16))
_B = _rng.standard_normal((16, 8))
_spent = 0.0


def clock() -> float:
    """``perf_counter()`` without the time spent in probes."""
    return perf_counter() - _spent


def probe() -> float:
    """Runs the fixed probe once; returns its speed relative to the reference."""
    t0 = perf_counter()
    acc = 0
    for _ in range(120):
        for i in range(600):
            acc += (i * 7) % 13
        table = {}
        for i in range(200):
            table[i & 31] = table.get(i & 31, 0) + i
        for _ in range(6):
            proj = np.sort(_A @ _B, axis=0)
            acc += int(np.searchsorted(proj[:, 0], 0.0))
    return PROBE_REF_S / (perf_counter() - t0)


class Sampler:
    """Probes the host every ``PERIOD_S`` between ``start`` and ``stop``."""

    def __init__(self):
        self.speeds: list[float] = []
        self._busy = False

    def _tick(self, signum, frame):
        global _spent
        if self._busy:  # a probe that outlasts the period is not re-entered
            return
        self._busy = True
        t0 = perf_counter()
        self.speeds.append(probe())
        _spent += perf_counter() - t0
        self._busy = False

    def start(self) -> None:
        self.speeds = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> float:
        """Stops probing; returns the mean relative speed of the probes."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.speeds:
            self._tick(signal.SIGALRM, None)
        return sum(self.speeds) / len(self.speeds)


def speed_around(fn, probes: int = 5):
    """``fn()`` between two blocks of ``probes`` probes.

    Returns ``fn``'s result and the mean relative speed of the probes,
    for work too short, or too early in a process, to probe while it runs.
    """
    speeds = [probe() for _ in range(probes)]
    result = fn()
    speeds += [probe() for _ in range(probes)]
    return result, sum(speeds) / len(speeds)
