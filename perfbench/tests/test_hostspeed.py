"""Tests of the host-speed probe that scales the benchmark's rates.

    python3 -m pytest perfbench/tests -q
"""
import time

import hostspeed


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_sampler_probes_evenly_and_clock_leaves_probes_out():
    sampler = hostspeed.Sampler()
    c0, w0 = hostspeed.clock(), time.perf_counter()
    sampler.start()
    _busy(1.0)
    speed = sampler.stop()
    clocked, wall = hostspeed.clock() - c0, time.perf_counter() - w0
    # about one probe per period, none re-entered
    assert 3 <= len(sampler.speeds) <= wall / hostspeed.PERIOD_S + 1
    assert speed == sum(sampler.speeds) / len(sampler.speeds) > 0
    # the clock stops while a probe runs
    probes_s = sum(hostspeed.PROBE_REF_S / s for s in sampler.speeds)
    assert abs((wall - clocked) - probes_s) < 0.01 * len(sampler.speeds)
    assert clocked < wall


def test_stop_without_a_tick_probes_once():
    sampler = hostspeed.Sampler()
    sampler.start()
    speed = sampler.stop()
    assert len(sampler.speeds) == 1 and speed > 0


def test_speed_around_returns_the_result_and_the_mean():
    result, speed = hostspeed.speed_around(lambda: 42, probes=2)
    assert result == 42 and speed > 0
