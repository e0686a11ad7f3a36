"""The host clock scales one-thread stretches and leaves pooled ones alone.

    python3 -m pytest perfbench/test_calibrate.py -q
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibrate import REFERENCE_S, HostClock  # noqa: E402


def fake_clock(kernel_s):
    """Five samples one second apart; the kernel slows from the fourth on,
    and the pools run in the last stretch."""
    clock = HostClock()
    clock._start = [0.0, 1.0, 2.0, 3.0, 4.0]
    clock._end = [t + 0.01 for t in clock._start]
    clock._runs = [[kernel_s]] * 3 + [[3 * kernel_s]] * 2
    clock._cpu0 = [(0.0, 0.0), (0.99, 0.0), (1.98, 0.0), (2.97, 0.0), (3.06, 1.8)]
    clock._cpu1 = list(clock._cpu0)
    return clock


def test_one_thread_stretches_are_scaled_by_their_neighbours():
    raw_wall, raw_cpu, wall, cpu = fake_clock(REFERENCE_S).scaled(0)
    assert raw_wall == pytest.approx(4 * 0.99)
    assert raw_cpu == pytest.approx(3 * 0.99 + 0.09 + 1.8)
    # the third stretch sits between a fast and a slow pair of samples
    # (median factor 2); the pooled last one takes the pass median (1)
    assert wall == pytest.approx(0.99 + 0.99 + 0.99 / 2 + 0.99)
    assert cpu == pytest.approx(0.99 + 0.99 + 0.99 / 2 + 0.09 + 1.8)


def test_pooled_stretches_are_scaled_by_the_pass():
    raw_wall, raw_cpu, wall, cpu = fake_clock(REFERENCE_S).scaled(3)
    assert (raw_wall, raw_cpu) == pytest.approx((0.99, 1.89))
    assert (wall, cpu) == pytest.approx((0.33, 0.63))


def test_reference_speed_leaves_timings_alone():
    clock = fake_clock(REFERENCE_S)
    clock._runs = [[REFERENCE_S]] * 5
    raw_wall, raw_cpu, wall, cpu = clock.scaled(0)
    assert (wall, cpu) == pytest.approx((raw_wall, raw_cpu))


def test_samples_grow_with_the_stretch_they_follow():
    clock = HostClock()
    clock.sample()
    assert len(clock._runs[0]) == 1
    time.sleep(0.5)
    clock.sample()
    assert sum(clock._runs[1]) >= min(HostClock.SHARE * 0.5,
                                      HostClock.MAX_RUNS * min(clock._runs[1]))
    with clock.span("cli.command"):
        pass
    assert clock.mark() == 3
