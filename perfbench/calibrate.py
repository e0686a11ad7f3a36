"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's timings drift with the load other tenants put on a shared
host: on a 2-vCPU virtual machine the same pass took from 5.8 s to 12.5 s
within five minutes, and its process CPU time drifted with it.  The kernel
below does the same kinds of work as the program (z-buffer passes over a
small and a large cloud, Gaussian draws scored by a linear map, numbers
written and read as text) with the benchmark's own code, so a change to
the program never changes it.
``HostClock`` times it between the program's operations; dividing a timing
by the host factor, the median kernel time around it over
``REFERENCE_S``, gives it in reference-host seconds.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time

import numpy as np

# about the kernel's median time on the machine in perfbench/README.md in
# its slower state; it only fixes the unit the timings are given in
REFERENCE_S = 0.0124

_rng = np.random.default_rng(20230922)
_SMALL = _rng.uniform(-0.3, 0.3, (400, 3)) + (0.0, 0.0, 2.0)
_LARGE = _rng.uniform(-0.5, 0.5, (6000, 3)) + (0.0, 0.0, 2.0)
_IMAGE = _rng.uniform(0.0, 1.0, 576)
_WEIGHTS = _rng.standard_normal((576, 4))


def _zbuffer(points, shift, size):
    depth = points[:, 2] + shift
    cols = np.floor(points[:, 0] / depth * size + size / 2).astype(np.int64)
    rows = np.floor(points[:, 1] / depth * size + size / 2).astype(np.int64)
    ok = (cols >= 0) & (cols < size) & (rows >= 0) & (rows < size)
    idx = np.nonzero(ok)[0]
    flat = rows[idx] * size + cols[idx]
    order = np.lexsort((idx, depth[idx], flat))
    first = np.ones(len(order), dtype=bool)
    first[1:] = flat[order][1:] != flat[order][:-1]
    winners = np.full(size * size, -1, dtype=np.int64)
    winners[flat[order][first]] = idx[order][first]
    return winners


def kernel() -> int:
    """One fixed unit of work, 6-12 ms on the machine in the README."""
    total = 0
    for i in range(24):
        total += int(_zbuffer(_SMALL, 1e-4 * i, 24).max())
    for i in range(2):
        total += int(_zbuffer(_LARGE, 1e-4 * i, 64).max())
    noise = np.random.Generator(np.random.Philox(7)).standard_normal((160, 576))
    total += int(np.argmax((noise * 0.5 + _IMAGE) @ _WEIGHTS, axis=1).sum())
    # text in and out, as the corpus files and reports are written and read
    text = " ".join(f"{v:.6f}" for v in _LARGE.ravel()[:2000])
    total += sum(len(word) for word in text.split())
    return total


def _cpu():
    """CPU of this process, and of its reaped children (the program's pools)."""
    t = os.times()
    return t.user + t.system, t.children_user + t.children_system


class HostClock:
    """Samples the kernel at every span the program's operations open.

    It stands in for a tracer (``span`` and ``count``), so a workload's
    pass samples the host before each command, corpus load, certification
    and attack without any change to the pass itself.  Each sample runs the
    kernel for at least ``SHARE`` of the time since the last one, so long
    stretches get as steady a factor as short ones.

    ``scaled`` turns the stretches between samples into reference-host
    seconds and leaves the kernel's own time out.  A stretch the program
    ran on one thread is divided by the median kernel time of the two
    samples on either side of it.  The kernel runs on one thread, and its
    samples predict the speed of a stretch in which child processes ran
    (the program's pools) poorly: scaling those by their neighbours widened
    the spread of demo-attack and blackbox-certify from 5 % to 11-16 % in
    sets of five seeds.  They are divided by the median over the whole
    pass instead, which still follows the host's slow changes: when the
    whole host ran twice as fast for over half an hour, the kernel and a
    demo-attack pass, most of it pooled, both sped up by that factor.
    """

    SHARE = 0.02
    MAX_RUNS = 10

    def __init__(self):
        self._start, self._end, self._cpu0, self._cpu1 = [], [], [], []
        self._runs = []

    def sample(self) -> None:
        self._cpu0.append(_cpu())
        self._start.append(time.perf_counter())
        since = self._start[-1] - self._end[-1] if self._end else 0.0
        runs = []
        while not runs or (sum(runs) < self.SHARE * since and len(runs) < self.MAX_RUNS):
            t0 = time.perf_counter()
            kernel()
            runs.append(time.perf_counter() - t0)
        self._runs.append(runs)
        self._end.append(time.perf_counter())
        self._cpu1.append(_cpu())

    def mark(self) -> int:
        return len(self._start)

    def kernel_times(self):
        return [t for runs in self._runs for t in runs]

    def scaled(self, first: int):
        """Wall and CPU seconds from sample ``first`` to the last sample,
        without the kernel's own time: (as measured, in reference-host
        seconds) for each."""
        whole = self._factor(first, len(self._runs))
        raw_wall = raw_cpu = wall = cpu = 0.0
        for j in range(first, len(self._start) - 1):
            span = self._start[j + 1] - self._end[j]
            own = self._cpu0[j + 1][0] - self._cpu1[j][0]
            children = self._cpu0[j + 1][1] - self._cpu1[j][1]
            factor = whole if children > 0 else self._factor(max(0, j - 1), j + 3)
            raw_wall += span
            raw_cpu += own + children
            wall += span / factor
            cpu += (own + children) / factor
        return raw_wall, raw_cpu, wall, cpu

    def _factor(self, first, stop):
        return statistics.median(t for runs in self._runs[first:stop] for t in runs) / REFERENCE_S

    @contextlib.contextmanager
    def span(self, name, scene=None):
        self.sample()
        yield {}

    def count(self, name, n=1):
        pass

    @contextlib.contextmanager
    def around(self, module, name):
        """Sample right before and after each call of ``module.name``."""
        fn = getattr(module, name)

        def sampled(*args, **kwargs):
            self.sample()
            try:
                return fn(*args, **kwargs)
            finally:
                self.sample()

        setattr(module, name, sampled)
        try:
            yield
        finally:
            setattr(module, name, fn)
