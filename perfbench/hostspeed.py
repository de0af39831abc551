"""Host speed, sampled while the benchmark measures.

The benchmark runs on a few cores of a shared machine.  There the speed of
one core swings by up to 2x within seconds (most likely another tenant on
the same physical core) and drifts over minutes, and process CPU time
swings with it, so raw wall or CPU time cannot resolve a 25% change
between two runs.
The benchmark therefore samples the speed of its own core while it times:
a sample is one fixed calibration loop (pure-Python float math and dict
stores, like ``eat`` and ``keyrates``, then small matrix products, like the
dense simplex in ``nslp``), and its duration against REFERENCE_S, the same
loop on an uncontended core, gives the host's slow-down at that moment.

A timing is reported in *reference seconds*: the measured seconds, with the
time spent sampling taken out, times the mean of ``REFERENCE_S / sample``
over the samples taken in and around the measured interval.  That is the
time the same work takes on an uncontended core of the reference machine.
The calibration loop is part of the benchmark, not of the program, so a
change to the program moves reference seconds as it moves wall time.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np

# seconds of one sample on an uncontended core of the 2-core virtual machine
# the baseline was measured on (the fastest samples seen there)
REFERENCE_S = 0.0060
# process CPU seconds between two samples while a Sampler is on
INTERVAL_S = 0.1

_MATRIX = np.random.default_rng(0).random((40, 40))


def sample() -> float:
    """Wall seconds of one run of the calibration loop."""
    start = time.perf_counter()
    total, table = 0.0, {}
    for i in range(12000):
        x = 1.0 + i * 1e-4
        total += math.log(x) * math.sqrt(x) - x ** 0.5
        table[i & 1023] = total
    m = _MATRIX.copy()
    for _ in range(200):
        m = m @ _MATRIX
        m /= m.max()
    return time.perf_counter() - start


def speed(samples) -> float:
    """Mean of REFERENCE_S / duration: reference seconds per measured one."""
    return sum(REFERENCE_S / d for _, d in samples) / len(samples)


class Sampler:
    """Samples on entry, on exit and every ``interval`` seconds of process
    CPU time in between, from a SIGPROF handler.

    A caller that times items sets ``item_start`` while one runs (and to
    ``math.inf`` while it reads its clocks).  A sample that falls due in the
    first ``interval`` of an item waits until the item returns and the
    caller calls ``catch_up``, so that short items run undisturbed; a longer
    item is sampled in the middle.  ``paused`` and
    ``paused_cpu`` add up the wall and CPU seconds spent sampling; a caller
    subtracts them from what it measured."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples = []  # (perf_counter at start, seconds)
        self.paused = 0.0
        self.paused_cpu = 0.0
        self.item_start = None
        self.due = False

    def _on_timer(self, *_):
        if (self.item_start is not None
                and time.perf_counter() - self.item_start < self.interval):
            self.due = True
        else:
            self.take()

    def catch_up(self):
        """Take a sample that fell due while a short item ran."""
        if self.due:
            self.take()

    def take(self):
        self.due = False
        start, cpu = time.perf_counter(), time.process_time()
        try:
            self.samples.append((start, sample()))
        finally:  # a deadline signal may cut a sample short
            self.paused += time.perf_counter() - start
            self.paused_cpu += time.process_time() - cpu

    def __enter__(self):
        self.take()
        signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        self.take()
        return False

    def speed_between(self, start: float, end: float) -> float:
        """Speed over the samples taken in [start, end], plus the last one
        before it and the first one after it."""
        starts = [s for s, _ in self.samples]
        lo = max(bisect.bisect_left(starts, start) - 1, 0)
        hi = bisect.bisect_right(starts, end) + 1
        return speed(self.samples[lo:hi])
