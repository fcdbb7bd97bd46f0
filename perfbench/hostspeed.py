"""Correction of measured times for the speed of the host's CPU.

On a shared host a vCPU runs the same pure-Python work at speeds that
differ by up to 2x, in phases from under a second to minutes, and the
two vCPUs of a 2-core VM drift independently.  Process CPU time
inflates with wall time, so it is no remedy.  The benchmark therefore
pins each repetition (and the CLI processes it starts) to one CPU and
runs a fixed pure-Python probe on that CPU between operations, at most
every INTERVAL_S.  An operation's time is divided by its speed factor:
the median probe duration around it, over PROBE_REF_S.  A corrected time
reads as seconds on a core where the probe takes PROBE_REF_S.

The probe depends on no affschur code: a change to the package leaves the
speed factor alone and moves corrected times in proportion to raw ones.
"""

from __future__ import annotations

import bisect
import os
import statistics
import sys
import time

PROBE_REF_S = 0.0010
INTERVAL_S = 0.02
WINDOW_S = 0.05


def probe():
    """Duration of a fixed interpreter-bound loop (about 1 ms)."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(3000):
        k = (i * 7) & 127
        acc[k] = acc.get(k, 0) + (i, k)[1] * 3
    return time.perf_counter() - t0


def pin_to_one_cpu():
    """Pin this process, and the processes it starts, to one CPU.

    Where the host refuses, the probes still run, but may sample another
    CPU than the operations they correct."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:
        sys.stderr.write("cannot pin to one CPU: %s\n" % exc)


class SpeedLog:
    """Probe samples taken during a repetition, by time."""

    def __init__(self):
        self.times = []
        self.durations = []
        self.spent = 0.0

    def sample(self, count=1):
        for _ in range(count):
            d = probe()
            self.times.append(time.perf_counter())
            self.durations.append(d)
            self.spent += d

    def tick(self):
        """Probe unless a probe ran within INTERVAL_S."""
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def factor(self, start, end):
        """Speed factor over [start, end]: median probe within WINDOW_S of
        the interval over PROBE_REF_S; the nearest probe if none is."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            hi = lo + 1
        return statistics.median(self.durations[lo:hi]) / PROBE_REF_S
