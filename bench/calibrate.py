"""Calibration against the machine's momentary speed.

On a shared virtual machine the same pure-Python work takes anywhere from
1x to 2x its best time, in phases that last from seconds to over a minute,
so two runs of identical code can differ by a third.  The slowdown is
contention for the processor, not time taken away from the process: its
CPU time grows as much as its wall time.  The benchmark therefore times a
fixed reference kernel every PERIOD_S between its operations and scales
each operation's duration by NOMINAL_S over the median of the WINDOW kernel
runs nearest to it in time: figures read as if the kernel had taken
NOMINAL_S.  That local median follows the workload's own speed
(correlation 0.9 over one-second stretches on the machine below), where
the kernel's fastest time in the whole run does not.  On a 100-second
trace of theorem checks, while the machine switched every few seconds
between two speeds, one about half the other, scaling cut the spread of
the median of 25-second stretches from 0.30 to 0.03 of its median.  At
the slower speed the package's operations take 1.4 to 1.6 times as long as
at the faster one, and the kernel 1.5 to 1.6 times, so a figure can still
lean by up to a tenth with the share of a run spent at each speed.  Each
set-up is scaled by kernel runs taken right after it.  The kernel is
independent of the package, so a change to the package never moves it.
"""

from __future__ import annotations

import bisect
import statistics
import time

# About the kernel's median time at the faster of the two speeds of the
# 2-vCPU x86-64 machine (Python 3.11) the benchmark was defined on; it fixes
# the scale of the reported figures only.
NOMINAL_S = 1.0e-3

# The 7-cycle 0-1-...-6-0 with chords 0-3 and 1-5, as adjacency bitmasks;
# it has 1200 connected orderings.
_ADJ = (74, 37, 10, 21, 40, 82, 33)


def kernel() -> int:
    """Enumerate and sort every connected vertex ordering of a fixed graph:
    recursion, bit operations and tuples, as in the package's searches,
    written independently of them."""
    found = []

    def extend(prefix, visited, reachable):
        if len(prefix) == 7:
            found.append(prefix)
            return
        fresh = reachable & ~visited
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            v = low.bit_length() - 1
            extend(prefix + (v,), visited | low, reachable | _ADJ[v])

    for start in range(7):
        extend((start,), 1 << start, _ADJ[start])
    found.sort(reverse=True)
    return len(found)


# seconds between kernel runs: about 2% of a run's time
PERIOD_S = 0.05
# kernel runs whose median scales an operation: about 0.75 s around it
WINDOW = 15


class Reference:
    """Kernel times, each with when it was taken, at most once every
    PERIOD_S between the workload's operations."""

    def __init__(self):
        self.stamps: list[float] = []
        self.times: list[float] = []
        self._due = 0.0
        self._scales: dict[int, float] = {}

    def tick(self) -> None:
        now = time.perf_counter()
        if now >= self._due:
            self.stamps.append(now)
            self.times.append(timed_kernel())
            self._due = time.perf_counter() + PERIOD_S

    def scale(self, at: float) -> float:
        """Factor that turns a duration starting at ``at`` (perf_counter
        seconds) into one at nominal speed."""
        nearest = bisect.bisect_left(self.stamps, at)
        lo = max(0, min(nearest - WINDOW // 2, len(self.times) - WINDOW))
        if lo not in self._scales:
            self._scales[lo] = NOMINAL_S / statistics.median(self.times[lo:lo + WINDOW])
        return self._scales[lo]


def timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
