"""Times corrected for how fast the machine happens to run at the moment.

On a shared virtual machine the same pure-Python work can take 25% longer
from one few-second stretch to the next, because other tenants contend for
the physical core; that swamps the differences a benchmark is meant to see.
A SIGALRM timer therefore runs a fixed calibration loop every PERIOD seconds
of the run, once to warm up (the interrupted code has just evicted its
state) and once timed.  The timed duration traces the machine's current
speed, and ``reference(a, b)`` converts the busy time between two clock
readings into seconds on a machine where the loop takes REFERENCE_S: each
stretch between two samples is scaled by REFERENCE_S over the mean duration
of the two.  A sample's duration is taken as the median of the three
samples centred on it, so one interrupted sample does not read as a slow
machine.

The loop mixes integer and dict work, small function calls with set
lookups, and Fraction arithmetic: it tracked all three workloads more
evenly than any one of these alone.  On a 2-vCPU shared Xeon VM, three
load-bases passes of one run took 10.6, 14.6 and 15.5 s of plain time and
14.2, 14.5 and 14.4 s at the reference speed.  What is left is the part of
the drift that slows the workload and the loop unequally.

``busy(a, b)`` is the plain elapsed time.  Both exclude the time spent in
the sampler (about 4% of the run), and both are read after ``stop()``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.02
REFERENCE_S = 400e-6


def _calibration_loop() -> None:
    acc = 1
    table: dict[int, list[int]] = {}
    for i in range(500):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = [acc, i]

    def step(a: int, b: int) -> int:
        return (a * b + 7) & 0xFFFF

    members = set(range(0, 512, 3))
    for i in range(400):
        acc = step(acc, i)
        if acc & 511 in members:
            acc += 1
    x = Fraction(1, 3)
    for i in range(1, 20):
        x = (x * i + Fraction(1, i)) / (i + 1)


class SpeedSampler:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.costs: list[float] = []
        self.smoothed: list[float] = []

    def _sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        _calibration_loop()  # warm-up, not timed
        timed = time.perf_counter()
        _calibration_loop()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.costs.append(end - timed)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        costs = self.costs
        self.smoothed = [
            statistics.median(costs[max(k - 1, 0):k + 2]) for k in range(len(costs))
        ]

    def busy(self, a: float, b: float) -> float:
        """Seconds between clock readings a and b, less the sampler's time."""
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_left(self.starts, b)
        return (b - a) - sum(self.costs[i:j])

    def reference(self, a: float, b: float) -> float:
        """Busy seconds between a and b, at the reference speed."""
        starts, ends, costs = self.starts, self.ends, self.smoothed
        last = len(costs) - 1
        k = bisect.bisect_right(ends, a)  # first sample that ends after a
        t = a
        total = 0.0
        while True:
            nxt = starts[k] if k <= last else b
            stop = min(nxt, b)
            if stop > t:
                cost = (costs[max(k - 1, 0)] + costs[min(k, last)]) / 2
                total += (stop - t) * REFERENCE_S / cost
            if nxt >= b:
                return total
            t = ends[k]
            k += 1
