"""The machine's speed, read from a fixed loop timed next to the program's calls.

The shared virtual machines this benchmark runs on change speed by tens of
percent over seconds to minutes: a fixed pure-Python loop runs between 1.0
and 1.9 times its fastest time.  That drift, not the program, was most of
the spread between runs.  So the benchmark times `reference_loop()` every
`INTERVAL_S` of its timed phase and reports the time of every call shorter
than `WINDOW_S` scaled to the speed at which the loop takes `REFERENCE_S`:

    scaled = wall * REFERENCE_S / (median loop time around the call)

The loop is benchmark code and never calls chevlab, so a change to chevlab
moves only the numerator.  It builds tuples and a dict and hashes them, as
chevlab's products and closures do, but with the garbage collector off, so
that its time does not grow with the objects the program keeps alive.
"""
from __future__ import annotations

import bisect
import gc
import statistics
import time

# About the loop's median time on the machine of the reference figures
# (2 vCPUs of an Intel Xeon at 2.1 GHz, Python 3.11): scaled times are
# seconds at the speed where the loop takes exactly this long.
REFERENCE_S = 1.0e-3
INTERVAL_S = 0.05
WINDOW_S = 2.0
MIN_SAMPLES = 9
BURST_S = 0.2


def reference_loop() -> float:
    """Seconds one pass of the fixed loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        d = {}
        s = 0
        for i in range(3000):
            t = (i, i * i % 7, i ^ 5)
            d[t] = s
            s = (s + hash(t)) % 1000003
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Pace:
    """Loop times stamped with when they were taken."""

    def __init__(self):
        self.stamps: list[float] = []
        self.seconds: list[float] = []
        self.last = float("-inf")

    def sample(self):
        t = time.perf_counter()
        self.seconds.append(reference_loop())
        self.stamps.append(t)
        self.last = time.perf_counter()

    def tick(self):
        """Sample if `INTERVAL_S` has passed since the last sample."""
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def burst(self, seconds: float = BURST_S):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the loop's time around a call from start to end.

        The loop's time is the mean of its medians in the WINDOW_S before
        and in the WINDOW_S after the call (at least the MIN_SAMPLES nearest
        on each side), so that the dense bursts at a pass's ends weigh no
        more than the sparse samples between calls.  A call longer than
        WINDOW_S is not scaled (1.0): no sample falls inside it, and the
        loop's speed at its ends does not follow its speed inside.  Scaled
        by it, ten runs' SL3(Z/4) closures (10-15 s) spread by 0.28, and
        ten relations set-ups by 0.23 against 0.07 unscaled.
        """
        if end - start > WINDOW_S:
            return 1.0
        stamps = self.stamps
        i = bisect.bisect_left(stamps, start)
        j = bisect.bisect_left(stamps, end)
        lo = min(bisect.bisect_left(stamps, start - WINDOW_S), max(i - MIN_SAMPLES, 0))
        hi = max(bisect.bisect_right(stamps, end + WINDOW_S), j + MIN_SAMPLES)
        sides = [self.seconds[lo:i], self.seconds[j:hi]]
        return REFERENCE_S / statistics.fmean(statistics.median(x) for x in sides if x)
