"""Machine-speed normalization of measured times.

On a shared machine the speed of this process drifts by tens of percent,
switching within seconds (a fixed pure-Python loop measured 8.6 ms and
14.3 ms a few seconds apart, and library code slowed with it). While a
run measures, a timer signal therefore runs a short fixed reference loop
every INTERVAL_S and records how long it took. A timed region is then
reported as

    (wall time - time spent in the probes) * REFERENCE_S / mean probe time

where the mean is over the probes that fired inside the region (at least
MIN_PROBES, taking the latest earlier ones for short regions). The loop
is small function calls on 512-bit masks with popcounts, the shape of
the library's hot loops; of the loops tried it tracked the library's
slowdowns best (in a spell where it slowed 1.7x, instance oracles and
maximizers slowed 1.6-1.9x). It touches no library code, so no change under
src/ can move the scale. Raw times are kept next to the reported ones.
"""

import bisect
import signal
import time
from array import array

REFERENCE_S = 0.00045  # nominal probe time: the unit reported times are scaled to
INTERVAL_S = 0.01
MIN_PROBES = 3
_ITERATIONS = 3000
_MASK = (1 << 512) - 1

clock = time.perf_counter


def _overlap(x: int, y: int) -> int:
    return (x & y).bit_count()


def reference_loop() -> float:
    """Run the fixed reference work once; return its wall time."""
    start = clock()
    acc = 0
    for i in range(_ITERATIONS):
        acc += _overlap(_MASK >> (i & 255), i)
    return clock() - start


class Speed:
    """Periodic speed probes, active inside a with-block (main thread only)."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self.probe_s = 0.0  # total time spent in probes, to subtract from regions
        self._previous = None

    def __enter__(self):
        for _ in range(MIN_PROBES):
            self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _probe(self) -> None:
        start = clock()
        self.at.append(start)
        self.took.append(reference_loop())
        self.probe_s += clock() - start

    def _tick(self, signum, frame) -> None:
        self._probe()

    def mark(self):
        """Start of a timed region."""
        return clock(), self.probe_s

    def measure(self, mark):
        """(raw seconds without probe time, scale) of the region since mark."""
        end = clock()
        start, probe_before = mark
        raw = end - start - (self.probe_s - probe_before)
        hi = len(self.at)
        lo = min(bisect.bisect_left(self.at, start), hi - MIN_PROBES)
        return raw, REFERENCE_S * (hi - lo) / sum(self.took[lo:hi])

    def median_scale(self) -> float:
        took = sorted(self.took)
        return REFERENCE_S / took[len(took) // 2]
