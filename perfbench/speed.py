"""Machine-speed probe: rescales measured times to a nominal machine speed.

On a shared host the speed of one core drifts by a third or more over
tens of seconds, which swamps any change to the program.  The probe is
a fixed exact-rational computation that shares no code with lorenzmap
(stdlib ``Fraction`` arithmetic with growing denominators, the kind of
work the analyzer does).  It runs between items, at most every
``EVERY_S`` seconds, three times in a row.  Each time measured between
two probes is multiplied by ``NOMINAL_S`` over the mean of those two
probe times, which cancels the drift that the time and the probes
share.  The probe took 1.7 to 3.4 ms on the shared 2-vCPU VM with
Python 3.11 that the benchmark was written on, so rescaled times are of
the same order as wall-clock times there.  The raw times are reported
next to them.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.002
EVERY_S = 0.1


def reference_work() -> Fraction:
    x, a, b = Fraction(1, 3), Fraction(101, 100), Fraction(1, 7)
    for _ in range(300):
        x = a * x + b
        if x > 1:
            x -= 1
    return x


class SpeedProbe:
    def __init__(self):
        for _ in range(3):  # warm up allocator and caches
            reference_work()
        self.history: list = []
        self._pending: list = []
        self._previous = self._probe()

    def _probe(self) -> float:
        """Median of three runs: a single run is off by 15 % one time in ten."""
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            reference_work()
            runs.append(time.perf_counter() - start)
        self._at = time.perf_counter()
        self.history.append(statistics.median(runs))
        return self.history[-1]

    def add(self, elapsed: float) -> list:
        """Queue a raw time; returns the rescaled queue if a probe was due."""
        self._pending.append(elapsed)
        if time.perf_counter() - self._at >= EVERY_S:
            return self.flush()
        return []

    def flush(self) -> list:
        """Probe now and return every queued time, rescaled, in order."""
        current = self._probe()
        scale = NOMINAL_S / ((self._previous + current) / 2)
        self._previous = current
        out = [t * scale for t in self._pending]
        self._pending = []
        return out
