"""Machine-speed normalization of the benchmark's timings.

On a shared host (measured on a 2-core x86-64 VM) a fixed pure-Python
loop read between 1 and 1.8 times its fastest time, in phases lasting
from a fraction of a second to tens of seconds, so raw times of
identical passes spread by 15-30%. While a run measures, a SIGALRM timer
interrupts every PERIOD_S and times a fixed probe: Fraction arithmetic
on values fetched from a table of a few megabytes, so that, like the
library, it depends on the shared caches as well as on the core. A
span's normalized time is its wall time minus the probe time inside it,
divided by the mean probe time over the span, times REFERENCE_PROBE_S:
seconds at the speed where the probe takes REFERENCE_PROBE_S. A span
with fewer than MIN_SAMPLES probes inside uses the latest MIN_SAMPLES.
"""

from __future__ import annotations

import random
import signal
import time
from fractions import Fraction

PERIOD_S = 0.05
MIN_SAMPLES = 5
# the probe's time on an idle core of a 2-core x86-64 VM with CPython 3.11
REFERENCE_PROBE_S = 0.0013

_TABLE = {i: (Fraction(i, 7), (i, i + 1)) for i in range(12000)}
_KEYS = random.Random(1).sample(range(12000), 200)


def probe():
    acc = Fraction(0)
    for key in _KEYS:
        value, pair = _TABLE[key]
        acc += value * Fraction(pair[1], 3)
    return acc


class SpeedMeter:
    """Context manager sampling the probe on a timer; no threads."""

    def __init__(self):
        self.samples = []  # (end time, probe seconds)
        self._previous = None

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        self.samples.append((end, end - start))

    def __enter__(self):
        for _ in range(MIN_SAMPLES):
            self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def start(self):
        begin = time.perf_counter()
        return len(self.samples), begin

    def stop(self, started) -> tuple:
        """(raw, normalized) seconds of the span begun by `start`."""
        end = time.perf_counter()
        mark, begin = started
        inside = [d for e, d in self.samples[mark:] if e <= end]
        basis = inside if len(inside) >= MIN_SAMPLES else [
            d for _, d in self.samples[:mark + len(inside)][-MIN_SAMPLES:]
        ]
        raw = end - begin
        scale = REFERENCE_PROBE_S * len(basis) / sum(basis)
        return raw, (raw - sum(inside)) * scale
