"""The machine's speed during a run, from a fixed probe interleaved with it.

The benchmark runs on a shared machine whose speed drifts: the same fixed
work takes up to twice as long from one half-minute to the next, and jumps
within a second too, while no CPU time is stolen from the process. So the
timings are reported at a reference speed: a probe, a fixed piece of
pure-Python work that does not touch `ordbench`, runs between verdicts at
most every `EVERY_S` seconds, and each verdict's time is scaled by
`REFERENCE_S` over the median time of the probes taken within `WINDOW_S`
of it. The probe runs with the collector off, so the program's heap does
not change its time.

Of the probes tried, tuples, dictionaries and a keyed sort tracked the
workloads best; the closer the probes, the better the tracking.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

EVERY_S = 0.025  # least interval between probes in a timed loop
WINDOW_S = 0.1  # probes this close to a timed span set its scale
REFERENCE_S = 0.003  # probe time at the reference speed


def probe() -> float:
    """Seconds taken by the fixed probe work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        rows = []
        for i in range(3000):
            row = (i, (i * 7919) % 1013, i & 15)
            table[row[1:]] = row
            rows.append(row)
        rows.sort(key=lambda r: (r[2], r[1]))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Probe samples taken during a run, as (time, probe seconds)."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self, count: int = 1):
        for _ in range(count):
            self.times.append(time.perf_counter())
            self.samples.append(probe())

    def due(self, now: float) -> bool:
        return not self.times or now - self.times[-1] >= EVERY_S

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median probe time within WINDOW_S of the
        span from `start` to `end`, or of the nearest probe if none is."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:
            lo = min(max(bisect.bisect_left(self.times, start), 1), len(self.times)) - 1
            hi = lo + 1
        return REFERENCE_S / statistics.median(self.samples[lo:hi])
