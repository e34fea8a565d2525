"""Durations at a reference CPU speed.

On a shared machine the speed available to one Python thread switches
between levels about 1.5x apart, sometimes within a tenth of a second,
which no run length averages away.  A fixed pure-Python probe is therefore
run after every measured item (or batch of items); each raw duration is
scaled by REF_NS / (mean of the probes just before and just after it),
which gives the time the item would take at the speed where the probe takes
REF_NS.  A wider window lags behind a switch and mis-scales the items after
it, which shows as a longer tail.  The probe allocates nothing and runs
with the collector paused, so it times the interpreter, not the garbage the
measured code left behind.  Reports print the raw figures beside the scaled
ones.
"""

from __future__ import annotations

import gc
import inspect
from time import perf_counter_ns

REF_NS = 160_000


def probe(n: int = 1000) -> int:
    d = dict.fromkeys(range(64), 0)
    s = 0
    for i in range(n):
        k = i & 63
        d[k] = (d[k] + k) & 255
        s = (s + d[k]) & 255
    return s


def probe_ns() -> int:
    """The faster of two back-to-back probes, after an untimed warm-up, so
    that neither an interruption nor the caches the measured code left
    behind count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        probe(200)
        times = []
        for _ in range(2):
            t0 = perf_counter_ns()
            probe()
            times.append(perf_counter_ns() - t0)
        return min(times)
    finally:
        if enabled:
            gc.enable()


# for timing the probe in a child process
PROBE_SOURCE = "import gc\nfrom time import perf_counter_ns\n" + \
    inspect.getsource(probe) + inspect.getsource(probe_ns)


class Clock:
    """Call `factor()` after each measured item (or batch of items)."""

    def __init__(self) -> None:
        self._last = probe_ns()

    def factor(self) -> float:
        """Scale for durations measured since the previous call, from the
        probes that bracket them."""
        before, self._last = self._last, probe_ns()
        return 2 * REF_NS / (before + self._last)
