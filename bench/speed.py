"""Host-speed correction for the benchmark's timings.

The benchmark runs on shared hosts whose CPU speed changes by up to a
factor of two from one second to the next, which moves every timing of the
same code by as much.  A ``SpeedMeter`` samples that speed while the
program runs: a timer signal interrupts the process every ``PERIOD_S`` and
times a fixed pure-Python kernel in the same thread.  ``ref_s`` converts a
wall interval into reference seconds: the time the interval would have
taken on a host that runs the kernel in ``KERNEL_REF_S``.  The handler's
own time is taken out of every interval it falls in.  The kernel shares no
code with the program, so a faster program reads faster.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from time import perf_counter

PERIOD_S = 0.025
# Kernel time of the reference host.  Any constant would do, since only
# ratios of reference seconds are compared; the kernel takes 0.4 to 0.8 ms
# on a shared 2-vCPU x86-64 VM under CPython 3.11.
KERNEL_REF_S = 0.0005
# Each speed estimate is the median kernel time of this many samples
# around it, so that one interrupted sample does not count.
SMOOTH = 3


def kernel() -> int:
    """Dict, tuple and integer work like the program's inner loops."""
    d: dict = {}
    acc = 0
    for i in range(1250):
        key = (i % 37, i * 7 % 13)
        d[key] = d.get(key, 0) + i
        acc += (i * i) % 11
    return acc + len(d)


class SpeedMeter:
    """Context manager: samples host speed from enter to exit."""

    def __init__(self):
        # Per sample: start of the kernel, its duration, and the handler's
        # whole duration (kernel plus bookkeeping).
        self.starts: list[float] = []
        self.kernel_s: list[float] = []
        self.handler_s: list[float] = []
        self._old = None

    def _handler(self, signum, frame) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.starts.append(t0)
        self.kernel_s.append(t1 - t0)
        self.handler_s.append(perf_counter() - t0)

    def __enter__(self) -> "SpeedMeter":
        self._old = signal.signal(signal.SIGALRM, self._handler)
        for _ in range(SMOOTH // 2 + 1):
            self._handler(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        # Samples after the last interval, so that its speed estimate is
        # centred too.
        if exc[0] is None:
            time.sleep((SMOOTH // 2 + 1) * PERIOD_S)
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def kernel_quartiles_ms(self) -> list[float]:
        return [q * 1e3 for q in statistics.quantiles(self.kernel_s, n=4)]

    def ref_s(self, t0: float, t1: float) -> float:
        """Reference seconds of ``[t0, t1]``, handler time removed.

        The interval is cut at each sample inside it; each piece is scaled
        by the smoothed speed at the sample just before it.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        cuts = [t0] + self.starts[lo:hi] + [t1]
        ref = 0.0
        for i in range(lo - 1, hi):
            piece = cuts[i - lo + 2] - cuts[i - lo + 1]
            if i >= lo:
                piece -= self.handler_s[i]
            ref += piece * KERNEL_REF_S / self.kernel_at(i)
        return ref

    def kernel_at(self, i: int) -> float:
        """Smoothed kernel time around sample ``i`` (clamped to the samples)."""
        n = len(self.kernel_s)
        i = min(max(i, 0), n - 1)
        a = max(0, min(i - SMOOTH // 2, n - SMOOTH))
        return statistics.median(self.kernel_s[a : a + SMOOTH])
