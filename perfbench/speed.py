"""Host-speed meter that turns raw seconds into scaled seconds.

A ``SpeedMeter`` times two fixed pure-Python kernels every ``period_s`` from
a SIGALRM handler, in the same thread, while the measured code runs; an
interval's scaled time is its raw time times the ratio of reference to
measured kernel time inside it.  On a shared host whose speed drifts by tens
of percent over minutes this cancels much of the drift, which raw times
cannot.  Only ``bisect``, ``fractions``, ``signal`` and ``time`` are imported
here, so ``probe.py`` can load it before timing an import.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

# Mean kernel times on the host that recorded the baseline in RESULTS.md, so
# that scaled seconds read close to raw seconds there.
REF_KERNEL_S = (2.8e-4, 4.7e-4)
MIN_SAMPLES = 5
WARMUP_SAMPLES = 20


def _int_kernel() -> int:
    x = 0
    for i in range(3000):
        x += i * i % 7
    return x


def _fraction_kernel() -> Fraction:
    a = Fraction(1, 3)
    for i in range(1, 60):
        a = a * Fraction(i, i + 2) + Fraction(1, i)
    return a


class SpeedMeter:
    """Samples the host's speed with two fixed kernels while code runs.

    The kernels stand for the two kinds of work in the workloads: interpreter
    loops over small ints, and exact rational arithmetic on big ints.
    """

    def __init__(self, period_s: float) -> None:
        self.period_s = period_s
        self.stamps: list[float] = []
        self.kernel_s: tuple[list[float], list[float]] = ([], [])

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _int_kernel()
        t1 = time.perf_counter()
        _fraction_kernel()
        t2 = time.perf_counter()
        self.stamps.append(t0)
        self.kernel_s[0].append(t1 - t0)
        self.kernel_s[1].append(t2 - t1)

    def __enter__(self) -> "SpeedMeter":
        for _ in range(WARMUP_SAMPLES):  # let the interpreter specialize the kernels
            self._sample(None, None)
        self.stamps.clear()
        for times in self.kernel_s:
            times.clear()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """Factor from raw to scaled seconds for the interval [start, end].

        The geometric mean over the kernels of reference over measured mean
        time, from the samples inside the interval, widened on both sides to
        the nearest ``MIN_SAMPLES`` when it holds fewer.
        """
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        while len(self.stamps) < MIN_SAMPLES:
            self._sample(None, None)
        while hi - lo < MIN_SAMPLES:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.stamps))
        ratios = [ref * (hi - lo) / sum(times[lo:hi])
                  for ref, times in zip(REF_KERNEL_S, self.kernel_s)]
        return (ratios[0] * ratios[1]) ** 0.5
