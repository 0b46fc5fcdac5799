"""Timings rescaled to a nominal machine speed.

On a shared host the speed of these cores drifts by up to a factor of two
within seconds, whatever code runs, and most of a raw timing's spread from
run to run is that drift.  While a batch runs, a fixed reference kernel
that shares no code with rabicf is timed from a SIGALRM handler every
PERIOD_S seconds.  An interval's normalised time is its own time, with the
kernel's runs inside it removed, scaled by NOMINAL_S over the kernel's mean
time near that interval: the time it would take with the machine at the
speed where the kernel takes NOMINAL_S.  A faster program reads faster by
the same factor; only the machine's drift cancels.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.1
# Kernel time on the machine the baseline was taken on (Xeon, 2 vCPUs,
# KVM) in its usual state; any constant works, since runs compare as ratios.
NOMINAL_S = 2.4e-3
# Speed near an interval is the mean kernel time over samples taken within
# this many seconds of it: the drift holds for seconds, while one kernel
# timing scatters by about ten percent.
MARGIN_S = 0.5

_ONES = np.ones(64)
_LO = np.linspace(1.0, 2.0, 4800).reshape(600, 8)
_SCALE = np.full((600, 8), 0.5)


def kernel() -> float:
    """The three kinds of work rabicf's solvers spend their time in: an
    interpreter-bound float loop, numpy calls on tiny arrays, and a batched
    bisection over a (chains, levels) table.  Each responds to the host's
    drift differently, so the kernel carries all three."""
    x = 0.0
    for i in range(4000):
        x = x * 0.999 + i
    v = _ONES
    for _ in range(100):
        v = np.where(v > 0.5, v * 1.0000001, v) + 1e-12
    lo, hi = _LO, _LO + 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        below = mid * _SCALE >= 0.75
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
    return x + float(v[0]) + float(lo[0, 0])


class SpeedMeter:
    """Context manager that samples the kernel's time while it is active."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        start = perf_counter()
        kernel()
        self.starts.append(start)
        self.seconds.append(perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalise(self, start: float, end: float) -> float:
        """Seconds of [start, end) at nominal speed, kernel runs removed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = sum(self.seconds[lo:hi])
        near = self.seconds[bisect.bisect_left(self.starts, start - MARGIN_S):
                            bisect.bisect_left(self.starts, end + MARGIN_S)]
        if not near:
            raise ValueError("no speed samples near the interval")
        return (end - start - inside) * NOMINAL_S / statistics.fmean(near)


def rescale(seconds: float, samples: int = 5) -> float:
    """A time just measured, at nominal speed: the speed is read from the
    median of ``samples`` kernel runs made now."""
    times = []
    for _ in range(samples):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return seconds * NOMINAL_S / statistics.median(times)
