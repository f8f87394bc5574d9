"""Machine-speed correction for a host whose speed drifts.

On a shared host the same computation can run 1.7 times slower for minutes
at a time (see README.md).  A timer interrupts the worker every SAMPLE_S
seconds and times a fixed probe made only of standard-library work (exact
rational elimination, dict and tuple churn, like the program's inner
loops), so no change to the program can change the probe.  An operation's
time is cut at the probes that fell inside it; each piece is divided by
the slowdown shown by the faster of the two probes around it
(probe time / REF_PROBE_S), and the probes' own time is left out.  The
result reads as the operation's time at the speed the probe has on a quiet
machine.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

SAMPLE_S = 0.01
# The probe's time on a quiet 2-vCPU Xeon container with Python 3.11; only
# the scale of corrected times depends on it, not their ratios.
REF_PROBE_S = 170e-6


def probe() -> int:
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(4)] for i in range(4)]
    for c in range(4):
        for r in range(c + 1, 4):
            if m[c][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    d: dict = {}
    for i in range(400):
        t = (i % 17, i % 13)
        d[t] = d.get(t, 0) + 1
    return len(d)


def probe_time(repeats: int = 5) -> float:
    """Fastest of a few probe runs, for use outside a sampled interval."""
    best = float("inf")
    for _ in range(repeats):
        t = time.perf_counter()
        probe()
        best = min(best, time.perf_counter() - t)
    return best


class Sampler:
    """Times the probe on a wall-clock timer while the `with` block runs."""

    def __init__(self, interval: float = SAMPLE_S):
        self.interval = interval
        self.stamps: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        t = time.perf_counter()
        probe()
        self.stamps.append(t)
        self.durations.append(time.perf_counter() - t)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def corrected(start: float, end: float, stamps, durations, ref: float = REF_PROBE_S):
    """(corrected seconds, wall seconds) of [start, end] without probe time.

    `stamps` are the sorted start times of the probes and `durations` their
    times.  Without any probe the interval is returned uncorrected.
    """
    lo = bisect.bisect_left(stamps, start)
    hi = bisect.bisect_left(stamps, end)
    inside = durations[lo:hi]
    wall = (end - start) - sum(inside)
    if not durations:
        return wall, wall
    cuts = [start, *stamps[lo:hi], end]
    total = 0.0
    for k in range(len(cuts) - 1):
        before, after = lo + k - 1, lo + k  # probes around this piece
        around = [durations[p] for p in (before, after) if 0 <= p < len(durations)]
        piece = cuts[k + 1] - cuts[k] - (durations[before] if k > 0 else 0.0)
        total += max(piece, 0.0) * ref / min(around)
    return total, wall
