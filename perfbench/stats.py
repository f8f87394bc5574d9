"""Summary statistics shared by run.py and the tests."""

from __future__ import annotations

import math


def percentile(samples, p: float):
    """Nearest-rank percentile and the number of samples above it.

    Returns (value, beyond).  The value is the smallest sample with at least
    p percent of the samples at or below it; `beyond` counts the samples
    strictly after that rank, which is how many observations back the tail.
    Infinite samples (failed operations) sort last, so they count as
    missing every latency limit.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank

