"""Small statistics helpers shared by the workloads (pure, no repro imports)."""

from __future__ import annotations

import math

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    rank = (len(data) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def median(values) -> float:
    """50th percentile."""
    return percentile(values, 50.0)


def tail_percentile(n: int, cap: int) -> int:
    """The whole percentile reported as a tail for ``n`` samples.

    The highest percentile with at least :data:`TAIL_BEYOND` samples
    beyond it, ``floor(100 * (1 - 10 / n))``, capped at the workload's
    declared ``cap`` so that the percentile does not drift with the
    sample count once enough samples exist.  With fewer than 20 samples
    no percentile at or above the median has ten samples beyond it, and
    the tail falls back to the median (50).
    """
    if n <= 0:
        raise ValueError("tail_percentile needs at least one sample")
    if n < 2 * TAIL_BEYOND:
        return 50
    return max(50, min(cap, math.floor(100 * (1 - TAIL_BEYOND / n))))


def quartile_spread(values) -> float:
    """Interquartile distance as a share of the median (``statistics`` quartiles)."""
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
