"""Order statistics for reported timings.

Percentiles use the nearest-rank definition: the p-th percentile of n
samples is the k-th smallest with k = ceil(p * n / 100), so exactly n - k
samples lie beyond it.  A tail percentile is reported only when at least
``MIN_BEYOND`` samples lie beyond it.
"""

from __future__ import annotations

import math

__all__ = ["MIN_BEYOND", "beyond", "median", "percentile", "tail_percentile"]

MIN_BEYOND = 10
CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(n: int, p: float) -> int:
    # round() first so that e.g. 90 * 100 / 100 cannot land a hair above 90
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p: float) -> float:
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def median(values) -> float:
    return percentile(values, 50.0)


def beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank p-th percentile of n samples."""
    return n - _rank(n, p)


def tail_percentile(n: int):
    """Highest candidate percentile with at least MIN_BEYOND samples beyond it, else None."""
    for p in CANDIDATES:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return None
