"""Order statistics for the benchmark's reports."""

from __future__ import annotations

import math
import statistics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values: list[float], beyond: int = 10) -> tuple[int, float] | None:
    """Highest whole percentile that has at least ``beyond`` samples above it.

    Percentiles use the nearest-rank rule: percentile p is the sample of rank
    ceil(p * N / 100), and the samples ranked after it are beyond it.
    Returns (p, value), or None when there are too few samples for any p >= 1.
    """
    n = len(values)
    if n <= beyond:
        return None
    p = (100 * (n - beyond)) // n
    if p < 1:
        return None
    rank = math.ceil(p * n / 100)
    return p, sorted(values)[rank - 1]
