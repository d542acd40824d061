"""Order statistics for task latencies."""

from __future__ import annotations

import math

# candidate tail percentiles, lowest first: whole percents, then two finer steps
LADDER = tuple(float(p) for p in range(50, 100)) + (99.5, 99.9)


def tasks_beyond(count: int, p: float) -> int:
    """Tasks ranked strictly above the nearest-rank p-th percentile of count tasks."""
    return count - math.ceil(round(p * count, 9) / 100.0)


def tail_percentile(count: int) -> float:
    """The highest percentile of LADDER with at least ten tasks beyond it.

    Falls back to the median when even that has fewer than ten beyond it.
    """
    usable = [p for p in LADDER if tasks_beyond(count, p) >= 10]
    return usable[-1] if usable else LADDER[0]


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of values at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(p * len(ordered), 9) / 100.0))
    return ordered[rank - 1]
