"""Order statistics shared by the runner, the workloads and compare.py."""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of *samples* (``fraction`` in 0..1)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def quartiles(samples: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` the way the benchmark contract computes them."""
    if len(samples) < 2:
        value = float(samples[0])
        return [value, value, value]
    return list(statistics.quantiles(samples, n=4))


def spread(samples: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median (0 for one sample)."""
    q1, mid, q3 = quartiles(samples)
    return (q3 - q1) / mid if mid else 0.0
