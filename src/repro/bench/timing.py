"""Latency measurement with the paper's statistical reporting.

§5.3: "The 95% confidence interval for each value we report extends to
each side at most 5% of the value." :class:`LatencyStats` computes the
same interval so every benchmark can assert its own statistical quality.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple


@dataclass
class LatencyStats:
    """Summary statistics over a latency sample (seconds)."""

    samples: List[float]

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def stdev(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        mean = self.mean
        return math.sqrt(
            sum((value - mean) ** 2 for value in self.samples) / (len(self.samples) - 1)
        )

    @property
    def median(self) -> float:
        ordered = sorted(self.samples)
        middle = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[middle]
        return (ordered[middle - 1] + ordered[middle]) / 2

    def percentile(self, fraction: float) -> float:
        ordered = sorted(self.samples)
        index = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
        return ordered[index]

    @property
    def ci95_half_width(self) -> float:
        """Half-width of the 95 % confidence interval of the mean."""
        if len(self.samples) < 2:
            return 0.0
        return 1.96 * self.stdev / math.sqrt(len(self.samples))

    @property
    def ci95_relative(self) -> float:
        """CI half-width as a fraction of the mean (the paper's ≤5 % bar)."""
        mean = self.mean
        if mean == 0:
            return 0.0
        return self.ci95_half_width / mean

    @property
    def mean_ms(self) -> float:
        return self.mean * 1000.0

    def __repr__(self) -> str:
        return (
            f"LatencyStats(n={self.count}, mean={self.mean_ms:.3f}ms, "
            f"ci95=±{self.ci95_relative * 100:.1f}%)"
        )


def measure_latency(
    operation: Callable[[], object],
    iterations: int = 1000,
    warmup: int = 20,
) -> LatencyStats:
    """Time *operation* per call; mirrors the paper's 1000-request runs."""
    for _ in range(warmup):
        operation()
    samples: List[float] = []
    for _ in range(iterations):
        started = time.perf_counter()
        operation()
        samples.append(time.perf_counter() - started)
    return LatencyStats(samples)


def measure_interleaved(
    *operations: Callable[[], object],
    iterations: int = 1000,
    warmup: int = 20,
    prepare: Optional[Callable[[], object]] = None,
) -> Tuple[LatencyStats, ...]:
    """Time *operations* alternately, one call each per round.

    The one sampler for every experiment that compares quantities: two
    variants whose gap is small next to the host's drift (frequency
    scaling, a noisy neighbour) measured back to back put the drift in
    one sample; alternated, it lands in all alike. The starting
    operation rotates from round to round, so none is always the one
    that runs on the caches its neighbour just warmed. Compare the
    results by :attr:`LatencyStats.median` and assert a band around
    their ratio — a strict "slower than" flips on a quiet host as soon
    as the variants are close.

    *prepare* runs untimed before every round (warm-up included): what
    puts the operations back into the state being priced, e.g. a store
    whose every document was just rewritten.
    """
    count = len(operations)
    samples: Tuple[List[float], ...] = tuple([] for _ in operations)
    for round_index in range(-warmup, iterations):
        if prepare is not None:
            prepare()
        for offset in range(count):
            index = (round_index + offset) % count
            started = time.perf_counter()
            operations[index]()
            elapsed = time.perf_counter() - started
            if round_index >= 0:
                samples[index].append(elapsed)
    return tuple(LatencyStats(bucket) for bucket in samples)


def overhead_percent(baseline: float, measured: float) -> float:
    """Relative slowdown in percent (paper's +14 % / +15 % figures)."""
    if baseline == 0:
        return 0.0
    return (measured - baseline) / baseline * 100.0
