"""What more than one experiment uses: the sampler, its summary, the tables.

§5.3: "The 95% confidence interval for each value we report extends to
each side at most 5% of the value." :class:`Samples` computes that
interval next to the median every comparison is made on.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Figure 5, frontend, milliseconds: measured by E3, partly pinned by E3b.
PAPER_FRONTEND_BREAKDOWN: Dict[str, float] = {
    "authentication": 87.0,
    "privilege_fetching": 3.0,
    "template_rendering": 63.0,
    "label_propagation": 17.0,
    "other": 10.0,
}


@dataclass(frozen=True)
class Samples:
    """Per-call times (seconds) of one operation."""

    times: List[float]

    @property
    def count(self) -> int:
        return len(self.times)

    @property
    def median(self) -> float:
        return statistics.median(self.times)

    @property
    def ci95_relative(self) -> float:
        """Half-width of the mean's 95 % confidence interval, as a
        fraction of the mean (the paper's ≤ 5 % bar)."""
        if self.count < 2:
            return 0.0
        mean = statistics.fmean(self.times)
        if mean == 0:
            return 0.0
        return 1.96 * statistics.stdev(self.times) / math.sqrt(self.count) / mean


def measure_interleaved(
    *operations: Callable[[], object],
    iterations: int = 1000,
    warmup: int = 20,
    prepare: Optional[Callable[[], object]] = None,
) -> Tuple[Samples, ...]:
    """Time *operations* alternately, one call each per round.

    The one sampler of every experiment, one operation or several. Two
    variants whose gap is small next to the host's drift (frequency
    scaling, a noisy neighbour) measured back to back put the drift in
    one sample; alternated, it lands in all alike. The starting
    operation rotates from round to round, so none is always the one
    that runs on the caches its neighbour just warmed. Compare the
    results by :attr:`Samples.median` and assert a band around their
    ratio — a strict "slower than" flips on a quiet host as soon as the
    variants are close.

    The *warmup* rounds are run and dropped. *prepare* runs untimed
    before every round (warm-up included): what puts the operations back
    into the state being priced, e.g. a store whose every document was
    just rewritten.
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
    return tuple(Samples(bucket) for bucket in samples)


def overhead_percent(baseline: float, measured: float) -> float:
    """Relative slowdown in percent (paper's +14 % / +15 % figures)."""
    if baseline == 0:
        return 0.0
    return (measured - baseline) / baseline * 100.0


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width table with a header rule."""
    table = [[str(cell) for cell in headers]] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[index]) for row in table) for index in range(len(headers))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)) for row in table]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines)


def comparison_table(
    title: str, paper: Dict[str, float], measured: Dict[str, float], unit: str = "ms"
) -> str:
    """Per-component paper-vs-measured table with share columns.

    Shares (fraction of each column's total) are the comparable quantity
    across hardware; absolute values are shown for completeness.
    """
    paper_total = sum(paper.values()) or 1.0
    measured_total = sum(measured.values()) or 1.0
    rows = [
        (
            component,
            f"{paper_value:.1f} {unit}",
            f"{paper_value / paper_total * 100:.0f}%",
            f"{measured.get(component, 0.0):.4f} {unit}",
            f"{measured.get(component, 0.0) / measured_total * 100:.0f}%",
        )
        for component, paper_value in paper.items()
    ]
    rows.append(
        ("TOTAL", f"{paper_total:.1f} {unit}", "100%", f"{measured_total:.4f} {unit}", "100%")
    )
    table = format_table(("component", "paper", "paper share", "measured", "measured share"), rows)
    return f"{title}\n{table}"
