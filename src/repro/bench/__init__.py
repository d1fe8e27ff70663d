"""Benchmark harness support (paper §5.3).

The modules here contain the measurement machinery the ``benchmarks/``
tree drives: latency statistics with the paper's 95 % confidence-interval
reporting, the alternating sampler every comparison of two variants goes
through, end-to-end throughput measurement, the Figure 5 component
breakdown, and the §5.2 trusted-codebase line-count audit.
"""

from repro.bench.timing import LatencyStats, measure_interleaved, measure_latency
from repro.bench.throughput import ThroughputResult, measure_throughput
from repro.bench.breakdown import (
    PAPER_BACKEND_BREAKDOWN,
    PAPER_FRONTEND_BREAKDOWN,
    backend_breakdown,
    frontend_breakdown,
)
from repro.bench.calibration import CalibratedFrontend, FrontendDelays
from repro.bench.loc_audit import LocReport, audit_repository
from repro.bench.reporting import comparison_table, format_table

__all__ = [
    "LatencyStats",
    "measure_interleaved",
    "measure_latency",
    "ThroughputResult",
    "measure_throughput",
    "PAPER_FRONTEND_BREAKDOWN",
    "PAPER_BACKEND_BREAKDOWN",
    "frontend_breakdown",
    "backend_breakdown",
    "CalibratedFrontend",
    "FrontendDelays",
    "LocReport",
    "audit_repository",
    "comparison_table",
    "format_table",
]
