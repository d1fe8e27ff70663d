"""E1 (paper §5.3): front-page generation time with/without taint tracking.

Paper: 1000 requests against the MDT front page; page generation rises
from 158 ms to 180 ms (+14 %) with SafeWeb's taint tracking library.

Shape expectations here: the protected page costs no less than the
baseline, and the overhead stays within the "low tens of percent" band
rather than integer factors.

Both variants are dominated by the same ~7 ms of password hashing, and
since the DMZ store decodes a document's labels once per revision rather
than once per page the true gap is a few hundred microseconds — a few
percent, the size of back-to-back drift on a shared host. So the two
clients are sampled alternately and the ordering is asserted on medians
within :data:`ORDERING_TOLERANCE`; the report keeps the paper's means.
"""

from repro.bench.reporting import format_table
from repro.bench.timing import measure_interleaved, overhead_percent

PAPER_BASELINE_MS = 158.0
PAPER_PROTECTED_MS = 180.0
PAPER_OVERHEAD = overhead_percent(PAPER_BASELINE_MS, PAPER_PROTECTED_MS)

ITERATIONS = 300

#: The paper's own statistical bar (§5.3: each 95 % interval is within
#: 5 % of its value): a protected median this far *below* the baseline
#: median is still "no cheaper", anything further is a broken shape.
ORDERING_TOLERANCE = 0.05


def test_page_generation_baseline(benchmark, baseline_deployment):
    client = baseline_deployment.client_for("mdt1")
    result = benchmark(lambda: client.get("/"))
    assert result.ok


def test_page_generation_with_taint_tracking(benchmark, protected_deployment):
    client = protected_deployment.client_for("mdt1")
    result = benchmark(lambda: client.get("/"))
    assert result.ok


def test_e1_report(benchmark, protected_deployment, baseline_deployment, report):
    protected_client = protected_deployment.client_for("mdt1")
    baseline_client = baseline_deployment.client_for("mdt1")

    baseline, protected = measure_interleaved(
        lambda: baseline_client.get("/"),
        lambda: protected_client.get("/"),
        iterations=ITERATIONS,
    )
    benchmark.extra_info["baseline_ms"] = baseline.mean_ms
    benchmark.extra_info["protected_ms"] = protected.mean_ms
    benchmark(lambda: protected_client.get("/"))

    overhead = overhead_percent(baseline.mean, protected.mean)
    report(
        "E1 — front-page generation (paper: 158 ms -> 180 ms, +14%)\n"
        + format_table(
            ("variant", "paper", "measured mean", "ci95"),
            [
                ("without taint tracking", f"{PAPER_BASELINE_MS:.0f} ms",
                 f"{baseline.mean_ms:.3f} ms", f"±{baseline.ci95_relative*100:.1f}%"),
                ("with taint tracking", f"{PAPER_PROTECTED_MS:.0f} ms",
                 f"{protected.mean_ms:.3f} ms", f"±{protected.ci95_relative*100:.1f}%"),
                ("overhead", f"+{PAPER_OVERHEAD:.0f}%", f"+{overhead:.1f}%", ""),
            ],
        )
    )

    # Shape: enforcement is no cheaper than the baseline (beyond the
    # tolerance band), and costs no integer factors.
    assert protected.median > baseline.median * (1.0 - ORDERING_TOLERANCE)
    assert overhead < 100.0, "taint tracking should not multiply page cost"
