"""E1 (paper §5.3): front-page generation time with/without taint tracking.

Paper: 1000 requests against the MDT front page; page generation rises
from 158 ms to 180 ms (+14 %) with SafeWeb's taint tracking library.

Shape expectation here: the protected page costs about what the
baseline costs — inside :data:`RATIO_BAND`, never integer factors.

Both variants are dominated by the same ~7 ms of password hashing, and
the DMZ store keeps a document's decoded labels and its rendered table
row on the stored revision, so in the steady state the two pages differ
by the response check alone — well inside back-to-back drift on a shared
host. The two clients are therefore sampled alternately and a band
around the ratio of their medians is asserted, not its sign.

What tracking still costs is paid once per revision, so the report
prices that too: the first page after every record was rewritten, where
both variants decode and render all rows again.
"""

from benchmarks.harness import format_table, measure_interleaved, overhead_percent

PAPER_BASELINE_MS = 158.0
PAPER_PROTECTED_MS = 180.0
PAPER_OVERHEAD = overhead_percent(PAPER_BASELINE_MS, PAPER_PROTECTED_MS)

ITERATIONS = 300

#: protected / baseline, ratio of medians. The paper reads 1.14; here
#: both pages are one password hash plus a few hundred microseconds, so
#: anything from "indistinguishable" (the lower edge is twice the paper's
#: own ±5 % interval bar, §5.3) to "twice the cost" is the same shape.
RATIO_BAND = (0.90, 2.00)

#: Rounds of the rewritten-store pair; each rewrites both stores first.
COLD_ITERATIONS = 40


def _rewrite_every_document(deployment):
    """A new revision of every application document, replicated to the DMZ."""
    for document in deployment.app_db.all_docs():
        deployment.app_db.upsert(document)
    deployment.replicate()


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
    cold_baseline, cold_protected = measure_interleaved(
        lambda: baseline_client.get("/"),
        lambda: protected_client.get("/"),
        iterations=COLD_ITERATIONS,
        warmup=2,
        prepare=lambda: (
            _rewrite_every_document(baseline_deployment),
            _rewrite_every_document(protected_deployment),
        ),
    )
    benchmark.extra_info["baseline_ms"] = baseline.median * 1000
    benchmark.extra_info["protected_ms"] = protected.median * 1000
    benchmark(lambda: protected_client.get("/"))

    def rows(label, plain, tracked):
        return [
            (f"without taint tracking{label}", f"{PAPER_BASELINE_MS:.0f} ms",
             f"{plain.median * 1000:.3f} ms", f"±{plain.ci95_relative*100:.1f}%"),
            (f"with taint tracking{label}", f"{PAPER_PROTECTED_MS:.0f} ms",
             f"{tracked.median * 1000:.3f} ms", f"±{tracked.ci95_relative*100:.1f}%"),
            (f"overhead{label}", f"+{PAPER_OVERHEAD:.0f}%",
             f"{overhead_percent(plain.median, tracked.median):+.1f}%", ""),
        ]

    report(
        "E1 — front-page generation (paper: 158 ms -> 180 ms, +14%)\n"
        + format_table(
            ("variant", "paper", "measured median", "ci95 of mean"),
            rows("", baseline, protected)
            + rows(", every record just rewritten", cold_baseline, cold_protected),
        )
    )

    # Shape: enforcement costs about what the baseline costs, warm and
    # on the first page of new revisions alike — no integer factors.
    low, high = RATIO_BAND
    assert low < protected.median / baseline.median < high
    assert low < cold_protected.median / cold_baseline.median < high
