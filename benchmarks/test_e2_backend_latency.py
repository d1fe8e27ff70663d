"""E2 (paper §5.3): backend per-event latency with/without enforcement.

Paper: mean latency of individual events from the data producer to the
data storage unit over 1000 events rises from 73 ms to 84 ms (+15 %)
with SafeWeb's isolation and label checks.

The measured path is identical: producer -> broker -> aggregator ->
broker -> storage -> application database, per event.
"""

import pytest

from benchmarks.harness import format_table, measure_interleaved, overhead_percent
from repro.mdt.deployment import MdtDeployment
from repro.mdt.workload import WorkloadConfig, generate_workload

PAPER_BASELINE_MS = 73.0
PAPER_PROTECTED_MS = 84.0
PAPER_OVERHEAD = overhead_percent(PAPER_BASELINE_MS, PAPER_PROTECTED_MS)

#: enforced / plain, ratio of median per-event latencies. The paper reads
#: 1.15; this substrate's per-event work is microseconds, so the fixed
#: enforcement cost weighs more (≈ 1.4 since PR 17) — "no cheaper than
#: the baseline by more than noise, within small multiples" is the shape.
RATIO_BAND = (0.90, 5.00)

CONFIG = WorkloadConfig(num_regions=1, mdts_per_region=2, patients_per_mdt=10, seed=23)


def _fresh_deployment(enforced: bool) -> MdtDeployment:
    if enforced:
        return MdtDeployment(generate_workload(CONFIG))
    return MdtDeployment(
        generate_workload(CONFIG),
        isolation=False,
        label_checks_in_broker=False,
        check_labels=False,
        label_events=False,
    )


def _pipeline_pass(deployment: MdtDeployment) -> int:
    """One import+aggregate pass; returns events processed."""
    deployment.import_data()
    deployment.aggregate()
    events = deployment.producer.events_published
    # Reset between rounds so records do not accumulate unboundedly.
    deployment.engine.store_of("data_aggregator").clear()
    deployment.producer.events_published = 0
    return events


@pytest.fixture(scope="module")
def enforced_deployment():
    return _fresh_deployment(enforced=True)


@pytest.fixture(scope="module")
def plain_deployment():
    return _fresh_deployment(enforced=False)


def test_event_pipeline_baseline(benchmark, plain_deployment):
    events = benchmark(lambda: _pipeline_pass(plain_deployment))
    assert events > 0


def test_event_pipeline_with_enforcement(benchmark, enforced_deployment):
    events = benchmark(lambda: _pipeline_pass(enforced_deployment))
    assert events > 0


def test_e2_report(benchmark, enforced_deployment, plain_deployment, report):
    # Rounds alternate between the deployments so a slow host phase lands
    # on both: measured back to back, a phase as wide as the enforcement
    # overhead flipped the comparison.
    events = _pipeline_pass(plain_deployment)
    assert events == _pipeline_pass(enforced_deployment)
    plain_pass, enforced_pass = measure_interleaved(
        lambda: _pipeline_pass(plain_deployment),
        lambda: _pipeline_pass(enforced_deployment),
        iterations=15,
        warmup=1,
    )
    baseline, protected = plain_pass.median / events, enforced_pass.median / events
    benchmark.extra_info["baseline_ms"] = baseline * 1000
    benchmark.extra_info["protected_ms"] = protected * 1000
    benchmark(lambda: _pipeline_pass(enforced_deployment))

    overhead = overhead_percent(baseline, protected)
    report(
        "E2 — backend per-event latency (paper: 73 ms -> 84 ms, +15%)\n"
        + format_table(
            ("variant", "paper", "measured median"),
            [
                ("without isolation + label checks", f"{PAPER_BASELINE_MS:.0f} ms",
                 f"{baseline * 1000:.4f} ms"),
                ("with isolation + label checks", f"{PAPER_PROTECTED_MS:.0f} ms",
                 f"{protected * 1000:.4f} ms"),
                ("overhead", f"+{PAPER_OVERHEAD:.0f}%", f"{overhead:+.1f}%"),
            ],
        )
    )

    low, high = RATIO_BAND
    assert low < protected / baseline < high, "enforcement must stay within small multiples"
