"""E2 (paper §5.3): backend per-event latency with/without enforcement.

Paper: mean latency of individual events from the data producer to the
data storage unit over 1000 events rises from 73 ms to 84 ms (+15 %)
with SafeWeb's isolation and label checks.

The measured path is identical: producer -> broker -> aggregator ->
broker -> storage -> application database, per event.
"""

import pytest

from repro.bench.reporting import format_table
from repro.bench.timing import overhead_percent
from repro.mdt.deployment import MdtDeployment
from repro.mdt.workload import WorkloadConfig

PAPER_BASELINE_MS = 73.0
PAPER_PROTECTED_MS = 84.0
PAPER_OVERHEAD = overhead_percent(PAPER_BASELINE_MS, PAPER_PROTECTED_MS)

CONFIG = WorkloadConfig(num_regions=1, mdts_per_region=2, patients_per_mdt=10, seed=23)


def _fresh_deployment(enforced: bool) -> MdtDeployment:
    if enforced:
        return MdtDeployment(config=CONFIG)
    return MdtDeployment(
        config=CONFIG,
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
    import time

    def per_event_latencies(*deployments, rounds=15):
        # Rounds alternate between the deployments so a slow host phase
        # lands on both: measured back to back, a phase as wide as the
        # enforcement overhead (≈ 1.4× since PR 17) flipped the comparison.
        elapsed = [0.0] * len(deployments)
        events = [0] * len(deployments)
        for _ in range(rounds):
            for index, deployment in enumerate(deployments):
                started = time.perf_counter()
                events[index] += _pipeline_pass(deployment)
                elapsed[index] += time.perf_counter() - started
        return [seconds / count for seconds, count in zip(elapsed, events)]

    baseline, protected = per_event_latencies(plain_deployment, enforced_deployment)
    benchmark.extra_info["baseline_ms"] = baseline * 1000
    benchmark.extra_info["protected_ms"] = protected * 1000
    benchmark(lambda: _pipeline_pass(enforced_deployment))

    overhead = overhead_percent(baseline, protected)
    report(
        "E2 — backend per-event latency (paper: 73 ms -> 84 ms, +15%)\n"
        + format_table(
            ("variant", "paper", "measured mean"),
            [
                ("without isolation + label checks", f"{PAPER_BASELINE_MS:.0f} ms",
                 f"{baseline * 1000:.4f} ms"),
                ("with isolation + label checks", f"{PAPER_PROTECTED_MS:.0f} ms",
                 f"{protected * 1000:.4f} ms"),
                ("overhead", f"+{PAPER_OVERHEAD:.0f}%", f"+{overhead:.1f}%"),
            ],
        )
    )

    assert protected > baseline
    assert overhead < 400.0, "enforcement must stay within small multiples"
