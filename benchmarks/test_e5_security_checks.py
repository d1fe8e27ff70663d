"""E5 (paper §5.2): the cost of the safety net firing.

The §5.2 evaluation is functional (covered by
``tests/integration/test_vulnerability_injection.py``); this benchmark
adds the quantitative angle the paper implies: a request the middleware
*blocks* must not be meaningfully more expensive than one it allows —
the safety net cannot be a denial-of-service vector.
"""

from repro.bench.reporting import format_table
from repro.bench.timing import measure_interleaved
from repro.mdt.vulnerabilities import build_vulnerable_deployment
from repro.mdt.workload import WorkloadConfig, generate_workload

#: blocked / allowed, ratio of medians: a denial skips nothing the
#: allowed request does except the body, so about one — same order of
#: magnitude either way.
RATIO_BAND = (0.10, 10.00)

CONFIG = WorkloadConfig(num_regions=2, mdts_per_region=2, patients_per_mdt=10, seed=29)


def test_allowed_request(benchmark, protected_deployment):
    client = protected_deployment.client_for("mdt1")
    result = benchmark(lambda: client.get("/records/1"))
    assert result.ok


def test_blocked_request(benchmark):
    deployment = build_vulnerable_deployment(
        "omitted_access_check", workload=generate_workload(CONFIG)
    )
    client = deployment.client_for("mdt1")
    result = benchmark(lambda: client.get("/records/3"))
    assert result.status == 403


def test_e5_report(benchmark, protected_deployment, report):
    deployment = build_vulnerable_deployment(
        "omitted_access_check", workload=generate_workload(CONFIG)
    )
    vulnerable_client = deployment.client_for("mdt1")
    allowed_client = protected_deployment.client_for("mdt1")

    allowed, blocked = measure_interleaved(
        lambda: allowed_client.get("/records/1"),
        lambda: vulnerable_client.get("/records/3"),
        iterations=200,
    )
    benchmark(lambda: vulnerable_client.get("/records/3"))

    report(
        "E5 — request latency when the safety net fires\n"
        + format_table(
            ("request outcome", "measured median", "ci95 of mean"),
            [
                ("allowed (200)", f"{allowed.median * 1000:.3f} ms",
                 f"±{allowed.ci95_relative*100:.1f}%"),
                ("blocked by label check (403)", f"{blocked.median * 1000:.3f} ms",
                 f"±{blocked.ci95_relative*100:.1f}%"),
            ],
        )
    )
    # Denial costs the same order of magnitude as service.
    low, high = RATIO_BAND
    assert low < blocked.median / allowed.median < high
