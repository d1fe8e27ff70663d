"""Shared fixtures for the benchmark harness (paper §5.3).

Two standing deployments: the SafeWeb-protected one and the baseline with
label tracking, jail and response checks disabled — the paper's
"with/without SafeWeb's taint tracking library" comparison axes.
"""

from __future__ import annotations

import pytest

from repro.mdt.deployment import MdtDeployment
from repro.mdt.workload import WorkloadConfig, generate_workload

#: Workload sized so the front page carries a realistic record table.
BENCH_CONFIG = WorkloadConfig(
    num_regions=2, mdts_per_region=2, patients_per_mdt=15, seed=17
)


@pytest.fixture(scope="session")
def protected_deployment() -> MdtDeployment:
    deployment = MdtDeployment(generate_workload(BENCH_CONFIG))
    deployment.run_pipeline()
    return deployment


@pytest.fixture(scope="session")
def baseline_deployment() -> MdtDeployment:
    """The paper's "without SafeWeb" variant: no labels, no jail, no checks."""
    deployment = MdtDeployment(
        generate_workload(BENCH_CONFIG),
        check_labels=False,
        isolation=False,
        label_checks_in_broker=False,
        label_events=False,
    )
    deployment.run_pipeline()
    return deployment


@pytest.fixture()
def report(capsys):
    """Print a result table to the real terminal (not pytest capture)."""

    def emit(text: str) -> None:
        with capsys.disabled():
            print(f"\n{text}\n")

    return emit
