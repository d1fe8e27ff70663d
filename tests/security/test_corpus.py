"""The standing regression suite over the §5.2 adversarial corpus.

Every corpus entry is asserted in BOTH directions on every configuration
it runs against:

* **unprotected** (``check_labels=False`` plus the entry's tier-specific
  overrides) — the disclosure oracle must find the leak, proving the
  injected bug is live;
* **protected** — the oracle must come back empty and the deployment
  must produce the entry's expected labelled denial (HTTP status and/or
  denied audit record).

The matrix: every entry × sync/supervised engine; every HTTP-path entry ×
cached auth + page cache; a representative sample × sharded and durable
stores. A regression in any enforcement layer (response label check,
taint check, CSRF, broker clearance filter, engine declassification,
isolation jail) turns at least one of these cells red.
"""

import pytest

from tests.property.oracle import ENGINE_MATRIX, STORE_MATRIX, WEB_MATRIX
from tests.security.corpus.harness import entry_names, http_entry_names, run_entry

# The cluster axis (CLUSTER_MATRIX) is not swept here: several entries
# inject their bug by swapping the in-process aggregator, which a cluster
# deployment runs in a worker process instead, and each cluster start
# costs about a second per cell. tests/integration/test_deployment_oracle.py
# holds cluster deployments to the default deployment's trace instead.


def assert_contained(result):
    entry = result.entry
    assert not result.leaked, (
        f"{entry.name}: protected deployment leaked {sorted(result.leaked)}"
    )
    if entry.expected_status is not None:
        assert result.status == entry.expected_status, (
            f"{entry.name}: expected HTTP {entry.expected_status}, "
            f"got {result.status}"
        )
    if entry.expected_audit is not None:
        component, operation = entry.expected_audit
        assert result.denials >= 1, (
            f"{entry.name}: no denied ({component}, {operation}) audit record"
        )


def assert_exploited(result):
    assert result.leaked, (
        f"{result.entry.name}: the injected bug did not disclose anything "
        "without protection — the corpus entry is a strawman"
    )


@pytest.mark.parametrize("engine", sorted(ENGINE_MATRIX))
@pytest.mark.parametrize("name", entry_names())
class TestTwoDirections:
    """The core contract, with callback errors propagated or supervised."""

    def test_protected_denies_with_label(self, name, engine, workload):
        result = run_entry(name, protected=True, workload=workload,
                           **ENGINE_MATRIX[engine])
        assert_contained(result)

    def test_unprotected_discloses(self, name, engine, workload):
        result = run_entry(name, protected=False, workload=workload,
                           **ENGINE_MATRIX[engine])
        assert_exploited(result)


@pytest.mark.parametrize("name", ["unlabeled_republish", "export_feed"])
def test_supervised_engine_contains_what_sync_propagates(name, workload):
    """The engine axis is not vacuous: where the synchronous engine hands
    a callback's violation to the publisher, the supervised one keeps it
    inside the engine — and the denial is audited all the same."""
    sync = run_entry(name, protected=True, workload=workload, **ENGINE_MATRIX["sync"])
    supervised = run_entry(name, protected=True, workload=workload,
                           **ENGINE_MATRIX["supervised"])
    assert sync.violation is not None and sync.deployment.engine.supervisor is None
    assert supervised.violation is None
    assert supervised.deployment.engine.supervisor is not None
    assert supervised.denials >= sync.denials >= 1


@pytest.mark.parametrize("name", http_entry_names())
class TestCachedWebPath:
    """HTTP-path entries with the caching authenticator and page cache on.

    A page-cache hit skips the handler entirely, so these cells prove a
    cached response can never replay labelled data past the checks.
    """

    def test_protected_denies_with_label(self, name, workload):
        result = run_entry(name, protected=True, workload=workload,
                           **WEB_MATRIX["cached"])
        assert_contained(result)

    def test_unprotected_discloses(self, name, workload):
        result = run_entry(name, protected=False, workload=workload,
                           **WEB_MATRIX["cached"])
        assert_exploited(result)


#: One entry per tier, re-run against the sharded and durable stores —
#: the enforcement decisions must be identical on every storage layout.
STORE_SAMPLE = (
    "omitted_access_check",       # web
    "clearance_unfiltered_view",  # storage (view query shape)
    "dmz_overreplication",        # storage (replication + sidecars)
    "unlabeled_republish",        # events
    "bulletin_board",             # multi-tier
)


@pytest.mark.parametrize("name", STORE_SAMPLE)
class TestShardedStore:
    def test_protected_denies_with_label(self, name, workload):
        assert_contained(
            run_entry(name, protected=True, workload=workload, **STORE_MATRIX["sharded"])
        )

    def test_unprotected_discloses(self, name, workload):
        assert_exploited(
            run_entry(name, protected=False, workload=workload, **STORE_MATRIX["sharded"])
        )


@pytest.mark.parametrize("name", STORE_SAMPLE)
class TestDurableStore:
    def test_protected_denies_with_label(self, name, workload, tmp_path):
        result = run_entry(
            name, protected=True, workload=workload, data_dir=str(tmp_path / "prot")
        )
        assert_contained(result)

    def test_unprotected_discloses(self, name, workload, tmp_path):
        result = run_entry(
            name, protected=False, workload=workload, data_dir=str(tmp_path / "raw")
        )
        assert_exploited(result)
