"""Integration: the MDT pipeline on the multi-process cluster engine.

``MdtDeployment(cluster_workers=N)`` moves the aggregator into a worker
process behind topic-sharded broker processes — the one way to run units
in parallel; the pipeline drivers drain the cluster between stages. That
it stores and serves what the in-process deployment does is
tests/integration/test_deployment_oracle.py's; these tests pin what only
a cluster has: placement, the stage barrier and the health surface.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import SafeWebError
from repro.mdt.deployment import MdtDeployment
from tests.property.oracle import CLUSTER_MATRIX, CONFIG


@pytest.fixture(scope="module")
def clustered():
    deployment = MdtDeployment(CONFIG, **CLUSTER_MATRIX["cluster"])
    try:
        deployment.run_pipeline()
        yield deployment
    finally:
        deployment.close()


class TestClusteredPipeline:
    def test_cluster_actually_carried_the_aggregator(self, clustered):
        assert "data_aggregator" not in clustered.engine.unit_names
        assert set(clustered.cluster.placements()) == {"data_aggregator"}
        stats = clustered.cluster.stats()
        assert sum(worker["dispatched"] for worker in stats.values()) > 0

    def test_no_security_denials_in_normal_operation(self, clustered):
        assert clustered.audit.count(decision="denied") == 0

    def test_probe_reports_healthy_cluster(self, clustered):
        report = clustered.probe()
        assert report["healthy"] is True
        assert report["cluster"] is not None
        assert all(report["cluster"]["workers"].values())
        assert all(report["cluster"]["shards"].values())
        assert "data_aggregator" in report["cluster"]["placements"]
        assert clustered.ensure_connected() is True

    def test_metrics_endpoint_is_public_and_sanitised(self, clustered):
        response = clustered.anonymous_client().get("/metrics")
        assert response.status == 200
        report = json.loads(response.text)
        assert report["healthy"] is True
        # Operational counters only — no patient identifiers leak out.
        assert "nhs" not in response.text.lower()
        # ... and no internal topology either: the anonymous surface
        # must not name units, placements or role:login:shard links.
        assert "data_aggregator" not in response.text
        assert "worker-" not in response.text
        assert "shard-" not in response.text
        cluster = report["cluster"]
        assert cluster["workers_alive"] == cluster["workers_total"]
        assert cluster["shards_alive"] == cluster["shards_total"]
        assert cluster["placements"] >= 1
        assert "bridges" not in cluster["router"]
        assert cluster["router"]["links_connected"] >= 1

    def test_incremental_rerun_converges(self, clustered):
        before = sorted(clustered.app_db.all_doc_ids())
        clustered.run_pipeline()
        assert sorted(clustered.app_db.all_doc_ids()) == before

    def test_stage_barrier_fails_loudly_when_the_cluster_does_not_drain(
        self, clustered, monkeypatch
    ):
        monkeypatch.setattr(clustered.cluster, "drain", lambda timeout: False)
        with pytest.raises(SafeWebError, match="cluster did not drain"):
            clustered._settle(0.1)
