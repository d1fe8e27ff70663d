"""Integration tests: the full MDT pipeline of Figure 4.

main DB → producer → broker → aggregator → storage → app DB →
replication → DMZ replica → portal → HTTP response, with IFC enforced at
every boundary.
"""

import json

import pytest

from repro.core.labels import LabelSet
from repro.events.supervision import CircuitBreaker, SupervisionPolicy
from repro.exceptions import FirewallError, ReadOnlyError, SafeWebError
from repro.mdt import MdtDeployment, WorkloadConfig, mdt_label
from repro.mdt.deployment import Zone
from repro.taint import labels_of


CONFIG = WorkloadConfig(num_regions=2, mdts_per_region=2, patients_per_mdt=5, seed=7)


@pytest.fixture(scope="module")
def deployment() -> MdtDeployment:
    deployment = MdtDeployment(CONFIG)
    deployment.run_pipeline()
    return deployment


def assert_same_documents(reference: MdtDeployment, other: MdtDeployment) -> None:
    """Same ``app_db`` documents, field for field, with the same labels.

    Other tests re-run the reference pipeline (bumping ``_rev``), so
    revisions are not compared.
    """
    assert sorted(other.app_db.all_doc_ids()) == sorted(reference.app_db.all_doc_ids())
    for doc_id in reference.app_db.all_doc_ids():
        expected = reference.app_db.get(doc_id)
        actual = other.app_db.get(doc_id)
        assert set(expected) == set(actual)
        for field in expected:
            if field == "_rev":
                continue
            assert expected[field] == actual[field]
            assert labels_of(expected[field]) == labels_of(actual[field])


def assert_same_records_page(reference: MdtDeployment, other: MdtDeployment) -> None:
    """``/records/1`` is served, and identically, by both deployments."""
    expected = reference.client_for("mdt1").get("/records/1")
    actual = other.client_for("mdt1").get("/records/1")
    assert actual.status == expected.status == 200
    assert actual.json() == expected.json()


class TestBackendPipeline:
    def test_producer_published_all_cases(self, deployment):
        tumour_count = deployment.main_db.counts()["tumours"]
        assert deployment.producer.events_published == tumour_count

    def test_records_persisted_with_labels(self, deployment):
        docs = [
            deployment.app_db.get(doc_id)
            for doc_id in deployment.app_db.all_doc_ids()
            if doc_id.startswith("record-")
        ]
        assert docs
        for doc in docs:
            expected = LabelSet([mdt_label(doc["mid"])])
            assert labels_of(doc["patient_name"]) == expected
            assert labels_of(doc["nhs_number"]) == expected

    def test_metrics_relabelled_to_aggregate_labels(self, deployment):
        from repro.mdt import mdt_aggregate_label, region_aggregate_label

        metric = deployment.app_db.get("metric-mdt-1")
        assert labels_of(metric["completeness"]) == LabelSet([mdt_aggregate_label("1")])
        region = deployment.directory.find("1").region
        regional = deployment.app_db.get(f"metric-region-{region}")
        assert labels_of(regional["completeness"]) == LabelSet(
            [region_aggregate_label(region)]
        )

    def test_metric_values_plausible(self, deployment):
        metric = deployment.app_db.get("metric-mdt-1")
        completeness = float(str(metric["completeness"]))
        survival = float(str(metric["survival"]))
        assert 0 < completeness <= 100
        assert 0 < survival <= 100
        assert int(str(metric["record_count"])) > 0

    def test_replication_reached_dmz(self, deployment):
        assert len(deployment.dmz_db) == len(deployment.app_db)

    def test_no_security_denials_in_normal_operation(self, deployment):
        assert deployment.audit.count(component="engine", decision="denied") == 0
        assert deployment.audit.count(component="store", decision="denied") == 0


class TestPortalAccess:
    def test_front_page_renders_for_own_mdt(self, deployment):
        result = deployment.client_for("mdt1").get("/")
        assert result.ok
        assert "MDT 1" in result.text
        assert "Completeness" in result.text

    def test_front_page_contains_own_patients_only(self, deployment):
        result = deployment.client_for("mdt1").get("/")
        own_names = {
            str(p.name) for p in deployment.main_db.patients_for_mdt("1")
        }
        other_names = {
            str(p.name)
            for mdt in ("2", "3", "4")
            for p in deployment.main_db.patients_for_mdt(mdt)
        } - own_names
        assert any(name in result.text for name in own_names)
        assert not any(name in result.text for name in other_names)

    def test_own_records_json(self, deployment):
        result = deployment.client_for("mdt1").get("/records/1")
        assert result.ok
        records = json.loads(result.text)
        assert records
        assert all(record["mid"] == "1" for record in records)

    def test_other_mdt_records_blocked_by_app_check(self, deployment):
        result = deployment.client_for("mdt1").get("/records/3")
        assert result.status == 403

    def test_unauthenticated_requests_rejected(self, deployment):
        assert deployment.anonymous_client().get("/records/1").status == 401

    def test_wrong_password_rejected(self, deployment):
        client = deployment.anonymous_client()
        assert client.get("/records/1", auth=("mdt1", "wrong")).status == 401

    def test_mdt_metrics_visible_within_region(self, deployment):
        # mdt1 and mdt2 share region-1.
        result = deployment.client_for("mdt1").get("/metrics/2")
        assert result.ok
        metric = json.loads(result.text)
        assert metric["metric_mid"] == "2"

    def test_mdt_metrics_blocked_across_regions(self, deployment):
        # mdt3 is in region-2.
        result = deployment.client_for("mdt1").get("/metrics/3")
        assert result.status == 403

    def test_region_metrics_visible_to_all(self, deployment):
        for region in deployment.directory.regions():
            result = deployment.client_for("mdt3").get(f"/region/{region}")
            assert result.ok

    def test_compare_page(self, deployment):
        result = deployment.client_for("mdt1").get("/compare/1")
        assert result.ok
        assert "region-1" in result.text

    def test_feedback_acknowledged(self, deployment):
        result = deployment.client_for("mdt1").post(
            "/feedback",
            headers={"Content-Type": "application/x-www-form-urlencoded"},
            body="message=numbers+look+wrong",
        )
        assert result.status == 202

    def test_health_is_public(self, deployment):
        assert deployment.anonymous_client().get("/health").ok

    def test_admin_user_creation(self, deployment):
        admin_id = deployment.webdb.add_user("admin", "adminpw", is_admin=True)
        assert deployment.webdb.is_admin(admin_id)
        client = deployment.anonymous_client()
        result = client.post(
            "/admin/mdts",
            headers={"Content-Type": "application/x-www-form-urlencoded"},
            body="mdt_id=1&username=doctor1&password=docpw",
            auth=("admin", "adminpw"),
        )
        assert result.status == 201
        # The new account sees MDT 1's records.
        result = client.get("/records/1", auth=("doctor1", "docpw"))
        assert result.ok


class TestDeploymentSecurity:
    def test_dmz_replica_rejects_direct_writes(self, deployment):
        with pytest.raises(ReadOnlyError):
            deployment.dmz_db.put({"_id": "evil", "x": 1})

    def test_firewall_blocks_reverse_replication(self, deployment):
        from repro.mdt.deployment import FirewalledReplicator

        reverse = FirewalledReplicator(
            deployment.dmz_db,
            deployment.app_db,
            deployment.firewall,
            Zone.DMZ,
            Zone.INTRANET,
        )
        with pytest.raises(FirewallError):
            reverse.replicate()

    def test_firewall_blocks_n3_to_intranet(self, deployment):
        with pytest.raises(FirewallError):
            deployment.firewall.check(Zone.N3, Zone.INTRANET)

    def test_firewall_permits_declared_directions(self, deployment):
        assert deployment.firewall.permits(Zone.INTRANET, Zone.DMZ)
        assert deployment.firewall.permits(Zone.N3, Zone.DMZ)
        assert not deployment.firewall.permits(Zone.DMZ, Zone.INTRANET)

    def test_incremental_pipeline_rerun(self, deployment):
        """A second pipeline pass re-aggregates without duplicating docs."""
        before = len(deployment.app_db)
        deployment.aggregate()
        deployment.replicate()
        assert len(deployment.app_db) == before


class TestShardedDeployment:
    """The full Figure 4 pipeline over sharded application databases."""

    @pytest.fixture(scope="class")
    def sharded(self) -> MdtDeployment:
        deployment = MdtDeployment(CONFIG, shards=4)
        deployment.run_pipeline()
        return deployment

    def test_same_documents_as_unsharded(self, deployment, sharded):
        assert_same_documents(deployment, sharded)

    def test_replication_reaches_sharded_dmz(self, sharded):
        assert sorted(sharded.dmz_db.all_doc_ids()) == sorted(
            sharded.app_db.all_doc_ids()
        )
        with pytest.raises(ReadOnlyError):
            sharded.dmz_db.put({"_id": "evil", "x": 1})

    def test_portal_serves_identical_records(self, deployment, sharded):
        assert_same_records_page(deployment, sharded)

    def test_reduce_view_counts_records(self, sharded):
        records = [
            doc_id
            for doc_id in sharded.app_db.all_doc_ids()
            if doc_id.startswith("record-")
        ]
        assert sharded.app_db.view("records/count_by_mid", reduce=True) == len(records)


class TestClusterEngineDeployment:
    """The full Figure 4 pipeline with the aggregator on the cluster.

    ``cluster_workers=2`` runs the aggregator in a worker process — the
    one way to run units in parallel; the pipeline drivers drain the
    cluster between stages. Everything the portal serves — documents,
    labels, metrics — must be identical to the in-process deployment's
    output.
    """

    @pytest.fixture(scope="class")
    def clustered(self) -> MdtDeployment:
        deployment = MdtDeployment(CONFIG, cluster_workers=2)
        try:
            deployment.run_pipeline()
            yield deployment
        finally:
            deployment.close()

    def test_same_documents_as_synchronous(self, deployment, clustered):
        assert_same_documents(deployment, clustered)

    def test_cluster_actually_carried_the_aggregator(self, clustered):
        assert "data_aggregator" not in clustered.engine.unit_names
        assert set(clustered.cluster.placements()) == {"data_aggregator"}
        stats = clustered.cluster.stats()
        assert sum(worker["dispatched"] for worker in stats.values()) > 0

    def test_no_security_denials_in_normal_operation(self, clustered):
        assert clustered.audit.count(decision="denied") == 0

    def test_portal_serves_identical_records(self, deployment, clustered):
        assert_same_records_page(deployment, clustered)

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


class TestRobustDeployment:
    """The error-handling and flush-policy keywords, fault-free.

    ``supervision`` arms the retry / dead-letter / restart ladder and
    ``storage_breaker`` guards the storage unit's writes; with no faults
    occurring neither may change what the pipeline stores or serves.
    ``fsync_batch`` only moves the WAL's commit points.
    """

    @pytest.fixture(scope="class")
    def breaker(self) -> CircuitBreaker:
        return CircuitBreaker("data_storage")

    @pytest.fixture(scope="class")
    def supervised(self, breaker) -> MdtDeployment:
        deployment = MdtDeployment(
            CONFIG, supervision=SupervisionPolicy(), storage_breaker=breaker
        )
        deployment.run_pipeline()
        return deployment

    def test_same_documents_as_unsupervised(self, deployment, supervised):
        assert_same_documents(deployment, supervised)

    def test_supervisor_and_breaker_are_armed_and_quiet(self, supervised, breaker):
        assert supervised.engine.supervisor is not None
        assert breaker.state == "closed"
        assert supervised.audit.count(decision="denied") == 0

    def test_portal_serves_identical_records(self, deployment, supervised):
        assert_same_records_page(deployment, supervised)

    def test_fsync_every_record_reopens_to_the_same_documents(self, tmp_path):
        config = WorkloadConfig(num_regions=1, mdts_per_region=2, patients_per_mdt=3)
        first = MdtDeployment(config, data_dir=tmp_path, fsync_batch=1)
        first.run_pipeline()
        doc_ids = first.app_db.all_doc_ids()
        first.close()
        second = MdtDeployment(config, data_dir=tmp_path, fsync_batch=1)
        try:
            assert doc_ids and second.app_db.all_doc_ids() == doc_ids
        finally:
            second.close()
