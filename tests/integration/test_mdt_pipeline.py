"""Integration tests: the full MDT pipeline of Figure 4.

main DB → producer → broker → aggregator → storage → app DB →
replication → DMZ replica → portal → HTTP response, with IFC enforced at
every boundary.
"""

import json

import pytest

from repro.core.labels import LabelSet
from repro.events.supervision import CircuitBreaker
from repro.exceptions import FirewallError, ReadOnlyError
from repro.mdt import MdtDeployment, WorkloadConfig, generate_workload, mdt_label
from repro.mdt.deployment import Zone
from repro.mdt.storage_unit import define_application_views
from repro.storage.docstore import Database
from repro.taint import labels_of
from tests.property.oracle import CONFIG, ENGINE_MATRIX, STORE_MATRIX


@pytest.fixture(scope="module")
def deployment() -> MdtDeployment:
    deployment = MdtDeployment(generate_workload(CONFIG))
    deployment.run_pipeline()
    return deployment


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
    """What only a sharded store has to show; that it stores and serves
    what the unsharded one does is tests/integration/test_deployment_oracle.py's."""

    @pytest.fixture(scope="class")
    def sharded(self) -> MdtDeployment:
        deployment = MdtDeployment(generate_workload(CONFIG), **STORE_MATRIX["sharded"])
        deployment.run_pipeline()
        return deployment

    def test_replication_reaches_sharded_dmz(self, sharded):
        assert sorted(sharded.dmz_db.all_doc_ids()) == sorted(
            sharded.app_db.all_doc_ids()
        )
        with pytest.raises(ReadOnlyError):
            sharded.dmz_db.put({"_id": "evil", "x": 1})

    def test_by_mid_view_lists_every_record_on_both_sides(self, sharded):
        records = sorted(
            doc_id
            for doc_id in sharded.app_db.all_doc_ids()
            if doc_id.startswith("record-")
        )
        assert records
        for database in (sharded.app_db, sharded.dmz_db):
            assert [row.doc_id for row in database.view("records/by_mid")] == records


class TestRobustDeployment:
    """``supervision`` arms the retry / dead-letter / restart ladder and,
    with it, a breaker around the storage unit's writes. Fault-free, both
    must be armed and quiet; that they change nothing stored or served is
    tests/integration/test_deployment_oracle.py's."""

    def test_supervisor_and_breaker_are_armed_and_quiet(self):
        supervised = MdtDeployment(generate_workload(CONFIG), **ENGINE_MATRIX["supervised"])
        supervised.run_pipeline()
        assert supervised.engine.supervisor is not None
        assert isinstance(supervised.storage.breaker, CircuitBreaker)
        assert supervised.storage.breaker.state == "closed"
        assert supervised.audit.count(decision="denied") == 0
        assert supervised.audit.count(component="breaker") == 0
        unsupervised = MdtDeployment(generate_workload(CONFIG))
        assert unsupervised.engine.supervisor is None
        assert unsupervised.storage.breaker is None


class TestMetricsPage:
    """``GET /metrics`` byte for byte on the default deployment after one
    pipeline pass: the broker and engine counters, their keys and the
    sanitised report's shape."""

    BODY = (
        '{"broker": {"delivered": 137, "published": 137, "subscriptions": 7}, '
        '"cluster": null, "engine": {"stats": {"callback_errors": 0, '
        '"dead_lettered": 0, "dispatched": 137, "restarts": 0, "retries": 0}, '
        '"units": 3}, "healthy": true}'
    )

    def test_body_is_pinned(self):
        deployment = MdtDeployment(generate_workload(WorkloadConfig()))
        deployment.run_pipeline()
        response = deployment.anonymous_client().get("/metrics")
        assert response.status == 200
        assert response.text == self.BODY


class TestViewCensus:
    """Each view is an index every application-database write maintains, so
    the design document holds exactly the views the running system reads:
    a view added without a reader fails here."""

    def test_every_defined_view_is_queried(self, monkeypatch):
        design = Database("design")
        define_application_views(design)
        queried = set()
        view = Database.view

        def recording_view(database, name, *args, **kwargs):
            queried.add(name)
            return view(database, name, *args, **kwargs)

        monkeypatch.setattr(Database, "view", recording_view)
        deployment = MdtDeployment(generate_workload(CONFIG))
        deployment.run_pipeline()
        region = deployment.directory.find("1").region
        client = deployment.client_for("mdt1")
        form = {"Content-Type": "application/x-www-form-urlencoded"}
        for route in deployment.portal._routes:
            path = route.pattern.replace(":mid", "1").replace(":region", region)
            if route.method == "GET":
                client.get(path)
            else:
                client.post(path, headers=form, body="message=hi")

        assert design._views and set(design._views) <= queried
