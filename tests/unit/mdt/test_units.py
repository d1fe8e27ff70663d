"""Unit tests for the three MDT units against a minimal engine."""

import pytest

from repro.core.audit import AuditLog
from repro.core.labels import LabelSet
from repro.events import Broker, EventProcessingEngine
from repro.mdt.aggregator import DataAggregator
from repro.mdt.labels import mdt_aggregate_label, mdt_label, region_aggregate_label
from repro.mdt.producer import DataProducer
from repro.mdt.storage_unit import DataStorage, define_application_views
from repro.mdt.vulnerabilities import BuggyDataAggregator
from repro.mdt.workload import WorkloadConfig, generate_workload
from repro.storage.docstore import Database
from repro.taint import labels_of

CONFIG = WorkloadConfig(num_regions=1, mdts_per_region=2, patients_per_mdt=3, seed=13)


@pytest.fixture()
def workload():
    return generate_workload(CONFIG)


def build_engine(workload, aggregator=None, app_db=None, label_events=True):
    engine = EventProcessingEngine(
        broker=Broker(raise_errors=True),
        policy=workload.policy,
        audit=AuditLog(),
        raise_callback_errors=True,
    )
    producer = DataProducer(workload.main_db, label_events=label_events)
    engine.register(producer)
    engine.register(aggregator or DataAggregator())
    if app_db is None:
        app_db = Database("app")
        define_application_views(app_db)
    engine.register(DataStorage(app_db))
    return engine, producer, app_db


class TestProducer:
    def test_events_labelled_per_mdt(self, workload):
        received = []
        engine, producer, _db = build_engine(workload)
        engine.broker.subscribe(
            "/patient_report",
            received.append,
            clearance=workload.policy.unit("data_storage").privileges,
        )
        engine.publish("/control/import")
        assert producer.events_published == len(received)
        for event in received:
            assert event.labels == LabelSet([mdt_label(event["mdt_id"])])
            assert event["type"] == "cancer"

    def test_scoped_import(self, workload):
        engine, producer, _db = build_engine(workload)
        engine.publish("/control/import", {"mdt_id": "1"})
        expected = sum(1 for _ in workload.main_db.case_records(mdt_id="1"))
        assert producer.events_published == expected

    def test_local_case_numbers_restart_per_mdt(self, workload):
        received = []
        engine, _producer, _db = build_engine(workload, label_events=False)
        engine.broker.subscribe("/patient_report", received.append)
        engine.publish("/control/import")
        firsts = [e for e in received if e["local_case_number"] == "1"]
        assert len(firsts) == 2  # one per MDT

    def test_unlabelled_mode(self, workload):
        received = []
        engine, _producer, _db = build_engine(workload, label_events=False)
        engine.broker.subscribe("/patient_report", received.append)
        engine.publish("/control/import")
        assert all(not event.labels for event in received)

    def test_patient_level_labels_option(self, workload):
        engine = EventProcessingEngine(
            broker=Broker(raise_errors=True),
            policy=workload.policy,
            raise_callback_errors=True,
        )
        producer = DataProducer(workload.main_db, include_patient_labels=True)
        engine.register(producer)
        received = []
        engine.broker.subscribe(
            "/patient_report",
            received.append,
            clearance=workload.policy.unit("data_storage").privileges.merge(
                __import__("repro.core.privileges", fromlist=["PrivilegeSet"]).PrivilegeSet(
                    {"clearance": ["label:conf:ecric.org.uk/patient"]}
                )
            ),
        )
        engine.publish("/control/import", {"mdt_id": "1"})
        assert received
        assert len(received[0].labels.confidentiality) == 2


class TestAggregator:
    def test_records_grouped_per_patient(self, workload):
        engine, _producer, app_db = build_engine(workload)
        engine.publish("/control/import")
        store = engine.store_of("data_aggregator")
        record_keys = [key for key in store.keys() if key.startswith("record:")]
        assert len(record_keys) == workload.main_db.counts()["patients"]

    def test_record_labels_accumulate(self, workload):
        engine, _producer, _db = build_engine(workload)
        engine.publish("/control/import")
        store = engine.store_of("data_aggregator")
        for key in store.keys():
            if key.startswith("record:"):
                assert store.labels_for(key).confidentiality

    def test_metric_event_published(self, workload):
        received = []
        engine, _producer, _db = build_engine(workload)
        engine.broker.subscribe(
            "/mdt_metric",
            received.append,
            clearance=workload.policy.unit("data_storage").privileges,
        )
        engine.publish("/control/import")
        engine.publish("/control/aggregate", {"mdt_id": "1"})
        assert len(received) == 1
        metric = received[0]
        assert 0 < float(metric["completeness"]) <= 100
        # The metric inherits the MDT's labels through the store reads.
        assert metric.labels == LabelSet([mdt_label("1")])

    def test_region_metric(self, workload):
        received = []
        engine, _producer, _db = build_engine(workload)
        engine.broker.subscribe(
            "/region_metric",
            received.append,
            clearance=workload.policy.unit("data_storage").privileges,
        )
        engine.publish("/control/import")
        engine.publish("/control/aggregate", {"mdt_id": "1"})
        engine.publish("/control/aggregate", {"mdt_id": "2"})
        engine.publish("/control/aggregate_region", {"region": "region-1", "mdt_ids": "1,2"})
        assert len(received) == 1
        # Regional metric carries both MDTs' labels before relabelling.
        assert received[0].labels == LabelSet([mdt_label("1"), mdt_label("2")])

    def test_buggy_aggregator_mixes_mdts(self, workload):
        engine, _producer, _db = build_engine(workload, aggregator=BuggyDataAggregator())
        engine.publish("/control/import")
        store = engine.store_of("data_aggregator")
        mixed = [
            key
            for key in store.keys()
            if key.startswith("record:")
            and len(store.labels_for(key).confidentiality) > 1
        ]
        assert mixed


class TestStorageUnit:
    def test_documents_written(self, workload):
        engine, producer, app_db = build_engine(workload)
        engine.publish("/control/import")
        records = [d for d in app_db.all_doc_ids() if d.startswith("record-")]
        assert len(records) == workload.main_db.counts()["patients"]

    def test_metric_relabelling(self, workload):
        engine, _producer, app_db = build_engine(workload)
        engine.publish("/control/import")
        engine.publish("/control/aggregate", {"mdt_id": "1"})
        metric = app_db.get("metric-mdt-1")
        assert labels_of(metric["completeness"]) == LabelSet([mdt_aggregate_label("1")])
        # The patient-level MDT label is gone: relabelled, not accumulated.
        assert mdt_label("1") not in labels_of(metric["completeness"])

    def test_region_metric_relabelling(self, workload):
        engine, _producer, app_db = build_engine(workload)
        engine.publish("/control/import")
        engine.publish("/control/aggregate", {"mdt_id": "1"})
        engine.publish("/control/aggregate", {"mdt_id": "2"})
        engine.publish(
            "/control/aggregate_region", {"region": "region-1", "mdt_ids": "1,2"}
        )
        metric = app_db.get("metric-region-region-1")
        assert labels_of(metric["survival"]) == LabelSet(
            [region_aggregate_label("region-1")]
        )

    def test_upsert_on_reaggregation(self, workload):
        engine, _producer, app_db = build_engine(workload)
        engine.publish("/control/import")
        engine.publish("/control/aggregate", {"mdt_id": "1"})
        first_rev = app_db.get("metric-mdt-1")["_rev"]
        engine.publish("/control/aggregate", {"mdt_id": "1"})
        second_rev = app_db.get("metric-mdt-1")["_rev"]
        assert first_rev != second_rev
        assert len([d for d in app_db.all_doc_ids() if d.startswith("metric-mdt-1")]) == 1
