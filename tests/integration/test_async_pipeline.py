"""Integration: the MDT pipeline beside background replication.

The broker delivers on the publishing thread; what runs asynchronously
here is a thread looping :meth:`Replicator.replicate` to copy the
application database into the DMZ while the Figure 4 pipeline writes
it — the paper's periodic replication, beside the writer.
"""

import threading
import time

import pytest

from repro.core.audit import AuditLog
from repro.events.broker import Broker
from repro.events.engine import EventProcessingEngine
from repro.mdt.aggregator import DataAggregator
from repro.mdt.producer import DataProducer
from repro.mdt.storage_unit import DataStorage, define_application_views
from repro.mdt.workload import WorkloadConfig, generate_workload
from repro.storage.docstore import Database
from repro.storage.replication import Replicator


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


@pytest.fixture()
def async_stack():
    workload = generate_workload(
        WorkloadConfig(num_regions=1, mdts_per_region=2, patients_per_mdt=5, seed=77)
    )
    broker = Broker(audit=AuditLog())
    engine = EventProcessingEngine(broker=broker, policy=workload.policy)
    app_db = Database("async_app")
    define_application_views(app_db)
    dmz_db = Database("async_dmz", read_only=True)
    define_application_views(dmz_db)
    replicator = Replicator(app_db, dmz_db)
    stopping = threading.Event()

    def replicate_until_stopped():
        while not stopping.is_set():
            replicator.replicate()
            stopping.wait(0.02)

    loop = threading.Thread(target=replicate_until_stopped, name="replication-loop", daemon=True)
    loop.start()

    producer = DataProducer(workload.main_db)
    engine.register(producer)
    engine.register(DataAggregator())
    engine.register(DataStorage(app_db))
    yield workload, broker, engine, app_db, dmz_db, replicator, producer
    assert loop.is_alive(), "a replication pass raised beside the pipeline"
    stopping.set()
    loop.join(5)


class TestAsyncPipeline:
    def test_records_flow_to_dmz_without_explicit_sync(self, async_stack):
        workload, broker, engine, app_db, dmz_db, _replicator, producer = async_stack
        engine.publish("/control/import")
        patients = workload.main_db.counts()["patients"]
        assert wait_for(
            lambda: len([d for d in app_db.all_doc_ids() if d.startswith("record-")])
            == patients
        )
        assert wait_for(
            lambda: len([d for d in dmz_db.all_doc_ids() if d.startswith("record-")])
            == patients
        )

    def test_metrics_computed_from_imported_records(self, async_stack):
        workload, broker, engine, app_db, _dmz_db, _replicator, _producer = async_stack
        engine.publish("/control/import")
        assert wait_for(lambda: "record-hospital-1:p00001" in app_db or len(app_db) > 0)
        engine.publish("/control/aggregate", {"mdt_id": "1"})
        assert wait_for(lambda: app_db.get_or_none("metric-mdt-1") is not None)
        metric = app_db.get("metric-mdt-1")
        assert 0 < float(str(metric["completeness"])) <= 100

    def test_no_events_lost_beside_background_replication(self, async_stack):
        workload, broker, engine, _app_db, dmz_db, _replicator, producer = async_stack
        # A witness with the aggregator's clearance and selector sees every
        # /patient_report the aggregator should have been handed.
        reports = []
        broker.subscribe(
            "/patient_report",
            reports.append,
            principal="witness",
            clearance=workload.policy.unit("data_aggregator").privileges,
            selector="type = 'cancer'",
        )
        engine.publish("/control/import")
        assert broker.stats.errors == 0
        assert len(reports) == producer.events_published == workload.main_db.counts()["tumours"]

        store = engine.store_of("data_aggregator")
        record_keys = [key for key in store.keys() if key.startswith("record:")]
        tumour_ids = [
            tumour["tumour_id"] for key in record_keys for tumour in store.get(key)["tumours"]
        ]
        # Each report is merged into exactly one record, and no record
        # holds a tumour no report carried.
        for report in reports:
            assert tumour_ids.count(report["tumour_id"]) == 1, report["tumour_id"]
        assert len(tumour_ids) == len(reports)

        patients = workload.main_db.counts()["patients"]
        assert len(record_keys) == patients
        expected = {"record-" + key.replace(":", "-") for key in record_keys}
        assert wait_for(
            lambda: {d for d in dmz_db.all_doc_ids() if d.startswith("record-")} == expected
        )
