"""Unit tests for the audit log."""

import threading

from repro.core.audit import ALLOWED, DENIED, AuditLog, default_audit_log
from repro.core.labels import LabelSet, conf_label

MDT_1 = conf_label("ecric.org.uk", "mdt", "1")


class TestAuditLog:
    def test_record_and_query(self):
        log = AuditLog()
        log.allowed("frontend", "respond", "mdt1", labels=LabelSet([MDT_1]))
        log.denied("frontend", "respond", "mdt2", detail="missing clearance")
        assert len(log) == 2
        assert len(log.denials()) == 1
        assert log.denials()[0].principal == "mdt2"

    def test_counters_survive_eviction(self):
        log = AuditLog(capacity=5)
        for index in range(20):
            log.allowed("broker", "deliver", f"unit{index}")
        assert len(log) == 5
        assert log.count(component="broker", decision=ALLOWED) == 20

    def test_filtering(self):
        log = AuditLog()
        log.allowed("broker", "deliver", "u1")
        log.denied("broker", "deliver", "u1")
        log.denied("engine", "publish", "u2")
        assert log.count(component="broker") == 2
        assert log.count(decision=DENIED) == 2
        assert log.count(component="engine", operation="publish", decision=DENIED) == 1
        assert [r.component for r in log.records(principal="u2")] == ["engine"]

    def test_records_carry_labels(self):
        log = AuditLog()
        log.denied("frontend", "respond", "mdt2", labels=LabelSet([MDT_1]))
        (entry,) = log.records()
        assert entry.labels == LabelSet([MDT_1])
        assert entry.to_dict()["labels"] == [MDT_1.uri]

    def test_monotonic_ids(self):
        log = AuditLog()
        log.allowed("a", "b", "c")
        log.allowed("a", "b", "c")
        first, second = log.records()
        assert second.record_id > first.record_id

    def test_clear(self):
        log = AuditLog()
        log.allowed("a", "b", "c")
        log.clear()
        assert len(log) == 0
        assert log.count() == 0

    def test_thread_safety(self):
        log = AuditLog(capacity=100)

        def hammer():
            for _ in range(500):
                log.allowed("broker", "deliver", "u")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert log.count() == 4000
        assert len(log) == 100

    def test_default_log_is_shared(self):
        assert default_audit_log() is default_audit_log()
