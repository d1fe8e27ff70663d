"""Unit tests for the broker's indexed fast path and batch publish."""

import threading

from repro.core.audit import AuditLog
from repro.core.labels import LabelSet, conf_label
from repro.core.privileges import CLEARANCE, PrivilegeSet
from repro.events.broker import Broker
from repro.events.event import Event

PATIENT = conf_label("ecric.org.uk", "patient", "1")
CLEARED = PrivilegeSet({CLEARANCE: [PATIENT]})


class TestRouteCache:
    def test_repeated_publish_hits_route_cache(self):
        broker = Broker(audit=AuditLog())
        broker.subscribe("/t", lambda e: None)
        broker.publish(Event("/t"))
        broker.publish(Event("/t"))
        broker.publish(Event("/t"))
        stats = broker.stats.snapshot()
        assert stats["index_hits"] == 1
        assert stats["route_cache_hits"] == 2
        assert stats["scans"] == 0
        assert stats["candidates"] == 3

    def test_subscribe_invalidates_route_cache(self):
        broker = Broker(audit=AuditLog())
        broker.subscribe("/t", lambda e: None)
        assert broker.publish(Event("/t")) == 1
        broker.subscribe("/t", lambda e: None)
        assert broker.publish(Event("/t")) == 2

    def test_unsubscribe_invalidates_route_cache(self):
        broker = Broker(audit=AuditLog())
        keep = broker.subscribe("/t", lambda e: None)
        drop = broker.subscribe("/t", lambda e: None)
        assert broker.publish(Event("/t")) == 2
        broker.unsubscribe(drop.subscription_id)
        assert broker.publish(Event("/t")) == 1
        assert keep.active and not drop.active

    def test_wildcard_subscriptions_served_by_index(self):
        broker = Broker(audit=AuditLog())
        hits = []
        broker.subscribe("/mdt/*/report", hits.append)
        broker.subscribe("/mdt/#", hits.append)
        assert broker.publish(Event("/mdt/42/report")) == 2
        assert broker.publish(Event("/mdt/42")) == 1
        assert broker.stats.scans == 0

    def test_legacy_scan_mode(self):
        broker = Broker(audit=AuditLog(), use_index=False)
        broker.subscribe("/t", lambda e: None)
        assert broker.publish(Event("/t")) == 1
        stats = broker.stats.snapshot()
        assert stats["scans"] == 1
        assert stats["index_hits"] == 0


class TestSelectorSharing:
    def test_identical_selector_evaluated_once_per_publish(self):
        broker = Broker(audit=AuditLog())
        for _ in range(5):
            broker.subscribe("/t", lambda e: None, selector="kind = 'cancer'")
        # The parse cache shares one Selector across the five
        # subscriptions, so the per-publish memo evaluates it once and
        # filtering still counts each subscription individually.
        assert broker.publish(Event("/t", {"kind": "benign"})) == 0
        assert broker.stats.selector_filtered == 5
        assert broker.publish(Event("/t", {"kind": "cancer"})) == 5


class TestClearanceMemoization:
    def test_decisions_are_memoised_on_the_privilege_set(self):
        """One memo per delivery decision, and it lives on the immutable
        privilege set — so two subscriptions sharing a clearance share it."""
        broker = Broker(audit=AuditLog())
        received = []
        clearance = PrivilegeSet({CLEARANCE: [PATIENT]})
        for _ in range(2):
            broker.subscribe("/t", received.append, clearance=clearance)
        for _ in range(3):
            broker.publish(Event("/t", labels=[PATIENT]))
        assert len(received) == 6
        assert clearance._cover_cache == {LabelSet([PATIENT]): True}

    def test_revoke_invalidates_cached_decision(self):
        broker = Broker(audit=AuditLog())
        received = []
        sub = broker.subscribe("/t", received.append, clearance=CLEARED)
        assert broker.publish(Event("/t", labels=[PATIENT])) == 1
        sub.clearance = sub.clearance.revoke(CLEARANCE, PATIENT)
        assert broker.publish(Event("/t", labels=[PATIENT])) == 0
        assert broker.stats.label_filtered == 1

    def test_grant_invalidates_cached_denial(self):
        broker = Broker(audit=AuditLog())
        received = []
        sub = broker.subscribe("/t", received.append)
        assert broker.publish(Event("/t", labels=[PATIENT])) == 0
        sub.clearance = sub.clearance.grant(CLEARANCE, PATIENT)
        assert broker.publish(Event("/t", labels=[PATIENT])) == 1


class TestPublishMany:
    def test_sync_batch_counts_deliveries(self):
        broker = Broker(audit=AuditLog())
        received = []
        broker.subscribe("/t", received.append)
        events = [Event("/t", {"n": str(i)}) for i in range(10)]
        assert broker.publish_many(events) == 10
        assert [e["n"] for e in received] == [str(i) for i in range(10)]
        assert broker.stats.published == 10

    def test_batch_audits_each_publish(self):
        audit = AuditLog()
        broker = Broker(audit=audit)
        broker.publish_many([Event("/t"), Event("/t")], publisher="importer")
        assert audit.count(component="broker", operation="publish") == 2

    def test_empty_batch(self):
        broker = Broker(audit=AuditLog())
        assert broker.publish_many([]) == 0
        assert broker.stats.published == 0

    def test_threaded_batch_drains_in_order(self):
        broker = Broker(threaded=True, audit=AuditLog())
        try:
            received = []
            broker.subscribe("/t", received.append)
            broker.publish_many([Event("/t", {"n": str(i)}) for i in range(50)])
            broker.publish(Event("/t", {"n": "last"}))
            broker.drain()
            assert [e["n"] for e in received] == [str(i) for i in range(50)] + ["last"]
            assert broker.stats.delivered == 51
        finally:
            broker.stop()

    def test_batch_respects_label_filtering(self):
        audit = AuditLog()
        broker = Broker(audit=audit)
        received = []
        broker.subscribe("/t", received.append, principal="nosy")
        broker.publish_many([Event("/t", labels=[PATIENT]), Event("/t")])
        assert len(received) == 1
        assert broker.stats.label_filtered == 1
        assert audit.count(component="broker", operation="deliver", decision="denied") == 1


class TestDeferredAudit:
    def test_notes_surface_through_queries(self):
        audit = AuditLog()
        audit.note("broker", "deliver", "u1", "allowed", LabelSet([PATIENT]))
        audit.note("broker", "deliver", "u2", "denied", detail="no clearance")
        records = audit.records(component="broker")
        assert [r.principal for r in records] == ["u1", "u2"]
        assert records[0].labels == LabelSet([PATIENT])
        assert audit.count(component="broker", decision="denied") == 1

    def test_counters_exact_past_ring_capacity(self):
        audit = AuditLog(capacity=4)
        for index in range(1000):
            audit.note("broker", "deliver", f"u{index}", "allowed")
        assert audit.count(component="broker") == 1000
        records = audit.records()
        assert len(records) == 4
        assert [r.principal for r in records] == ["u996", "u997", "u998", "u999"]

    def test_eager_record_flushes_pending_first(self):
        audit = AuditLog()
        audit.note("broker", "deliver", "first", "allowed")
        audit.allowed("engine", "publish", "second")
        assert [r.principal for r in audit.records()] == ["first", "second"]

    def test_clear_discards_pending(self):
        audit = AuditLog()
        audit.note("broker", "deliver", "u1", "allowed")
        audit.clear()
        assert len(audit) == 0
        assert audit.count() == 0

    def test_note_thread_safety(self):
        audit = AuditLog(capacity=100)

        def spam(tag):
            for _ in range(500):
                audit.note("broker", "deliver", tag, "allowed")

        threads = [threading.Thread(target=spam, args=(f"t{i}",)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert audit.count(component="broker") == 2000
