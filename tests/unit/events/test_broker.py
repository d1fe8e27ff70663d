"""Unit tests for the IFC-aware broker (paper §4.2)."""

import threading

import pytest

from repro.core.audit import AuditLog
from repro.core.labels import LabelSet, conf_label, int_label
from repro.core.privileges import CLEARANCE, PrivilegeSet
from repro.events import Broker, Event
from repro.events.broker import match_topic
from repro.exceptions import SafeWebError

PATIENT = conf_label("ecric.org.uk", "patient", "1")
MDT = conf_label("ecric.org.uk", "mdt", "1")
TRUSTED = int_label("ecric.org.uk", "mdt")

CLEARED = PrivilegeSet({CLEARANCE: [PATIENT, MDT]})


class TestTopicMatching:
    @pytest.mark.parametrize(
        "pattern,topic,expected",
        [
            ("/a", "/a", True),
            ("/a", "/b", False),
            ("/a/b", "/a/b", True),
            ("/a/b", "/a", False),
            ("/a", "/a/b", False),
            ("/a/*", "/a/b", True),
            ("/a/*", "/a/b/c", False),
            ("/*/b", "/a/b", True),
            ("/a/#", "/a/b/c", True),
            ("/a/#", "/a", False),
            ("/#", "/anything/at/all", True),
        ],
    )
    def test_patterns(self, pattern, topic, expected):
        assert match_topic(pattern, topic) is expected


class TestSubscriptionManagement:
    def test_subscribe_and_count(self):
        broker = Broker()
        broker.subscribe("/t", lambda e: None)
        assert len(broker) == 1

    def test_generated_ids_unique(self):
        broker = Broker()
        first = broker.subscribe("/t", lambda e: None)
        second = broker.subscribe("/t", lambda e: None)
        assert first.subscription_id != second.subscription_id

    def test_explicit_id_collision_rejected(self):
        broker = Broker()
        broker.subscribe("/t", lambda e: None, subscription_id="x")
        with pytest.raises(SafeWebError):
            broker.subscribe("/t", lambda e: None, subscription_id="x")

    def test_unsubscribe(self):
        broker = Broker()
        sub = broker.subscribe("/t", lambda e: None)
        broker.unsubscribe(sub.subscription_id)
        assert len(broker) == 0
        assert broker.publish(Event("/t")) == 0

    def test_subscriptions_for_principal(self):
        broker = Broker()
        broker.subscribe("/t", lambda e: None, principal="u1")
        broker.subscribe("/t", lambda e: None, principal="u2")
        assert len(broker.subscriptions_for("u1")) == 1


class TestDelivery:
    def test_basic_delivery(self):
        broker = Broker()
        received = []
        broker.subscribe("/t", received.append)
        event = Event("/t", {"k": "v"})
        assert broker.publish(event) == 1
        assert received == [event]

    def test_topic_filtering(self):
        broker = Broker()
        received = []
        broker.subscribe("/a", received.append)
        broker.publish(Event("/b"))
        assert received == []

    def test_selector_filtering(self):
        broker = Broker()
        received = []
        broker.subscribe("/t", received.append, selector="type = 'cancer'")
        broker.publish(Event("/t", {"type": "benign"}))
        broker.publish(Event("/t", {"type": "cancer"}))
        assert len(received) == 1
        assert broker.stats.selector_filtered == 1

    def test_fanout(self):
        broker = Broker()
        counters = [[], []]
        broker.subscribe("/t", counters[0].append)
        broker.subscribe("/t", counters[1].append)
        assert broker.publish(Event("/t")) == 2

    def test_failing_subscriber_does_not_stop_others(self):
        broker = Broker()
        received = []

        def bad(event):
            raise RuntimeError("boom")

        broker.subscribe("/t", bad)
        broker.subscribe("/t", received.append)
        assert broker.publish(Event("/t")) == 1
        assert len(received) == 1
        assert broker.stats.errors == 1


class TestLabelFiltering:
    """§4.2: event conf labels must be ⊆ subscriber clearance."""

    def test_cleared_subscriber_receives(self):
        broker = Broker()
        received = []
        broker.subscribe("/t", received.append, clearance=CLEARED)
        broker.publish(Event("/t", labels=[PATIENT]))
        assert len(received) == 1

    def test_uncleared_subscriber_filtered_silently(self):
        audit = AuditLog()
        broker = Broker(audit=audit)
        received = []
        broker.subscribe("/t", received.append, principal="nosy")
        assert broker.publish(Event("/t", labels=[PATIENT])) == 0
        assert received == []
        assert broker.stats.label_filtered == 1
        denials = audit.denials(component="broker")
        assert len(denials) == 1
        assert denials[0].principal == "nosy"

    def test_partial_clearance_insufficient(self):
        broker = Broker()
        received = []
        only_mdt = PrivilegeSet({CLEARANCE: [MDT]})
        broker.subscribe("/t", received.append, clearance=only_mdt)
        broker.publish(Event("/t", labels=[MDT, PATIENT]))
        assert received == []

    def test_unlabelled_events_reach_everyone(self):
        broker = Broker()
        received = []
        broker.subscribe("/t", received.append)
        broker.publish(Event("/t"))
        assert len(received) == 1

    def test_integrity_labels_do_not_block_delivery(self):
        broker = Broker()
        received = []
        broker.subscribe("/t", received.append)
        broker.publish(Event("/t", labels=[TRUSTED]))
        assert len(received) == 1

    def test_required_integrity_blocks_unendorsed_events(self):
        broker = Broker()
        received = []
        broker.subscribe("/t", received.append, require_integrity=LabelSet([TRUSTED]))
        broker.publish(Event("/t"))
        assert received == []
        broker.publish(Event("/t", labels=[TRUSTED]))
        assert len(received) == 1

    def test_label_checks_can_be_disabled_for_baseline(self):
        broker = Broker(label_checks=False)
        received = []
        broker.subscribe("/t", received.append, principal="nosy")
        broker.publish(Event("/t", labels=[PATIENT]))
        assert len(received) == 1


class TestThreadedDispatch:
    def test_async_delivery(self):
        broker = Broker(threaded=True)
        try:
            received = []
            done = threading.Event()

            def collect(event):
                received.append(event)
                done.set()

            broker.subscribe("/t", collect)
            broker.publish(Event("/t"))
            assert done.wait(5)
            assert len(received) == 1
        finally:
            broker.stop()

    def test_drain(self):
        broker = Broker(threaded=True)
        try:
            received = []
            broker.subscribe("/t", received.append)
            for _ in range(100):
                broker.publish(Event("/t"))
            broker.drain()
            assert len(received) == 100
        finally:
            broker.stop()

    def test_drain_timeout_is_reported_not_swallowed(self):
        """``drain`` used to discard its wait result, so the engine
        reported a still-busy broker as drained."""
        from repro.events import EventProcessingEngine

        release = threading.Event()
        broker = Broker(threaded=True)
        engine = EventProcessingEngine(broker=broker)
        try:
            broker.subscribe("/t", lambda event: release.wait(5))
            broker.publish(Event("/t"))
            assert broker.drain(0.05) is False
            assert engine.drain(0.05) is False
            release.set()
            assert broker.drain(5) is True
            assert engine.drain(5) is True
            assert Broker().drain(0.05) is True  # synchronous: nothing is ever queued
        finally:
            release.set()
            broker.stop()

    def test_stop_is_idempotent(self):
        broker = Broker(threaded=True)
        broker.stop()
        broker.stop()

    def test_dispatcher_survives_raising_subscriber(self):
        """Regression: with raise_errors=True a subscriber exception used
        to propagate out of the dispatch loop and kill the dispatcher
        thread silently — every later event then queued forever."""
        broker = Broker(threaded=True, raise_errors=True)
        try:
            received = []

            def flaky(event):
                if event.get("i") == "boom":
                    raise ValueError("subscriber bug")
                received.append(event)

            broker.subscribe("/t", flaky)
            broker.publish(Event("/t", {"i": "boom"}))
            for index in range(5):
                broker.publish(Event("/t", {"i": str(index)}))
            broker.drain()
            assert broker._dispatcher is not None and broker._dispatcher.is_alive()
            assert [event["i"] for event in received] == ["0", "1", "2", "3", "4"]
            assert broker.stats.errors == 1
        finally:
            broker.stop()

    def test_dispatcher_survives_raising_engine_callback(self):
        """The engine's deliver closure re-raises unit exceptions when
        raise_callback_errors=True; on a threaded broker those land on
        the dispatcher thread and must be contained there."""
        from repro.core.principals import UnitPrincipal
        from repro.core.privileges import PrivilegeSet
        from repro.events import EventProcessingEngine, Unit

        broker = Broker(threaded=True, raise_errors=True)
        engine = EventProcessingEngine(
            broker=broker, raise_callback_errors=True, isolation=False
        )
        try:

            class Fragile(Unit):
                unit_name = "fragile"

                def setup(self):
                    self.subscribe("/t", self.on_event)

                def on_event(self, event):
                    if event.get("i") == "boom":
                        raise ValueError("unit bug")
                    self.store.set("ok", self.store.get("ok", 0) + 1)

            engine.register(
                Fragile(), principal=UnitPrincipal("fragile", PrivilegeSet.empty())
            )
            engine.publish("/t", {"i": "boom"})
            for _ in range(3):
                engine.publish("/t", {"i": "fine"})
            broker.drain()
            assert broker._dispatcher is not None and broker._dispatcher.is_alive()
            assert engine.store_of("fragile").get("ok") == 3
        finally:
            broker.stop()
