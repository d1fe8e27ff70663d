"""Unit tests for the IFC-aware broker (paper §4.2)."""

import threading

import pytest

from repro.core.audit import AuditLog
from repro.core.labels import LabelSet, conf_label, int_label
from repro.core.privileges import CLEARANCE, PrivilegeSet
from repro.events import Broker, Event
from repro.exceptions import SafeWebError
from tests.reference.topics import match_topic

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


class TestDeliveryOnThePublishingThread:
    def test_publish_delivers_on_the_calling_thread_before_returning(self):
        broker = Broker()
        threads = []
        broker.subscribe("/t", lambda event: threads.append(threading.current_thread()))
        returned = []
        publisher = threading.Thread(
            target=lambda: returned.append(broker.publish(Event("/t"))), name="publisher"
        )
        publisher.start()
        publisher.join(5)
        assert returned == [1]
        assert threads == [publisher]

    def test_drain_is_immediate(self):
        """``drain`` stays the surface the engine's drain calls; with
        every delivery done inside ``publish`` there is nothing to wait for."""
        from repro.events import EventProcessingEngine

        broker = Broker()
        engine = EventProcessingEngine(broker=broker)
        received = []
        broker.subscribe("/t", received.append)
        for _ in range(100):
            broker.publish(Event("/t"))
        assert len(received) == 100
        assert broker.drain(0.05) is True
        assert engine.drain(0.05) is True


class TestFanoutAuditOrder:
    """A publish's delivery decisions are one audit entry, written when
    the delivery loop returns: contiguous, in candidate order, with
    consecutive ids and one timestamp, after every record made inside
    the loop's callbacks."""

    POLICY = """
        authority ecric.org.uk
        unit before {
        }
        unit relay {
            clearance label:conf:ecric.org.uk/patient
        }
        unit after {
        }
        unit sink {
            clearance label:conf:ecric.org.uk/patient
        }
    """

    def test_a_cascade_is_logged_before_the_fanout_that_caused_it(self):
        from repro.core.policy import parse_policy
        from repro.events import EventProcessingEngine
        from repro.events.unit import unit_from_function

        def handler(unit, event):
            if unit.name == "relay":
                unit.publish("/out", {"n": event.get("n")})

        audit = AuditLog()
        engine = EventProcessingEngine(
            broker=Broker(audit=audit), policy=parse_policy(self.POLICY), audit=audit
        )
        # Route order on /in: denied, cleared-and-publishing, denied.
        for name in ("before", "relay", "after"):
            engine.register(unit_from_function("/in", name=name)(handler))
        engine.register(unit_from_function("/out", name="sink")(handler))
        lacks = {
            name: f"subscription {engine.broker.subscriptions_for(name)[0].subscription_id}"
            " lacks clearance"
            for name in ("before", "after")
        }
        start = len(audit)
        engine.publish("/in", {"n": "1"}, labels=[PATIENT])
        records = audit.records()[start:]
        assert [
            (record.component, record.operation, record.principal, record.decision, record.detail)
            for record in records
        ] == [
            ("broker", "publish", "external", "allowed", ""),
            # Nested: the relay's publish and its one-candidate fan-out.
            ("engine", "publish", "relay", "allowed", ""),
            ("broker", "publish", "relay", "allowed", ""),
            ("broker", "deliver", "sink", "allowed", ""),
            # The outer fan-out, in candidate order.
            ("broker", "deliver", "before", "denied", lacks["before"]),
            ("broker", "deliver", "relay", "allowed", ""),
            ("broker", "deliver", "after", "denied", lacks["after"]),
        ]
        assert {record.labels for record in records} == {LabelSet([PATIENT])}
        record_ids = [record.record_id for record in records]
        assert all(earlier < later for earlier, later in zip(record_ids, record_ids[1:]))
        fanout = records[-3:]
        assert [record.record_id for record in fanout] == list(
            range(fanout[0].record_id, fanout[0].record_id + 3)
        )
        assert len({record.timestamp for record in fanout}) == 1
        stamps = [record.timestamp for record in records]
        assert stamps == sorted(stamps)

    def test_a_raising_callback_leaves_its_fanout_in_the_log(self):
        audit = AuditLog()
        broker = Broker(audit=audit, raise_errors=True)
        reached = []

        def boom(event):
            raise RuntimeError("boom")

        denied = broker.subscribe("/t", reached.append, principal="nosy")
        broker.subscribe("/t", boom, principal="failing", clearance=CLEARED)
        broker.subscribe("/t", reached.append, principal="never", clearance=CLEARED)
        with pytest.raises(RuntimeError, match="boom"):
            try:
                broker.publish(Event("/t", labels=[PATIENT]), publisher="pub")
            except RuntimeError:
                # The exception has not left the publisher's frame yet.
                logged = [
                    (record.operation, record.principal, record.decision, record.detail)
                    for record in audit.records()
                ]
                raise
        assert logged == [
            ("publish", "pub", "allowed", ""),
            ("deliver", "nosy", "denied", f"subscription {denied.subscription_id} lacks clearance"),
            ("deliver", "failing", "denied", "callback error: RuntimeError('boom')"),
        ]
        assert reached == []
        assert audit.count(component="broker", operation="deliver", decision="denied") == 2
        assert broker.stats.label_filtered == 1 and broker.stats.errors == 1
