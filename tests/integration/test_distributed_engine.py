"""Integration: engines running units against a remote STOMP broker.

The paper's deployment topology — broker as a separate process, engines
connected over STOMP — with the jail active: unit callbacks may not
touch sockets, so publishes must flow through the bridge's trusted
sender thread.
"""

import time

import pytest

from repro.core.audit import AuditLog
from repro.core.labels import LabelSet, conf_label
from repro.core.policy import parse_policy
from repro.events import Broker, EventProcessingEngine, Unit
from repro.events.stomp import StompClient, StompServer
from repro.events.stomp.bridge import StompBrokerBridge

PATIENT = conf_label("ecric.org.uk", "patient", "1")

POLICY = parse_policy(
    """
    authority ecric.org.uk

    unit transformer {
        clearance label:conf:ecric.org.uk/patient
    }

    unit collector {
        clearance label:conf:ecric.org.uk/patient
    }

    unit spy {
    }
    """
)


class Transformer(Unit):
    """Jailed unit: uppercases payloads, republishes with labels intact."""

    unit_name = "transformer"

    def setup(self):
        self.subscribe("/raw", self.on_raw)

    def on_raw(self, event):
        self.publish(
            "/cooked",
            {"original": event.get("n", "")},
            payload=(event.payload or "").upper(),
        )


class Collector(Unit):
    unit_name = "collector"

    def setup(self):
        self.subscribe("/cooked", self.on_cooked)

    def on_cooked(self, event):
        seen = self.store.get("seen", [])
        seen.append(event.payload)
        self.store.set("seen", seen)


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


@pytest.fixture()
def server():
    broker = Broker()
    stomp = StompServer(broker, policy=POLICY).start()
    yield stomp
    stomp.stop()


def bridge_for(server, login) -> StompBrokerBridge:
    host, port = server.address
    return StompBrokerBridge(host, port, login=login).connect()


class TestDistributedPipeline:
    def test_two_engines_one_remote_broker(self, server):
        transformer_bridge = bridge_for(server, "transformer")
        collector_bridge = bridge_for(server, "collector")
        producer_bridge = bridge_for(server, "transformer")
        try:
            engine_a = EventProcessingEngine(
                broker=transformer_bridge, policy=POLICY, raise_callback_errors=True
            )
            engine_a.register(Transformer())
            engine_b = EventProcessingEngine(
                broker=collector_bridge, policy=POLICY, raise_callback_errors=True
            )
            collector = Collector()
            engine_b.register(collector)

            from repro.events.event import Event

            producer_bridge.publish(
                Event("/raw", {"n": "1"}, payload="hello", labels=[PATIENT])
            )
            producer_bridge.drain()

            store = engine_b.store_of("collector")
            assert wait_for(lambda: store.get("seen") == ["HELLO"])
            # Labels survived both hops: the store key carries them.
            assert store.labels_for("seen") == LabelSet([PATIENT])
        finally:
            producer_bridge.close()
            transformer_bridge.close()
            collector_bridge.close()

    def test_jailed_publish_goes_through_sender_thread(self, server):
        """A jailed callback publishing must not raise IsolationError."""
        bridge = bridge_for(server, "transformer")
        try:
            engine = EventProcessingEngine(
                broker=bridge, policy=POLICY, raise_callback_errors=True
            )
            engine.register(Transformer())
            received = []
            watcher = bridge_for(server, "collector")
            watcher.subscribe("/cooked", received.append, principal="watch")

            producer = bridge_for(server, "transformer")
            from repro.events.event import Event

            producer.publish(Event("/raw", {"n": "2"}, payload="x", labels=[PATIENT]))
            producer.drain()
            assert wait_for(lambda: len(received) == 1)
            assert received[0].payload == "X"
            assert received[0].labels == LabelSet([PATIENT])
            producer.close()
            watcher.close()
        finally:
            bridge.close()

    def test_server_side_label_filtering_applies_to_engines(self, server):
        """An engine whose login lacks clearance never sees labelled events."""
        spy_bridge = bridge_for(server, "spy")
        try:
            engine = EventProcessingEngine(
                broker=spy_bridge, policy=POLICY, raise_callback_errors=True
            )

            class Spy(Unit):
                unit_name = "spy"

                def setup(self):
                    self.subscribe("/raw", self.on_event)

                def on_event(self, event):
                    # State must go through the store: closures are
                    # deep-copied by the jail's scope isolation.
                    seen = self.store.get("seen", [])
                    seen.append(event.get("n", ""))
                    self.store.set("seen", seen)

            engine.register(Spy())
            store = engine.store_of("spy")

            producer = bridge_for(server, "transformer")
            from repro.events.event import Event

            producer.publish(Event("/raw", {"n": "3"}, labels=[PATIENT]))
            producer.publish(Event("/raw", {"n": "4"}))  # unlabelled
            producer.drain()
            assert wait_for(lambda: store.get("seen") == ["4"])
            time.sleep(0.05)
            assert store.get("seen") == ["4"]
            producer.close()
        finally:
            spy_bridge.close()

    def test_unsubscribe_via_bridge(self, server):
        bridge = bridge_for(server, "collector")
        try:
            received = []
            subscription = bridge.subscribe("/raw", received.append, principal="collector")
            assert len(bridge) == 1
            bridge.unsubscribe(subscription.subscription_id)
            assert len(bridge) == 0
        finally:
            bridge.close()


class TestJailedPublisherOnTheServersBroker:
    """An engine over the STOMP server's own broker: a jailed unit's
    cascade is delivered on the unit's thread, inside the jail, straight
    into a remote client's link. That is a queue append plus a wake-up
    ``send`` on a socketpair created by trusted code, neither of which
    raises an audit event, so the jail denies nothing and the client
    receives the event — over plaintext and TLS, ``ack: auto`` and
    ``ack: client``."""

    @pytest.mark.parametrize("ack", ["auto", "client"])
    @pytest.mark.parametrize("transport", ["plain", "tls"])
    def test_remote_subscriber_receives_a_jailed_cascade(self, request, transport, ack):
        server_context = client_context = None
        if transport == "tls":
            server_context, client_context = request.getfixturevalue("tls_contexts")
        audit = AuditLog()
        broker = Broker(audit=audit)
        server = StompServer(
            broker, policy=POLICY, tls_context=server_context, audit=audit
        ).start()
        host, port = server.address
        client = StompClient(
            host, port, login="collector", tls_context=client_context
        ).connect()
        try:
            received = []

            def on_message(event, message_id=None):
                received.append(event.payload)
                if message_id is not None:
                    client.ack(message_id)

            client.subscribe("/cooked", on_message, ack=ack)
            engine = EventProcessingEngine(broker=broker, policy=POLICY, audit=audit)
            engine.register(Transformer())
            engine.publish("/raw", {"n": "1"}, payload="hello", labels=[PATIENT])
            assert wait_for(lambda: received == ["HELLO"])
            assert engine.stats.callback_errors == 0
            assert audit.count(component="engine", decision="denied") == 0
            assert wait_for(lambda: server.in_flight == 0)
        finally:
            client.disconnect()
            server.stop()
