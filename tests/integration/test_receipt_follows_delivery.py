"""A broker's RECEIPT for a SEND means the event has been delivered.

The broker delivers on the publishing connection's handler thread, and
that thread queues a SEND's RECEIPT only after the publish returned: by
the time a client holds the RECEIPT, every cleared in-process subscriber
holds the event, every ``ack: client`` delivery is counted in the
server's ``in_flight`` and every denial is audited. A delivery stuck on
one connection's thread holds up only that connection. Each test holds
one connection inside a blocking in-process subscriber first, so none of
this can come from a shared delivery thread. Pinned on the national
exchange, whose broker is built by the library itself.
"""

import threading
import time

import pytest

from repro.core.audit import default_audit_log
from repro.core.privileges import PrivilegeSet
from repro.events import Event
from repro.events.stomp import StompClient
from repro.events.stomp.bridge import StompBrokerBridge
from repro.mdt.federation import EXCHANGE_TOPIC, NationalExchange
from repro.mdt.labels import mdt_label, region_aggregate_label, region_aggregate_root

REGIONS = ["region-1", "region-2", "region-3"]
AGGREGATE = region_aggregate_label("region-2")


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


@pytest.fixture
def exchange():
    exchange = NationalExchange(REGIONS).start()
    yield exchange
    exchange.stop()


@pytest.fixture
def observed(exchange):
    """What a cleared in-process subscriber to the exchange topic holds."""
    held = []
    exchange.broker.subscribe(
        EXCHANGE_TOPIC,
        held.append,
        principal="observer",
        clearance=PrivilegeSet({"clearance": [region_aggregate_root()]}),
    )
    return held


@pytest.fixture
def connect(exchange):
    opened = []

    def connect(region):
        host, port = exchange.address
        client = StompClient(host, port, login=f"gateway_{region}").connect()
        opened.append(client)
        return client

    yield connect
    for client in opened:
        client.disconnect()


@pytest.fixture
def hold(exchange):
    """``hold(client)``: park *client*'s connection thread inside an
    in-process ``/gate`` subscriber until the test ends (or ``release``)."""
    entered, release = threading.Event(), threading.Event()

    def gate(event):
        entered.set()
        release.wait(10)

    exchange.broker.subscribe("/gate", gate, principal="gatekeeper")

    def hold(client):
        client.send("/gate")
        assert entered.wait(5), "the gate subscriber never ran"
        return release

    yield hold
    release.set()


def test_receipt_follows_delivery_while_another_connection_is_held(
    exchange, observed, connect, hold
):
    blocked, publisher, consumer = (connect(region) for region in REGIONS)
    unacked = []
    consumer.subscribe(
        EXCHANGE_TOPIC, lambda event, message_id: unacked.append(message_id), ack="client"
    )
    hold(blocked)
    publisher.send(EXCHANGE_TOPIC, {"region": "region-2"}, labels=[AGGREGATE], receipt=True)
    # Read at once, with no wait: the RECEIPT came after the delivery.
    assert [event["region"] for event in observed] == ["region-2"]
    assert exchange.server.in_flight == 1
    assert wait_for(lambda: unacked)
    consumer.ack(unacked[0])
    assert wait_for(lambda: exchange.server.in_flight == 0)


def test_receipt_follows_an_audited_denial(exchange, connect, hold):
    """An event the consumer is not cleared for: its denial is on the
    audit log when the RECEIPT arrives."""
    blocked, publisher, consumer = (connect(region) for region in REGIONS)
    consumer.subscribe(EXCHANGE_TOPIC, lambda event: None)
    audit = default_audit_log()

    def denials():
        return audit.count(component="broker", operation="deliver", decision="denied")

    before = denials()
    hold(blocked)
    publisher.send(EXCHANGE_TOPIC, {"region": "region-2"}, labels=[mdt_label("1")], receipt=True)
    assert denials() == before + 1


def test_a_held_delivery_holds_up_only_its_own_connection(connect, hold):
    blocked, publisher, consumer = (connect(region) for region in REGIONS)
    received = []
    consumer.subscribe(EXCHANGE_TOPIC, received.append)
    hold(blocked)
    publisher.send(EXCHANGE_TOPIC, {"region": "region-2"}, labels=[AGGREGATE])
    assert wait_for(lambda: received), "a held connection stalled another one's delivery"


def test_a_held_connection_confirms_its_next_send_after_the_gate(observed, connect, hold):
    """Per connection, frames are handled in order: a SEND behind a held
    delivery is neither delivered nor confirmed until the hold ends."""
    blocked = connect("region-1")
    release = hold(blocked)
    confirmed = threading.Event()
    blocked.send(
        EXCHANGE_TOPIC,
        {"region": "region-1"},
        labels=[region_aggregate_label("region-1")],
        receipt=lambda ok: confirmed.set(),
    )
    assert not confirmed.wait(0.2)
    assert observed == []
    release.set()
    assert confirmed.wait(5)
    assert [event["region"] for event in observed] == ["region-1"]


def test_a_run_of_sends_is_delivered_in_order_before_its_receipt(observed, connect, hold):
    blocked, publisher = connect("region-1"), connect("region-2")
    hold(blocked)
    for index in range(5):
        publisher.send(EXCHANGE_TOPIC, {"n": str(index)}, labels=[AGGREGATE])
    publisher.send(EXCHANGE_TOPIC, {"n": "5"}, labels=[AGGREGATE], receipt=True)
    assert [event["n"] for event in observed] == [str(index) for index in range(6)]


def test_a_confirmed_bridge_publish_is_counted_in_flight(exchange, connect, hold):
    """The cluster's drain barrier reads ``in_flight`` after its publish
    links were receipt-confirmed: a confirmed run is already counted."""
    blocked, consumer = connect("region-1"), connect("region-3")
    unacked = []
    consumer.subscribe(
        EXCHANGE_TOPIC, lambda event, message_id: unacked.append(message_id), ack="client"
    )
    hold(blocked)
    host, port = exchange.address
    bridge = StompBrokerBridge(host, port, login="gateway_region-2").connect()
    try:
        bridge.publish_many(
            [Event(EXCHANGE_TOPIC, {"n": str(index)}, labels=[AGGREGATE]) for index in range(3)]
        )
        assert bridge.drain(5)
        assert exchange.server.in_flight == 3
        assert wait_for(lambda: len(unacked) == 3)
        for message_id in unacked:
            consumer.ack(message_id)
        assert wait_for(lambda: exchange.server.in_flight == 0)
    finally:
        bridge.close()
