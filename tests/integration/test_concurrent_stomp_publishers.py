"""Several STOMP connections publishing into one broker at once.

The broker delivers on each publishing connection's handler thread, so K
publishers deliver concurrently — into the same subscriber links, the
same ``ack: client`` bookkeeping and the same audit log. Each publisher
sends interleaved runs (frames queued back to back reach the broker as
one ``publish_many``; the last frame of a run is receipted). What must
hold: every subscriber receives every event it is cleared for exactly
once and in each publisher's order, the ``broker/deliver`` audit counts
are exact, no ``ack: client`` delivery stays in flight, and no
connection thread dies — over plaintext and over TLS.
"""

import random
import sys
import threading
import time

import pytest

from repro.core.audit import AuditLog
from repro.core.labels import conf_label
from repro.core.policy import parse_policy
from repro.core.privileges import PrivilegeSet
from repro.events import Broker
from repro.events.stomp import StompClient, StompServer

PATIENT_ROOT = conf_label("ecric.org.uk", "patient")
PATIENT = PATIENT_ROOT.child("1")

POLICY = parse_policy(
    """
    authority ecric.org.uk

    unit producer {
    }

    unit watcher {
        clearance label:conf:ecric.org.uk/patient
    }

    unit acker {
        clearance label:conf:ecric.org.uk/patient
    }

    unit outsider {
    }
    """
)

#: More publishing connections than a 2-core host has cores.
PUBLISHERS = 4
EVENTS = 150


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


@pytest.fixture
def short_switch_interval():
    """Preempt threads far more often than the 5 ms default, so a
    read-modify-write shared between connection threads would lose
    updates here rather than rarely."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture(params=["plain", "tls"])
def fabric(request):
    """A started server, and the client TLS context (None for plaintext)."""
    server_context = client_context = None
    if request.param == "tls":
        server_context, client_context = request.getfixturevalue("tls_contexts")
    audit = AuditLog()
    server = StompServer(
        Broker(audit=audit), policy=POLICY, audit=audit, tls_context=server_context
    )
    server.handler_errors = []
    server.handle_error = lambda request, address: server.handler_errors.append(address)
    server.start()
    yield server, client_context
    server.stop()


def plan(publisher):
    """*publisher*'s events as runs: ``[[(seq, labelled), ...], ...]``."""
    rng = random.Random(publisher)
    events = [(seq, rng.random() < 0.5) for seq in range(EVENTS)]
    runs = []
    while events:
        size = rng.randint(1, 6)
        runs.append(events[:size])
        events = events[size:]
    return runs


def by_publisher(received):
    """``{publisher: [seq, ...]}`` in arrival order."""
    order = {}
    for event in received:
        order.setdefault(event["publisher"], []).append(int(event["seq"]))
    return order


def test_concurrent_publishers_deliver_exactly_once_in_order(fabric, short_switch_interval):
    server, client_context = fabric
    host, port = server.address

    def client(login):
        return StompClient(host, port, login=login, tls_context=client_context).connect()

    watched, outsider_saw, acked, tapped = [], [], [], []
    watcher, outsider, acker = client("watcher"), client("outsider"), client("acker")
    watcher.subscribe("/feed", watched.append)
    outsider.subscribe("/feed", outsider_saw.append)

    def ack(event, message_id):
        acked.append(event)
        acker.ack(message_id)

    acker.subscribe("/feed", ack, ack="client")
    server.broker.subscribe(
        "/feed",
        tapped.append,
        principal="tap",
        clearance=PrivilegeSet({"clearance": [PATIENT_ROOT]}),
    )
    publishers = [client("producer") for _ in range(PUBLISHERS)]
    start = threading.Barrier(PUBLISHERS, timeout=30)
    errors = []

    def publish(index):
        try:
            start.wait()
            for run in plan(index):
                for position, (seq, labelled) in enumerate(run):
                    publishers[index].send(
                        "/feed",
                        {"publisher": str(index), "seq": str(seq)},
                        labels=[PATIENT] if labelled else [],
                        receipt=position == len(run) - 1,
                    )
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=publish, args=(index,)) for index in range(PUBLISHERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert not errors and not any(thread.is_alive() for thread in threads)

    everything = {
        str(index): [seq for run in plan(index) for seq, _ in run] for index in range(PUBLISHERS)
    }
    unlabelled = {
        str(index): [seq for run in plan(index) for seq, labelled in run if not labelled]
        for index in range(PUBLISHERS)
    }
    # Every last SEND was receipted, and a RECEIPT follows the delivery.
    assert by_publisher(tapped) == everything
    total = PUBLISHERS * EVENTS
    labelled = total - sum(len(seqs) for seqs in unlabelled.values())
    assert wait_for(
        lambda: (len(watched), len(acked), len(outsider_saw)) == (total, total, total - labelled)
    )
    assert by_publisher(watched) == everything
    assert by_publisher(acked) == everything
    assert by_publisher(outsider_saw) == unlabelled
    assert wait_for(lambda: server.in_flight == 0)

    audit = server.audit
    # Cleared: watcher, acker and the tap on every event, the outsider on
    # the unlabelled ones; the outsider is denied every labelled one.
    assert audit.count(component="broker", operation="deliver", decision="allowed") == (
        3 * total + (total - labelled)
    )
    assert audit.count(component="broker", operation="deliver", decision="denied") == labelled
    assert server.handler_errors == []
    for connection in publishers + [watcher, outsider, acker]:
        assert connection.connected and connection.errors == []
        connection.disconnect()
