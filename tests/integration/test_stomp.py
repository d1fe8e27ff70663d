"""Integration tests: STOMP clients against the server over real sockets."""

import contextlib
import socket
import statistics
import threading
import time

import pytest

from repro.core.labels import LabelSet, conf_label
from repro.core.policy import parse_policy
from repro.events import Broker
from repro.events.event import Event
from repro.events.jail import Jail
from repro.events.stomp import Frame, FrameParser, StompClient, StompServer, encode_frame
from repro.events.stomp import server as server_module
from repro.events.stomp.link import FrameLink
from repro.exceptions import SafeWebError

PATIENT = conf_label("ecric.org.uk", "patient", "1")
MDT = conf_label("ecric.org.uk", "mdt", "1")

POLICY = parse_policy(
    """
    authority ecric.org.uk

    unit data_producer {
        privileged
    }

    unit data_aggregator {
        clearance label:conf:ecric.org.uk/patient
        clearance label:conf:ecric.org.uk/mdt
    }

    user mdt1 {
        password secret1
        clearance label:conf:ecric.org.uk/mdt/1
    }
    """
)


@pytest.fixture()
def server():
    broker = Broker(threaded=True)
    stomp = StompServer(broker, policy=POLICY).start()
    yield stomp
    stomp.stop()
    broker.stop()


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def connect(server, login="data_aggregator", passcode=""):
    host, port = server.address
    return StompClient(host, port, login=login, passcode=passcode).connect()


class TestConnection:
    def test_connect_known_unit(self, server):
        client = connect(server)
        assert client.connected
        client.disconnect()

    def test_connect_user_with_password(self, server):
        client = connect(server, login="mdt1", passcode="secret1")
        assert client.connected
        client.disconnect()

    def test_connect_user_bad_password(self, server):
        with pytest.raises(SafeWebError):
            connect(server, login="mdt1", passcode="wrong")

    def test_connect_unknown_principal(self, server):
        with pytest.raises(SafeWebError):
            connect(server, login="mallory")


def _raw_frame(command, headers, body=""):
    head = "".join(f"{name}:{value}\n" for name, value in headers.items())
    return (f"{command}\n{head}\n{body}\x00").encode()


class TestBatchedSends:
    """Several SEND frames in one TCP segment publish as one batch."""

    def test_batched_sends_all_delivered_in_order(self, server):
        import socket

        subscriber = connect(server)
        received = []
        subscriber.subscribe("/reports", received.append)
        sock = socket.create_connection(server.address, timeout=5)
        try:
            sock.sendall(_raw_frame("CONNECT", {"login": "data_producer"}))
            assert sock.recv(4096).startswith(b"CONNECTED")
            sock.sendall(
                b"".join(
                    _raw_frame("SEND", {"destination": "/reports", "n": str(i)})
                    for i in range(10)
                )
            )
            assert wait_for(lambda: len(received) == 10)
            assert [event["n"] for event in received] == [str(i) for i in range(10)]
        finally:
            sock.close()
            subscriber.disconnect()

    def test_invalid_frame_does_not_drop_earlier_batched_sends(self, server):
        # A malformed label URI raises outside the per-frame protocol
        # errors; events converted before it must still publish, as they
        # did under per-frame dispatch.
        import socket

        subscriber = connect(server)
        received = []
        subscriber.subscribe("/reports", received.append)
        sock = socket.create_connection(server.address, timeout=5)
        try:
            sock.sendall(_raw_frame("CONNECT", {"login": "data_producer"}))
            assert sock.recv(4096).startswith(b"CONNECTED")
            sock.sendall(
                _raw_frame("SEND", {"destination": "/reports", "n": "ok"})
                + _raw_frame(
                    "SEND",
                    {"destination": "/reports", "x-safeweb-labels": "not-a-label-uri"},
                )
            )
            assert wait_for(lambda: len(received) == 1)
            assert received[0]["n"] == "ok"
        finally:
            sock.close()
            subscriber.disconnect()


class TestPubSub:
    def test_publish_subscribe_round_trip(self, server):
        publisher = connect(server, login="data_producer")
        subscriber = connect(server)
        received = []
        subscriber.subscribe("/patient_report", received.append)
        publisher.send(
            "/patient_report",
            {"type": "cancer", "patient_id": "p1"},
            payload="details",
            labels=[PATIENT],
            receipt=True,
        )
        assert wait_for(lambda: len(received) == 1)
        event = received[0]
        assert event.topic == "/patient_report"
        assert event["type"] == "cancer"
        assert event.payload == "details"
        assert event.labels == LabelSet([PATIENT])
        publisher.disconnect()
        subscriber.disconnect()

    def test_binary_payload_round_trips_byte_exact(self, server):
        """Seed-failing: non-UTF-8 bytes must survive the whole fabric."""
        blob = b"\x00\xff\xfe binary \x80\x00 tail"
        publisher = connect(server, login="data_producer")
        subscriber = connect(server)
        received = []
        subscriber.subscribe("/patient_report", received.append)
        publisher.send("/patient_report", payload=blob, receipt=True)
        assert wait_for(lambda: len(received) == 1)
        payload = received[0].payload
        assert payload.encode("utf-8", "surrogateescape") == blob
        publisher.disconnect()
        subscriber.disconnect()

    def test_selector_filtering_over_the_wire(self, server):
        publisher = connect(server, login="data_producer")
        subscriber = connect(server)
        received = []
        subscriber.subscribe("/reports", received.append, selector="type = 'cancer'")
        publisher.send("/reports", {"type": "benign"}, receipt=True)
        publisher.send("/reports", {"type": "cancer"}, receipt=True)
        assert wait_for(lambda: len(received) == 1)
        time.sleep(0.05)
        assert len(received) == 1
        assert received[0]["type"] == "cancer"
        publisher.disconnect()
        subscriber.disconnect()

    def test_label_filtering_over_the_wire(self, server):
        """§4.2: server-side clearance comes from the policy, not the client."""
        publisher = connect(server, login="data_producer")
        mdt_user = connect(server, login="mdt1", passcode="secret1")
        cleared = connect(server, login="data_aggregator")
        mdt_received, cleared_received = [], []
        mdt_user.subscribe("/reports", mdt_received.append)
        cleared.subscribe("/reports", cleared_received.append)

        publisher.send("/reports", {"n": "1"}, labels=[PATIENT], receipt=True)
        publisher.send("/reports", {"n": "2"}, labels=[MDT], receipt=True)
        publisher.send("/reports", {"n": "3"}, receipt=True)

        assert wait_for(lambda: len(cleared_received) == 3)
        assert wait_for(lambda: len(mdt_received) == 2)
        time.sleep(0.05)
        # mdt1 is cleared for its own MDT label and unlabelled data only.
        assert sorted(e["n"] for e in mdt_received) == ["2", "3"]
        for client in (publisher, mdt_user, cleared):
            client.disconnect()

    def test_unsubscribe_stops_delivery(self, server):
        publisher = connect(server, login="data_producer")
        subscriber = connect(server)
        received = []
        sub_id = subscriber.subscribe("/t", received.append)
        publisher.send("/t", {"n": "1"}, receipt=True)
        assert wait_for(lambda: len(received) == 1)
        subscriber.unsubscribe(sub_id)
        publisher.send("/t", {"n": "2"}, receipt=True)
        time.sleep(0.1)
        assert len(received) == 1
        publisher.disconnect()
        subscriber.disconnect()

    def test_stale_ack_is_a_no_op_not_an_error(self, server):
        """A duplicate/stale ACK is legal under at-least-once (a worker
        may ack after its old connection's entries were dead-lettered).
        It must not produce an out-of-band ERROR frame: the client's
        next receipt wait would pop it and fail an unrelated, perfectly
        successful operation."""
        consumer = connect(server)
        producer = connect(server, login="data_producer")
        deliveries = []
        consumer.subscribe(
            "/patient_report",
            lambda event, message_id="": deliveries.append(message_id),
            ack="client",
        )
        producer.send("/patient_report", payload="one", receipt=True)
        assert wait_for(lambda: len(deliveries) == 1)
        consumer.ack(deliveries[0])
        consumer.ack(deliveries[0])  # stale: already acked above
        consumer.ack("no-such-delivery")  # never existed
        # The next receipt-confirmed operation on this connection must
        # succeed — before the fix it raised with the queued ERROR.
        consumer.send("/patient_report", payload="two", receipt=True)
        assert wait_for(lambda: len(deliveries) == 2)
        consumer.ack(deliveries[1])
        assert consumer.connected
        producer.disconnect()
        consumer.disconnect()

    def test_bad_selector_reports_error(self, server):
        subscriber = connect(server)
        with pytest.raises(SafeWebError):
            subscriber.subscribe("/t", lambda e: None, selector="type = = 'x'")
        subscriber.disconnect()

    def test_reserved_attribute_rejected_client_side(self, server):
        publisher = connect(server, login="data_producer")
        from repro.exceptions import StompProtocolError

        with pytest.raises(StompProtocolError):
            publisher.send("/t", {"destination": "/evil"})
        publisher.disconnect()

    def test_concurrent_publishers(self, server):
        subscriber = connect(server)
        received = []
        subscriber.subscribe("/t", received.append)
        publishers = [connect(server, login="data_producer") for _ in range(4)]

        def blast(client):
            for index in range(25):
                client.send("/t", {"n": str(index)})

        threads = [threading.Thread(target=blast, args=(p,)) for p in publishers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert wait_for(lambda: len(received) == 100)
        for publisher in publishers:
            publisher.disconnect()
        subscriber.disconnect()

    def test_disconnect_cleans_up_subscriptions(self, server):
        subscriber = connect(server)
        subscriber.subscribe("/t", lambda e: None)
        assert wait_for(lambda: len(server.broker) == 1)
        subscriber.disconnect()
        assert wait_for(lambda: len(server.broker) == 0)


class _Fabric:
    """Broker + STOMP server over one transport, and the links it made."""

    def __init__(self, server, client_context, links):
        self.server = server
        self.broker = server.broker
        self.client_context = client_context
        #: Server-side links, in accept order.
        self.links = links
        self._clients = []

    def connect(self, login="data_aggregator"):
        host, port = self.server.address
        client = StompClient(
            host, port, login=login, tls_context=self.client_context
        ).connect()
        self._clients.append(client)
        return client

    def close(self):
        for client in self._clients:
            client.disconnect()
        self.server.stop()
        self.broker.stop()


@pytest.fixture(params=["plain", "tls"])
def fabric(request, monkeypatch):
    """The same server and clients over plaintext and over TLS."""
    server_context = client_context = None
    if request.param == "tls":
        server_context, client_context = request.getfixturevalue("tls_contexts")
    links = []

    class RecordedLink(FrameLink):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            links.append(self)

    monkeypatch.setattr(server_module, "FrameLink", RecordedLink)
    server = StompServer(
        Broker(threaded=True), policy=POLICY, tls_context=server_context
    ).start()
    fabric = _Fabric(server, client_context, links)
    yield fabric
    fabric.close()


class TestWakeOnWrite:
    """A frame queued from another thread leaves at once; an idle link
    sleeps. The bounds are loose multiples of the loopback cost (≈ 0.1 ms)
    and far below the 10 ms a receive-timeout poll used to add."""

    ROUNDS = 200

    def test_cross_thread_send_receipt_round_trip(self, fabric):
        publisher = fabric.connect(login="data_producer")
        elapsed = []
        for _ in range(self.ROUNDS):
            started = time.perf_counter()
            publisher.send("/t", {"n": "1"}, receipt=True)
            elapsed.append(time.perf_counter() - started)
        assert statistics.median(elapsed) < 0.002

    def test_broker_thread_publish_reaches_the_callback(self, fabric):
        subscriber = fabric.connect()
        arrived = threading.Event()
        subscriber.subscribe("/t", lambda event: arrived.set())
        elapsed = []
        for _ in range(self.ROUNDS):
            arrived.clear()
            started = time.perf_counter()
            fabric.broker.publish(Event("/t", {}, "payload"), publisher="data_producer")
            assert arrived.wait(5)
            elapsed.append(time.perf_counter() - started)
        assert statistics.median(elapsed) < 0.002

    def test_idle_link_makes_no_wakeups(self, fabric):
        client = fabric.connect()
        client.subscribe("/t", lambda event: None)
        assert wait_for(lambda: len(fabric.links) == 1)
        time.sleep(0.1)  # let the handshake's last frames settle
        before = (client._link.wakeups, fabric.links[0].wakeups)
        time.sleep(0.5)
        assert (client._link.wakeups, fabric.links[0].wakeups) == before
        # ...and it is still live: one frame each way wakes each end.
        client.send("/t", receipt=True)
        assert client._link.wakeups > before[0]
        assert fabric.links[0].wakeups > before[1]

    def test_burst_written_at_once_is_delivered_without_further_traffic(self, fabric):
        """Many frames in one write (over TLS: in as few records as they
        fit) are all dispatched though nothing else ever arrives to wake
        the reader again."""
        subscriber = fabric.connect()
        received = []
        subscriber.subscribe("/reports", received.append)
        raw = socket.create_connection(fabric.server.address, timeout=5)
        if fabric.client_context is not None:
            raw = fabric.client_context.wrap_socket(raw)
        try:
            raw.sendall(_raw_frame("CONNECT", {"login": "data_producer"}))
            assert raw.recv(4096).startswith(b"CONNECTED")
            raw.sendall(
                b"".join(
                    _raw_frame("SEND", {"destination": "/reports", "n": str(i)}, "x" * 700)
                    for i in range(60)
                )
            )
            assert wait_for(lambda: len(received) == 60)
            assert [event["n"] for event in received] == [str(i) for i in range(60)]
        finally:
            raw.close()

    def test_queueing_a_frame_inside_the_jail_creates_no_socket(self, fabric):
        """The wake channel exists before any callback runs: the jail
        denies ``socket.*`` audit events, and a send must raise none."""
        subscriber = fabric.connect()
        received = []
        subscriber.subscribe("/t", received.append)
        publisher = fabric.connect(login="data_producer")
        with Jail().contained():
            publisher.send("/t", {"n": "jailed"})
            publisher.ack("no-such-delivery")
        assert wait_for(lambda: [event["n"] for event in received] == ["jailed"])


@contextlib.contextmanager
def scripted_broker(respond):
    """A raw TCP peer answering each client frame as *respond* scripts.

    ``respond(frame, reply)`` may call ``reply(Frame)`` any number of
    times; returning ``False`` closes the connection.
    """
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        connection, _address = listener.accept()
        parser = FrameParser()
        with connection:
            while True:
                data = connection.recv(65536)
                if not data:
                    return
                for frame in parser.feed(data):
                    if frame.command == "CONNECT":
                        connection.sendall(encode_frame(Frame("CONNECTED", {"version": "1.1"})))
                    elif (
                        respond(frame, lambda reply: connection.sendall(encode_frame(reply)))
                        is False
                    ):
                        return

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        listener.close()
        thread.join(5)
        assert not thread.is_alive()


class TestControlExchange:
    def test_late_receipt_does_not_satisfy_a_later_exchange(self):
        """Seed-failing: the RECEIPT of a send that already timed out
        used to be taken for the next call's confirmation."""
        sends = []

        def respond(frame, reply):
            if frame.command == "SEND":
                sends.append(frame)
                if len(sends) == 1:
                    time.sleep(0.4)  # past the client's timeout
                reply(Frame("RECEIPT", {"receipt-id": frame.header("receipt")}))
            # SUBSCRIBE is never answered.

        with scripted_broker(respond) as (host, port):
            client = StompClient(host, port, timeout=0.2).connect()
            with pytest.raises(SafeWebError, match="timed out"):
                client.send("/t", receipt=True)
            time.sleep(0.4)  # the late RECEIPT is queued by now
            client.send("/t", receipt=True)  # skips it, takes its own
            with pytest.raises(SafeWebError, match="timed out"):
                client.subscribe("/t", lambda event: None)
            client.disconnect()

    def test_unexpected_command_raises(self):
        def respond(frame, reply):
            if frame.command == "SEND":
                reply(Frame("CONNECTED", {"version": "1.1"}))

        with scripted_broker(respond) as (host, port):
            client = StompClient(host, port, timeout=2.0).connect()
            with pytest.raises(SafeWebError, match="expected RECEIPT"):
                client.send("/t", receipt=True)
            client.disconnect()

    def test_connection_loss_fails_a_blocked_waiter_fast(self):
        def respond(frame, reply):
            return frame.command != "SEND"  # hang up instead of confirming

        with scripted_broker(respond) as (host, port):
            client = StompClient(host, port, timeout=10.0).connect()
            started = time.monotonic()
            with pytest.raises(SafeWebError, match="connection lost"):
                client.send("/t", receipt=True)
            assert time.monotonic() - started < 2.0
            assert not client.connected
            client.disconnect()
