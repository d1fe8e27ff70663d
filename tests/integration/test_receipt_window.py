"""The publish link's receipt window and the cluster's per-delivery ACK.

A :class:`StompBrokerBridge` keeps up to ``SEND_WINDOW`` runs on the
wire unconfirmed instead of stopping for every RECEIPT, and a
:class:`ClusterRouter` delivery is ACKed from the receipts of exactly the
links its callback published on — while its listener moves on. The
server here can hold back the RECEIPTs of chosen logins, which makes
"sent but unconfirmed" a state a test can sit in.
"""

import socket
import threading
import time

import pytest

from repro.core.audit import AuditLog
from repro.core.policy import parse_policy
from repro.events import Broker
from repro.events.cluster import ClusterRouter
from repro.events.event import Event
from repro.events.stomp import StompServer
from repro.events.stomp.bridge import SEND_WINDOW, StompBrokerBridge
from repro.events.stomp import server as stomp_server
from repro.events.stomp.server import _Connection
from repro.exceptions import StompProtocolError
from repro.faults import ChaosInjector

POLICY = parse_policy(
    """
    authority ecric.org.uk

    unit producer {
    }

    unit a {
    }

    unit b {
    }
    """
)


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class HeldReceipts:
    """Holds back the RECEIPTs the server owes SENDs from :attr:`logins`."""

    def __init__(self, monkeypatch):
        self.logins = set()
        self._held = []
        self._connections = {}
        self._lock = threading.Lock()
        self._original = _Connection._maybe_receipt
        monkeypatch.setattr(
            _Connection, "_maybe_receipt", lambda connection, frame: self._hold(connection, frame)
        )

    def _hold(self, connection, frame):
        with self._lock:
            known = self._connections.setdefault(connection.principal, [])
            if connection not in known:
                known.append(connection)
            if frame.command == "SEND" and connection.principal in self.logins:
                self._held.append((connection, frame))
                return
        self._original(connection, frame)

    def release(self):
        """Stop holding back and send every RECEIPT held so far."""
        with self._lock:
            self.logins.clear()
            held, self._held = self._held, []
        for connection, frame in held:
            self._original(connection, frame)

    def unacked(self, principal):
        """``ack: client`` deliveries to *principal* not yet settled."""
        with self._lock:
            return sum(len(c.unacked) for c in self._connections.get(principal, []))


@pytest.fixture()
def server():
    broker = Broker(threaded=True)
    stomp = StompServer(broker, policy=POLICY).start()
    yield stomp
    stomp.stop()
    broker.stop()


@pytest.fixture()
def receipts(monkeypatch):
    held = HeldReceipts(monkeypatch)
    yield held
    held.release()


def bridge_for(server, login, **kwargs) -> StompBrokerBridge:
    host, port = server.address
    return StompBrokerBridge(host, port, login=login, **kwargs).connect()


class TestWindow:
    def test_sender_stops_at_the_bound(self, server, receipts):
        receipts.logins.add("producer")
        sender = bridge_for(server, "producer")
        try:
            for index in range(SEND_WINDOW + 5):
                sender.publish(Event("/t", {}, payload=str(index)))
            assert wait_for(lambda: sender.probe()["unconfirmed"] == SEND_WINDOW)
            time.sleep(0.1)
            report = sender.probe()
            assert report["unconfirmed"] == SEND_WINDOW
            # The rest waits in the queue (one in the sender's hand).
            assert report["outgoing_depth"] >= 4
            assert not sender.drain(0.1)
            receipts.release()
            assert sender.drain(5)
            assert sender.probe()["unconfirmed"] == 0
            assert sender.stats.errors == 0
        finally:
            sender.close()

    def test_link_death_resends_every_unconfirmed_run_in_order(self, server, receipts):
        receipts.logins.add("producer")
        audit = AuditLog()
        sender = bridge_for(server, "producer", audit=audit, backoff_base=0.0)
        watcher = bridge_for(server, "a")
        seen = []
        watcher.subscribe("/t", seen.append, principal="a")
        try:
            sent = [str(index) for index in range(3)]
            for payload in sent:
                sender.publish(Event("/t", {}, payload=payload))
            assert wait_for(lambda: sender.probe()["unconfirmed"] == 3)
            receipts.logins.clear()  # the next session is confirmed normally
            sender._client._sock.shutdown(socket.SHUT_RDWR)
            assert sender.drain(10)
            # The dead session delivered all three; the window resent them.
            assert wait_for(lambda: [event.payload for event in seen] == sent + sent)
            assert (sender.stats.errors, sender.stats.reconnects) == (1, 1)
            assert sender.stats.dead_lettered == 0
            assert sender.probe()["unconfirmed"] == 0
        finally:
            sender.close()
            watcher.close()

    def test_refused_frame_in_a_later_run_fails_the_whole_window(self, server, monkeypatch):
        """The server answers a refused SEND (ERROR, then its RECEIPT) ahead of
        the RECEIPTs of earlier frames, so an ERROR must fail every unconfirmed
        run — not just the oldest, leaving the refused one confirmed."""
        convert, receipt = stomp_server.frame_to_event, _Connection._maybe_receipt
        withheld = []

        def refusing(frame):
            if frame.body == "bad":
                raise StompProtocolError("refused")
            return convert(frame)

        def first_receipt_lost(connection, frame):
            if frame.body == "a" and not withheld:
                withheld.append(frame)  # run 1 stays unconfirmed past the ERROR
            else:
                receipt(connection, frame)

        monkeypatch.setattr(stomp_server, "frame_to_event", refusing)
        monkeypatch.setattr(_Connection, "_maybe_receipt", first_receipt_lost)
        sender = bridge_for(server, "producer", max_send_attempts=2, backoff_base=0.0)
        try:
            sender.publish(Event("/t", {}, payload="a"))
            sender.publish_many([Event("/t", {}, payload="b"), Event("/t", {}, payload="bad")])
            assert sender.drain(10)
            assert "bad" in [event.payload for event in sender.dead_letters]
            assert sender.stats.errors == 2
        finally:
            sender.close()

    def test_router_is_not_idle_while_runs_are_unconfirmed(self, server, receipts):
        receipts.logins.add("producer")
        router = ClusterRouter({"shard-0": server.address}, audit=AuditLog())
        try:
            router.publish(Event("/t", {}, payload="x"), publisher="producer")
            link = router._bridges[("pub", "producer", "shard-0")]
            assert wait_for(lambda: link.probe()["unconfirmed"] == 1)
            assert link.probe()["outgoing_depth"] == 0
            assert not router.queues_empty()
            receipts.release()
            assert wait_for(router.queues_empty)
        finally:
            router.close()


def cascading(router, unit, ran):
    def callback(event):
        ran.append(event.payload)
        router.publish(Event(f"/{unit}-out", {}, payload=event.payload), publisher=unit)

    return callback


class TestDeliveryAck:
    def test_listener_moves_on_and_acks_after_the_receipt(self, server, receipts):
        receipts.logins.add("b")
        router = ClusterRouter({"shard-0": server.address}, audit=AuditLog(), ack_timeout=5.0)
        ran = []
        try:
            router.subscribe("/in", cascading(router, "b", ran), principal="b")
            router.publish(Event("/in", {}, payload="1"), publisher="producer")
            router.publish(Event("/in", {}, payload="2"), publisher="producer")
            # The second delivery ran while the first's cascade was unconfirmed.
            assert wait_for(lambda: ran == ["1", "2"])
            time.sleep(0.1)
            assert receipts.unacked("b") == 2
            receipts.release()
            assert wait_for(lambda: receipts.unacked("b") == 0)
            assert wait_for(lambda: server.in_flight == 0)
            assert server.dead_letters == []
        finally:
            router.close()

    def test_stalled_link_holds_only_its_own_deliveries(self, server, receipts):
        receipts.logins.add("b")
        router = ClusterRouter({"shard-0": server.address}, audit=AuditLog(), ack_timeout=5.0)
        ran_a, ran_b = [], []
        try:
            router.subscribe("/in", cascading(router, "a", ran_a), principal="a")
            router.subscribe("/in", cascading(router, "b", ran_b), principal="b")
            router.publish(Event("/in", {}, payload="x"), publisher="producer")
            assert wait_for(lambda: ran_a == ["x"] and ran_b == ["x"])
            assert wait_for(lambda: receipts.unacked("a") == 0)
            assert receipts.unacked("b") == 1
            receipts.release()
            assert wait_for(lambda: server.in_flight == 0)
            assert server.dead_letters == []
        finally:
            router.close()

    def test_parked_cascade_dead_letters_its_input(self, server):
        """Regression: a delivery whose cascade the worker's link parked
        was ACKed, leaving the only copy in that process's memory."""
        chaos = ChaosInjector()
        chaos.fail_at("bridge.send", on=(1, 2, 3))
        audit = AuditLog()
        router = ClusterRouter({"shard-0": server.address}, audit=audit, ack_timeout=10.0)
        host, port = server.address
        link = StompBrokerBridge(
            host, port, login="b", audit=audit, chaos=chaos, max_send_attempts=3, backoff_base=0.0
        ).connect()
        router._bridges[("pub", "b", "shard-0")] = link
        ran = []
        try:
            router.subscribe("/in", cascading(router, "b", ran), principal="b")
            router.publish(Event("/in", {}, payload="trigger"), publisher="producer")
            assert wait_for(lambda: len(server.dead_letters) == 1)
            parked = server.dead_letters[0]
            assert (parked["principal"], parked["topic"]) == ("b", "/in")
            assert parked["reason"] == "consumer NACK"
            assert [event.topic for event in link.dead_letters] == ["/b-out"]
            denials = [(r.component, r.operation) for r in audit.denials(component="cluster")]
            assert denials == [("cluster", "cascade")]
            assert wait_for(lambda: server.in_flight == 0)
        finally:
            router.close()

    def test_parked_run_on_a_second_link_dead_letters_its_input(self, server, receipts):
        """Regression: a cascade over two shards whose second link parked its
        run was ACKed — the confirmation did not follow the delivery's runs."""
        other_broker = Broker(threaded=True)
        other = StompServer(other_broker, policy=POLICY).start()
        audit = AuditLog()
        router = ClusterRouter(
            {"shard-0": server.address, "shard-1": other.address}, audit=audit, ack_timeout=10.0
        )
        servers = {"shard-0": server, "shard-1": other}
        try:
            by_shard = {}
            for index in range(64):
                by_shard.setdefault(router._ring.node_for(f"/out-{index}"), f"/out-{index}")
            parked_shard = "shard-1"
            chaos = ChaosInjector()
            chaos.fail_at("bridge.send", on=(1, 2, 3))
            host, port = servers[parked_shard].address
            link = StompBrokerBridge(
                host, port, login="b", audit=audit, chaos=chaos, max_send_attempts=3
            )
            router._bridges[("pub", "b", parked_shard)] = link.connect()

            def callback(event):
                # The parked link first: the ACK chain reaches it second.
                router.publish(Event(by_shard["shard-1"], {}, payload="p"), publisher="b")
                router.publish(Event(by_shard["shard-0"], {}, payload="h"), publisher="b")

            receipts.logins.add("b")  # the healthy link confirms after the park
            router.subscribe("/in", callback, principal="b")
            router.publish(Event("/in", {}, payload="trigger"), publisher="producer")
            assert wait_for(lambda: len(link.dead_letters) == 1)
            receipts.release()
            owner = servers[router._ring.node_for("/in")]
            assert wait_for(lambda: len(owner.dead_letters) == 1)
            parked = owner.dead_letters[0]
            assert (parked["principal"], parked["topic"]) == ("b", "/in")
            assert parked["reason"] == "consumer NACK"
            denials = [(r.component, r.operation) for r in audit.denials(component="cluster")]
            assert denials == [("cluster", "cascade")]
        finally:
            router.close()
            other.stop()
            other_broker.stop()
