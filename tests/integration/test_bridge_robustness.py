"""Robustness of the STOMP bridge's send loop (docs/ROBUSTNESS.md).

Seed regression: an ``OSError`` during a send used to kill the bridge's
sender thread (and the client listener that performs the actual socket
I/O) *silently* — every later publish queued forever and no event was
delivered again. The bridge now detects the failure on the sender
thread (sends are receipt-confirmed), audits it, and walks a
reconnect-with-backoff ladder that resubscribes and resends; after the
attempt budget the event is parked on ``dead_letters`` (audited) and
the loop keeps draining.
"""

import time

import pytest

from repro.core.audit import AuditLog
from repro.core.labels import LabelSet, conf_label
from repro.core.policy import parse_policy
from repro.events import Broker
from repro.events.cluster import ClusterRouter
from repro.events.event import Event
from repro.events.stomp import StompServer
from repro.events.stomp.bridge import StompBrokerBridge
from repro.faults import ChaosInjector

POLICY = parse_policy(
    """
    authority ecric.org.uk

    unit sender {
    }

    unit watcher {
        clearance label:conf:ecric.org.uk/mdt
    }
    """
)

MDT_1 = conf_label("ecric.org.uk", "mdt", "1")
MDT_2 = conf_label("ecric.org.uk", "mdt", "2")


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def decisions(audit: AuditLog):
    return [
        (record.component, record.operation, record.decision)
        for record in audit.records()
    ]


@pytest.fixture()
def server():
    broker = Broker(threaded=True)
    stomp = StompServer(broker, policy=POLICY).start()
    yield stomp
    stomp.stop()
    broker.stop()


def bridge_for(server, login, **kwargs) -> StompBrokerBridge:
    host, port = server.address
    return StompBrokerBridge(host, port, login=login, **kwargs).connect()


def break_link_mid_run(bridge: StompBrokerBridge, attempts: int) -> None:
    """The next *attempts* send attempts of *bridge* die on their second frame.

    Every retry runs on the fresh client the reconnect installed, so the
    frame count restarts with each attempt.
    """
    remaining = [attempts]

    def arm(client):
        real_send, frames = client.send, []

        def send(topic, **kwargs):
            frames.append(topic)
            if len(frames) == 2 and remaining[0] > 0:
                remaining[0] -= 1
                raise OSError("link died mid-run")
            return real_send(topic, **kwargs)

        client.send = send
        return client

    arm(bridge._client)
    new_client = bridge._new_client
    bridge._new_client = lambda: arm(new_client())


class TestSendLoopSurvivesSocketDeath:
    def test_socket_death_mid_stream_reconnects_and_delivers(self, server):
        """The seed-failing case: a socket error between two sends."""
        audit = AuditLog()
        sender = bridge_for(server, "sender", audit=audit, backoff_base=0.01)
        watcher = bridge_for(server, "watcher")
        seen = []
        watcher.subscribe("/t", seen.append, principal="watcher")
        try:
            sender.publish(Event("/t", {}, payload="one"))
            sender.drain()
            assert wait_for(lambda: [e.payload for e in seen] == ["one"])

            # Yank the socket out from under the established session.
            sender._client._sock.close()

            sender.publish(Event("/t", {}, payload="two"))
            sender.publish(Event("/t", {}, payload="three"))
            sender.drain(10)
            assert wait_for(
                lambda: [e.payload for e in seen] == ["one", "two", "three"], 10
            ), f"lost events; saw {[e.payload for e in seen]}"
            assert sender.stats.reconnects >= 1
            assert sender.stats.dead_lettered == 0
            assert sender.healthy
            audited = decisions(audit)
            assert ("bridge", "send", "denied") in audited
            assert ("bridge", "reconnect", "allowed") in audited
        finally:
            sender.close()
            watcher.close()

    def test_injected_flush_fault_recovers(self, server):
        """A socket error injected inside the client's frame flush: the
        listener dies, the receipt wait fails fast on the sender thread,
        and the reconnect ladder resends the event."""
        chaos = ChaosInjector()
        # Flush arrivals on the sender's clients: 1 = CONNECT, 2 = first
        # SEND, 3 = second SEND (faulted), 4 = reconnect CONNECT, ...
        chaos.fail_at("stomp.client.flush", on=3, error=OSError("injected"))
        audit = AuditLog()
        sender = bridge_for(server, "sender", audit=audit, chaos=chaos, backoff_base=0.01)
        watcher = bridge_for(server, "watcher")
        seen = []
        watcher.subscribe("/t", seen.append, principal="watcher")
        try:
            sender.publish(Event("/t", {}, payload="one"))
            sender.publish(Event("/t", {}, payload="two"))
            sender.drain(10)

            def payloads():
                return [event.payload for event in seen]

            assert wait_for(lambda: [p for p in payloads() if p != "one"] == ["two"], 10)
            # At-least-once: "one" was unconfirmed when the link died, so
            # it may be resent; order holds either way.
            assert payloads().count("one") in (1, 2)
            assert payloads()[-1] == "two"
            assert sender.stats.reconnects == 1
            assert chaos.arrivals("stomp.client.flush") >= 4
        finally:
            sender.close()
            watcher.close()


class TestDeadLetterParking:
    def test_exhausted_attempts_park_event_and_keep_draining(self, server):
        chaos = ChaosInjector()
        chaos.fail_at("bridge.send", on=(1, 2, 3))
        audit = AuditLog()
        sender = bridge_for(
            server,
            "sender",
            audit=audit,
            chaos=chaos,
            max_send_attempts=3,
            backoff_base=0.0,
        )
        watcher = bridge_for(server, "watcher")
        seen = []
        watcher.subscribe("/t", seen.append, principal="watcher")
        try:
            sender.publish(Event("/t", {}, payload="doomed"))
            sender.publish(Event("/t", {}, payload="fine"))
            sender.drain(10)
            # The first event burned all three attempts and parked; the
            # second sailed through on the same (still alive) loop.
            assert wait_for(lambda: [e.payload for e in seen] == ["fine"], 10)
            assert [e.payload for e in sender.dead_letters] == ["doomed"]
            assert sender.stats.dead_lettered == 1
            assert ("bridge", "dead_letter", "denied") in decisions(audit)
            assert sender.healthy
        finally:
            sender.close()
            watcher.close()

    def test_reconnect_disabled_parks_after_first_failure(self, server):
        chaos = ChaosInjector()
        chaos.fail_at("bridge.send", on=1)
        sender = bridge_for(server, "sender", chaos=chaos, reconnect=False)
        try:
            sender.publish(Event("/t", {}, payload="doomed"))
            sender.drain()
            assert wait_for(lambda: sender.stats.dead_lettered == 1)
            assert sender.stats.reconnects == 0
        finally:
            sender.close()


class TestRunsFailAsOneUnit:
    """``publish_many`` queues one run; the send ladder retries and parks
    it whole (a single ``publish`` is a run of one)."""

    RUN = [
        Event("/t", {}, payload="a", labels=[MDT_1]),
        Event("/t", {}, payload="b", labels=[MDT_2]),
        Event("/u", {}, payload="c"),
    ]

    def test_link_death_mid_run_resends_the_whole_run(self, server):
        audit = AuditLog()
        sender = bridge_for(server, "sender", audit=audit, backoff_base=0.0)
        watcher = bridge_for(server, "watcher")
        seen = []
        watcher.subscribe("/*", seen.append, principal="watcher")
        break_link_mid_run(sender, attempts=1)
        try:
            sender.publish_many(self.RUN)
            assert sender.drain(10)

            def payloads():
                return [event.payload for event in seen]

            assert wait_for(lambda: [p for p in payloads() if p != "a"] == ["b", "c"], 10)
            # At-least-once: the failed attempt's leading frame may have landed too.
            assert payloads().count("a") in (1, 2)
            assert (sender.stats.errors, sender.stats.reconnects) == (1, 1)
            assert sender.stats.dead_lettered == 0
            (failure,) = audit.denials(component="bridge")
            assert failure.operation == "send"
            assert failure.labels == LabelSet([MDT_1, MDT_2])
        finally:
            sender.close()
            watcher.close()

    def test_exhausted_run_parks_every_event_under_one_denial(self, server):
        audit = AuditLog()
        sender = bridge_for(
            server, "sender", audit=audit, max_send_attempts=3, backoff_base=0.0
        )
        watcher = bridge_for(server, "watcher")
        seen = []
        watcher.subscribe("/after", seen.append, principal="watcher")
        break_link_mid_run(sender, attempts=3)
        try:
            sender.publish_many(self.RUN)
            sender.publish(Event("/after", {}, payload="fine"))
            assert sender.drain(10)
            assert wait_for(lambda: [event.payload for event in seen] == ["fine"], 10)
            assert [event.payload for event in sender.dead_letters] == ["a", "b", "c"]
            assert sender.stats.dead_lettered == 3
            denials = audit.denials(component="bridge")
            assert [record.operation for record in denials] == ["send"] * 3 + ["dead_letter"]
            assert {record.labels for record in denials} == {LabelSet([MDT_1, MDT_2])}
        finally:
            sender.close()
            watcher.close()

    def test_single_publish_keeps_its_per_event_record(self, server):
        chaos = ChaosInjector()
        chaos.fail_at("bridge.send", on=(1, 2))
        audit = AuditLog()
        sender = bridge_for(
            server, "sender", audit=audit, chaos=chaos, max_send_attempts=2, backoff_base=0.0
        )
        try:
            sender.publish(Event("/t", {}, payload="doomed", labels=[MDT_1]))
            assert sender.drain(10)
            assert [event.payload for event in sender.dead_letters] == ["doomed"]
            denials = audit.denials(component="bridge")
            assert [(record.operation, record.principal) for record in denials] == [
                ("send", "sender"),
                ("send", "sender"),
                ("dead_letter", "sender"),
            ]
            assert {record.labels for record in denials} == {LabelSet([MDT_1])}
            assert denials[0].detail.startswith("send to /t failed (attempt 1)")
            assert denials[-1].detail == "event for /t parked after 2 attempt(s)"
        finally:
            sender.close()


class TestHealthProbes:
    def test_probe_reports_link_state(self, server):
        sender = bridge_for(server, "sender")
        try:
            report = sender.probe()
            assert report["connected"] and report["sender_alive"]
            assert report["reconnects"] == 0
        finally:
            sender.close()
        assert not sender.healthy
        assert sender.probe()["sender_alive"] is False

    def test_ensure_connected_resubscribes_after_socket_death(self, server):
        watcher = bridge_for(server, "watcher", backoff_base=0.01)
        sender = bridge_for(server, "sender")
        seen = []
        watcher.subscribe("/t", seen.append, principal="watcher")
        try:
            watcher._client._sock.close()
            assert wait_for(lambda: not watcher.healthy)
            assert watcher.ensure_connected()
            assert watcher.stats.reconnects == 1
            # The restored subscription still delivers.
            sender.publish(Event("/t", {}, payload="after"))
            sender.drain()
            assert wait_for(lambda: [e.payload for e in seen] == ["after"])
        finally:
            sender.close()
            watcher.close()

    def test_ensure_connected_on_closed_bridge_is_refused(self, server):
        sender = bridge_for(server, "sender")
        sender.close()
        assert sender.ensure_connected() is False


class TestCascadeConfirmation:
    """The cluster's at-least-once hop: a delivery is acknowledged only
    once the publishes its callback made are receipt-confirmed."""

    def test_unconfirmed_cascade_is_nacked_not_acked(self, server):
        """Seed-failing: ``drain`` used to swallow its own timeout, so a
        delivery whose cascade was still unsent got ACKed — and a crash
        right after would have lost the cascade for good."""
        chaos = ChaosInjector()
        chaos.delay_at("bridge.send", seconds=1.0, on=1)
        audit = AuditLog()
        router = ClusterRouter({"shard-0": server.address}, audit=audit, ack_timeout=0.2)
        host, port = server.address
        # The worker's publish link, armed to stall its first send.
        router._bridges[("pub", "watcher", "shard-0")] = StompBrokerBridge(
            host, port, login="watcher", audit=audit, chaos=chaos
        ).connect()
        try:
            router.subscribe(
                "/in",
                lambda event: router.publish(Event("/out", {}, "cascade"), publisher="watcher"),
                principal="watcher",
            )
            router.publish(Event("/in", {}, payload="trigger"), publisher="sender")
            assert wait_for(lambda: len(server.dead_letters) == 1)
            parked = server.dead_letters[0]
            assert (parked["principal"], parked["topic"]) == ("watcher", "/in")
            assert parked["reason"] == "consumer NACK"
            assert ("cluster", "cascade", "denied") in decisions(audit)
            # Settled either way: nothing stays registered in flight.
            assert wait_for(lambda: server.in_flight == 0)
        finally:
            router.close()

    def test_confirmed_cascade_is_acked(self, server):
        router = ClusterRouter({"shard-0": server.address}, audit=AuditLog(), ack_timeout=5.0)
        seen = []
        try:
            router.subscribe("/out", seen.append, principal="sender")
            router.subscribe(
                "/in",
                lambda event: router.publish(Event("/out", {}, "cascade"), publisher="watcher"),
                principal="watcher",
            )
            router.publish(Event("/in", {}, payload="trigger"), publisher="sender")
            assert wait_for(lambda: [event.payload for event in seen] == ["cascade"])
            assert wait_for(lambda: server.in_flight == 0)
            assert server.dead_letters == []
        finally:
            router.close()
