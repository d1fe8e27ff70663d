"""The cluster's control plane and ingress, against real child processes.

One shard and one worker are started once for the module. Pins what the
shared plumbing in ``repro.events.cluster`` must keep true: every child
runs the same control loop (an unknown op or a raising handler answers
``{"ok": False}`` and the child keeps serving), and the cluster's
``publish_batch`` takes exactly what the in-process engine's does. The
``drain`` handlers are pinned on child mains run on a thread of the test
process, where the test can reach into them.
"""

import multiprocessing
import threading

import pytest

from repro.core.audit import AuditLog
from repro.core.labels import conf_label
from repro.core.policy import Policy, parse_policy
from repro.events import Broker, Event, EventProcessingEngine, Unit
from repro.events.cluster import (
    ClusterEngine,
    ClusterRouter,
    _broker_shard_main,
    _worker_main,
    shard_policy_document,
)
from repro.events.stomp import StompClient, StompServer
from repro.exceptions import SafeWebError

pytestmark = pytest.mark.usefixtures("module_resource_ledger")

TAG = conf_label("ecric.org.uk", "tag", "1")

POLICY = parse_policy(
    """
    authority ecric.org.uk

    unit recorder {
        clearance label:conf:ecric.org.uk/tag
    }
    """
)


class Recorder(Unit):
    unit_name = "recorder"

    def setup(self):
        self.subscribe("/in", self.on_event)

    def on_event(self, event):
        self.store.set("seen", self.store.get("seen", []) + [[event.get("n", ""), event.payload]])


@pytest.fixture(scope="module")
def cluster():
    engine = ClusterEngine(POLICY, workers=1, shards=1, audit=AuditLog()).start()
    try:
        engine.place(Recorder, "recorder")
        yield engine
    finally:
        engine.stop()


@pytest.mark.parametrize("child", ["shard-0", "worker-0"])
def test_unknown_op_is_refused_and_the_child_keeps_serving(cluster, child):
    handle = {**cluster._shards, **cluster._workers}[child]
    with pytest.raises(SafeWebError, match="unknown op 'reticulate'"):
        handle.call({"op": "reticulate"})
    assert handle.call({"op": "ping"})["ok"] is True
    assert handle.process.is_alive()


def test_raising_handler_is_refused_and_the_child_keeps_serving(cluster):
    # Shards and workers run the same _serve_control loop; a worker has a
    # handler that raises on a bad request.
    handle = cluster._workers["worker-0"]
    with pytest.raises(SafeWebError, match="worker-0: "):
        handle.call({"op": "place", "factory": b"not a pickle"})
    assert handle.call({"op": "ping"})["ok"] is True
    assert handle.process.is_alive()


def test_publish_batch_accepts_what_the_in_process_engine_accepts(cluster):
    mixed = [
        Event("/in", {"n": "1"}, "one", [TAG]),
        {"topic": "/in", "attributes": {"n": "2"}, "payload": "two", "labels": [TAG.uri]},
        {"topic": "/in"},
    ]
    local_engine = EventProcessingEngine(policy=POLICY, audit=AuditLog())
    local_engine.register(Recorder())
    local = local_engine.publish_batch(mixed)
    remote = cluster.publish_batch(mixed)
    assert all(isinstance(event, Event) for event in remote)
    assert remote == local
    assert remote[0] is mixed[0]
    assert cluster.drain(30)
    store = local_engine.store_of("recorder")
    assert store.get("seen") == [["1", "one"], ["2", "two"], ["", None]]
    assert cluster.collect_stores()["recorder"]["seen"] == [
        store.get("seen"),
        store.labels_for("seen").to_uris(),
    ]


class _InProcessChild:
    """A child main run on a thread of the test process, over a real pipe."""

    def __init__(self, main, *args):
        self.conn, child_end = multiprocessing.Pipe()
        self.thread = threading.Thread(target=main, args=(child_end, *args), daemon=True)
        self.thread.start()
        self.hello = self.call(None)

    def call(self, message):
        if message is not None:
            self.conn.send(message)
        assert self.conn.poll(10), "the child did not answer"
        return self.conn.recv()

    def stop(self):
        assert self.call({"op": "stop"})["ok"] is True
        self.thread.join(10)
        assert not self.thread.is_alive()


def test_shard_drain_reads_state_and_counts_a_confirmed_send_in_flight():
    """A shard delivers a SEND before its RECEIPT, so the drain reply taken
    after a confirmed publish already counts the unacked delivery; the
    reply is state only, with no queue to wait for."""
    shard = _InProcessChild(
        _broker_shard_main, shard_policy_document(POLICY.document).to_json(), "shard-0", None
    )
    host, port = shard.hello["address"]
    consumer = StompClient(host, port, login="recorder").connect()
    publisher = StompClient(host, port, login="external").connect()
    try:
        unacked = []
        consumer.subscribe(
            "/in", lambda event, message_id: unacked.append(message_id), ack="client"
        )
        publisher.send("/in", {"n": "1"}, labels=[TAG], receipt=True)
        reply = shard.call({"op": "drain"})
        assert set(reply) == {"ok", "activity", "in_flight"}
        assert reply["in_flight"] == 1
    finally:
        consumer.disconnect()
        publisher.disconnect()
        shard.stop()


def test_worker_drain_flushes_its_links_once(monkeypatch):
    """The worker's engine drains through its router, so the drain handler
    asks the router once, with the request's timeout."""
    calls = []
    drain = ClusterRouter.drain

    def counted(router, timeout=5.0):
        calls.append(timeout)
        return drain(router, timeout)

    monkeypatch.setattr(ClusterRouter, "drain", counted)
    shard_policy = Policy(shard_policy_document(POLICY.document))
    server = StompServer(Broker(audit=AuditLog()), policy=shard_policy).start()
    worker = _InProcessChild(
        _worker_main, POLICY.document.to_json(), {"shard-0": server.address}, "worker-0", {}
    )
    try:
        reply = worker.call({"op": "drain", "timeout": 2.5})
        assert reply["ok"] is True and reply["idle"] is True
        assert calls == [2.5]
    finally:
        worker.stop()
        server.stop()
