"""The cluster's control plane and ingress, against real child processes.

One shard and one worker are started once for the module. Pins what the
shared plumbing in ``repro.events.cluster`` must keep true: every child
runs the same control loop (an unknown op or a raising handler answers
``{"ok": False}`` and the child keeps serving), and the cluster's
``publish_batch`` takes exactly what the in-process engine's does.
"""

import pytest

from repro.core.audit import AuditLog
from repro.core.labels import conf_label
from repro.core.policy import parse_policy
from repro.events import Event, EventProcessingEngine, Unit
from repro.events.cluster import ClusterEngine
from repro.exceptions import SafeWebError

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


@pytest.mark.parametrize(
    "child, raising_request",
    [
        ("shard-0", {"op": "drain", "timeout": "soon"}),
        ("worker-0", {"op": "place", "factory": b"not a pickle"}),
    ],
)
def test_bad_requests_are_refused_and_the_child_keeps_serving(cluster, child, raising_request):
    handle = {**cluster._shards, **cluster._workers}[child]
    with pytest.raises(SafeWebError, match="unknown op 'reticulate'"):
        handle.call({"op": "reticulate"})
    with pytest.raises(SafeWebError, match=f"{child}: "):
        handle.call(raising_request)
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
