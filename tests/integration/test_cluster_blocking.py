"""Integration: a unit that blocks belongs on the cluster.

The in-process engine runs each delivery on the thread that delivers
it, so a unit stalled on I/O holds that thread — and every delivery
queued behind it — for as long as it stalls. The cluster is where such
a unit goes (docs/ENGINE.md, docs/CLUSTER.md): a worker receives each
unit's deliveries over that unit's own STOMP link, so a stalled unit
holds only its own link while units beside it on the same worker keep
flowing, and the cluster's drain keeps counting the stalled delivery
until it is done.
"""

import threading
import time

import pytest

from repro.core.audit import AuditLog
from repro.core.policy import parse_policy
from repro.events import Unit
from repro.events.cluster import ClusterEngine
from repro.exceptions import SafeWebError

pytestmark = pytest.mark.usefixtures("module_resource_ledger")

POLICY = parse_policy(
    """
    authority ecric.org.uk

    unit recorder {
        clearance label:conf:ecric.org.uk/tag
    }

    unit watcher {
        clearance label:conf:ecric.org.uk/tag
    }

    unit staller {
        privileged
    }
    """
)


class Recorder(Unit):
    unit_name = "recorder"

    def setup(self):
        self.subscribe("/in", self.on_event)

    def on_event(self, event):
        self.publish("/out", payload=event.payload)


class Staller(Unit):
    """Stands in for an exporter stuck on a slow remote: it announces
    the stall, then holds its delivery for ``seconds``."""

    unit_name = "staller"

    def setup(self):
        self.subscribe("/stall", self.on_event)

    def on_event(self, event):
        self.publish("/stalling", payload=event.payload)
        time.sleep(float(event["seconds"]))


@pytest.fixture(scope="module")
def cluster():
    engine = ClusterEngine(POLICY, workers=1, shards=1, audit=AuditLog()).start()
    try:
        engine.place(Recorder, "recorder")
        engine.place(Staller, "staller")
        yield engine
    finally:
        engine.stop()


@pytest.fixture
def taps(cluster):
    """``/stalling`` and ``/out`` arrivals, as threading events."""
    seen = {"/stalling": threading.Event(), "/out": threading.Event()}
    subscriptions = [
        cluster.subscribe(topic, lambda event, flag=flag: flag.set(), principal="watcher")
        for topic, flag in seen.items()
    ]
    yield seen
    for subscription in subscriptions:
        cluster.router.unsubscribe(subscription.subscription_id)


def test_a_stalled_unit_does_not_hold_its_neighbour(cluster, taps):
    stall = 4.0
    cluster.publish("/stall", {"seconds": str(stall)}, payload="s1")
    assert taps["/stalling"].wait(10), "the staller never started"
    started = time.monotonic()
    cluster.publish("/in", payload="r1")
    assert taps["/out"].wait(stall / 2), "the recorder waited behind the staller"
    assert time.monotonic() - started < stall / 2
    assert cluster.drain(30)


def test_drain_waits_out_a_stalled_delivery(cluster, taps):
    stall = 1.5
    cluster.publish("/stall", {"seconds": str(stall)}, payload="s2")
    assert taps["/stalling"].wait(10), "the staller never started"
    started = time.monotonic()
    assert cluster.drain(0.2) is False
    assert cluster.drain(30)
    assert time.monotonic() - started >= stall / 2


def test_cluster_needs_at_least_one_worker():
    with pytest.raises(SafeWebError, match="at least one worker"):
        ClusterEngine(POLICY, workers=0)


def test_a_stalled_unit_takes_its_own_events_one_at_a_time(cluster):
    """The link a unit stalls is its own: the unit's next event waits
    behind the stalled one, so a unit never races its own store."""
    arrivals = []
    done = threading.Event()

    def note(event):
        arrivals.append((event.payload, time.monotonic()))
        if len(arrivals) == 2:
            done.set()

    subscription = cluster.subscribe("/stalling", note, principal="watcher")
    try:
        stall = 1.0
        cluster.publish("/stall", {"seconds": str(stall)}, payload="first")
        cluster.publish("/stall", {"seconds": "0"}, payload="second")
        assert done.wait(10)
        assert [payload for payload, _ in arrivals] == ["first", "second"]
        assert arrivals[1][1] - arrivals[0][1] >= stall * 0.8
        assert cluster.drain(30)
    finally:
        cluster.router.unsubscribe(subscription.subscription_id)
