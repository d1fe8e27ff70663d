"""Property suite: the multi-process cluster engine ≡ the sync engine.

The cluster engine (``repro.events.cluster``) shards the broker across
topic-partitioned broker processes and pins units to worker processes,
moving labeled events between processes over the STOMP fabric with the
single-pass document codec as the IPC format. These properties pin its
observable semantics to the single-process synchronous reference:

* **per-unit observation order** — each unit's store-logged sequence of
  (topic, payload, labels) is identical (per-source FIFO survives the
  process hops);
* **store contents** — final key → (value, labels) maps are identical,
  label sidecars included;
* **audit decisions** — the multiset of (component, operation,
  principal, decision, labels) enforcement decisions is identical once
  the decisions that only exist because of the process split (STOMP
  session management, bridge link upkeep, cluster placement) are set
  aside;
* **worker-kill chaos** — killing a worker process mid-stream never
  loses an event: each one is observed by the restarted unit, parked on
  the unit's DLQ under its original labels, or audited-denied.

Scenarios keep every unit on a single inbound subscription for the same
reason the laned-engine suite does (see test_parallel_engine.py): the
synchronous engine nests cascades inside the outer delivery, so
multi-in-edge interleaving is deliberately out of scope.

Store dumps cross a JSON boundary (the codec), which renders tuples as
lists — the synchronous reference is normalised through the same codec
before comparison, so the equality below compares post-codec forms.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

import pytest

from repro.core.audit import AuditLog
from repro.core.labels import conf_label, int_label
from repro.core.policy import Policy, PolicyDocument, UnitSpec
from repro.events import Broker, EventProcessingEngine, Unit
from repro.events.cluster import ClusterEngine
from repro.events.cluster_codec import decode_payload, encode_payload
from repro.events.supervision import SupervisionPolicy

AUTHORITY = "ecric.org.uk"
POOL = [conf_label(AUTHORITY, "tag", str(index)).uri for index in range(4)]
SECRET = conf_label(AUTHORITY, "secret").uri
TRUSTED = int_label(AUTHORITY, "mdt").uri
EXTERNAL_TOPICS = ["/ext/a", "/ext/b", "/ext/c"]

#: Audit components that exist only because of the process split.
INFRA_COMPONENTS = {"stomp", "bridge", "cluster"}


class ScriptedUnit(Unit):
    """One scripted unit; behaviour is data (plain strings), so the spec
    pickles by value and the class by reference — the factory the parent
    ships to a worker process rebuilds an identical unit."""

    def __init__(self, spec):
        super().__init__()
        self.unit_name = spec["name"]
        self.spec = spec

    def setup(self):
        self.subscribe(self.spec["source"], self.on_event)

    def on_event(self, event):
        spec = self.spec
        behaviour = spec["behaviour"]
        log = self.store.get("obs", [])
        log.append((event.topic, event.payload, tuple(event.labels.to_uris())))
        self.store.set("obs", log)
        if behaviour == "record":
            self.store.set(f"seen:{event.payload}", event.payload)
        elif behaviour == "accumulate":
            self.store.set("count", self.store.get("count", 0) + 1)
        elif behaviour == "forward":
            self.publish(f"/u/{spec['name']}", payload=event.payload)
        elif behaviour == "declassify":
            self.publish(
                f"/u/{spec['name']}",
                payload=event.payload,
                add=list(spec["add"]),
                remove=list(spec["remove"]),
            )
        elif behaviour == "endorse":
            self.publish(f"/u/{spec['name']}", payload=event.payload, add=[TRUSTED])
        elif behaviour == "io":
            # IsolationError inside the jail — an audited callback denial
            # on both sides of the comparison.
            with open("/nonexistent-safeweb-dir/leak.txt", "w") as handle:
                handle.write(event.payload or "")


def build_policy(specs) -> Policy:
    document = PolicyDocument(authority=AUTHORITY)
    for spec in specs:
        grants = {}
        if spec["clearance"]:
            grants["clearance"] = list(spec["clearance"])
        if spec["declassification"]:
            grants["declassification"] = list(spec["declassification"])
        if spec["endorsement"]:
            grants.setdefault("endorsement", []).append(TRUSTED)
        document.units[spec["name"]] = UnitSpec(
            name=spec["name"], privileged=spec["privileged"], grants=grants
        )
    return Policy(document)


def make_spec(name, source, behaviour, **overrides):
    spec = {
        "name": name,
        "source": source,
        "behaviour": behaviour,
        "privileged": False,
        "clearance": list(POOL) + [SECRET],
        "declassification": [],
        "endorsement": False,
        "add": [],
        "remove": [],
    }
    spec.update(overrides)
    return spec


#: Three deterministic scenario graphs covering the behaviour vocabulary:
#: chains, fan-out, allowed and denied declassification, endorsement
#: denial, jailed I/O denial, labelled and secret events.
SCENARIOS = {
    "chain": {
        "specs": [
            make_spec("u0", "/ext/a", "forward"),
            make_spec("u1", "/u/u0", "forward"),
            make_spec("u2", "/u/u1", "record"),
        ],
        "events": [
            {"topic": "/ext/a", "payload": f"p{i}", "labels": [POOL[i % 3]]}
            for i in range(12)
        ],
    },
    "fanout-mixed": {
        "specs": [
            make_spec("u0", "/ext/a", "forward"),
            make_spec("u1", "/u/u0", "accumulate"),
            make_spec("u2", "/u/u0", "record"),
            make_spec(
                "u3",
                "/ext/b",
                "declassify",
                declassification=list(POOL),
                add=[POOL[3]],
                remove=[POOL[0]],
            ),
            make_spec("u4", "/u/u3", "record", clearance=list(POOL)),
        ],
        "events": [
            {
                "topic": EXTERNAL_TOPICS[i % 2],
                "payload": f"p{i}",
                "labels": [POOL[0], SECRET] if i % 3 == 0 else [POOL[0]],
            }
            for i in range(15)
        ],
    },
    "denials": {
        "specs": [
            make_spec("u0", "/ext/a", "declassify", remove=[POOL[0]]),
            make_spec("u1", "/ext/b", "endorse"),
            make_spec("u2", "/ext/c", "io"),
            # Clearance gap: only sees unlabelled events; labelled ones
            # are filtered at delivery on both sides.
            make_spec("u3", "/ext/a", "record", clearance=[]),
        ],
        "events": [
            {"topic": topic, "payload": f"p{i}", "labels": labels}
            for i, (topic, labels) in enumerate(
                [
                    ("/ext/a", [POOL[0]]),
                    ("/ext/b", []),
                    ("/ext/c", [POOL[1]]),
                    ("/ext/a", []),
                    ("/ext/b", [POOL[2]]),
                    ("/ext/c", []),
                    ("/ext/a", [POOL[0], POOL[1]]),
                ]
            )
        ],
    },
}


def audit_multiset(records) -> Counter:
    return Counter(
        record for record in records if record[0] not in INFRA_COMPONENTS
    )


def run_sync(specs, events):
    """The single-process synchronous reference."""
    audit = AuditLog()
    engine = EventProcessingEngine(
        broker=Broker(audit=audit), policy=build_policy(specs), audit=audit
    )
    for spec in specs:
        engine.register(ScriptedUnit(spec))
    try:
        for event in events:
            engine.publish(
                event["topic"], payload=event["payload"], labels=event["labels"]
            )
        stores = {}
        for spec in specs:
            store = engine.store_of(spec["name"])
            stores[spec["name"]] = {
                key: [store.get(key), list(store.labels_for(key).to_uris())]
                for key in store.keys()
            }
        decisions = audit_multiset(
            (
                record.component,
                record.operation,
                record.principal,
                record.decision,
                tuple(record.labels.to_uris()),
            )
            for record in audit.records()
        )
        # The cluster ships store dumps through the codec; normalise the
        # reference through the same JSON round trip (tuples -> lists).
        return (
            decode_payload(encode_payload(stores)),
            decisions,
            engine.stats.dispatched,
        )
    finally:
        engine.stop()


def run_cluster(specs, events, workers, shards):
    cluster = ClusterEngine(
        build_policy(specs), workers=workers, shards=shards, audit=AuditLog()
    ).start()
    try:
        for spec in specs:
            cluster.place(functools.partial(ScriptedUnit, spec), spec["name"])
        for event in events:
            cluster.publish(
                event["topic"], payload=event["payload"], labels=event["labels"]
            )
        assert cluster.drain(60), "cluster failed to drain"
        stores = cluster.collect_stores()
        decisions = audit_multiset(cluster.collect_audit())
        dispatched = sum(
            stats["dispatched"] for stats in cluster.stats().values()
        )
        return stores, decisions, dispatched
    finally:
        cluster.stop()


class TestClusterEquivalence:
    """Cluster runs at 1, 2 and 4 workers match the synchronous engine:
    same stores (values *and* labels), same per-unit observation order
    (the ``obs`` logs), same enforcement-decision multiset."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("workers,shards", [(1, 1), (2, 2), (4, 2)])
    def test_cluster_matches_synchronous_reference(self, scenario, workers, shards):
        specs = SCENARIOS[scenario]["specs"]
        events = SCENARIOS[scenario]["events"]
        sync_stores, sync_audit, sync_dispatched = run_sync(specs, events)
        cl_stores, cl_audit, cl_dispatched = run_cluster(
            specs, events, workers, shards
        )
        assert cl_stores == sync_stores
        assert cl_audit == sync_audit
        assert cl_dispatched == sync_dispatched


class TestDrainBarrier:
    """``drain() is True`` is a statement about state, not timing: every
    shard's queue is empty and no ``ack: client`` delivery is in flight."""

    @pytest.mark.parametrize("workers,shards", [(1, 1), (2, 2)])
    def test_drained_cluster_has_nothing_queued_or_in_flight(self, workers, shards):
        scenario = SCENARIOS[sorted(SCENARIOS)[0]]
        cluster = ClusterEngine(
            build_policy(scenario["specs"]), workers=workers, shards=shards, audit=AuditLog()
        ).start()
        try:
            for spec in scenario["specs"]:
                cluster.place(functools.partial(ScriptedUnit, spec), spec["name"])
            for _ in range(5):
                for event in scenario["events"]:
                    cluster.publish(
                        event["topic"], payload=event["payload"], labels=event["labels"]
                    )
                assert cluster.drain(60) is True
                for handle in cluster._shards.values():
                    reply = handle.call({"op": "drain"})
                    assert (reply["queued"], reply["in_flight"]) == (0, 0)
            assert sum(stats["dispatched"] for stats in cluster.stats().values()) > 0
        finally:
            cluster.stop()


class TestWorkerKillChaos:
    """SIGKILL a worker mid-stream: every event is observed (possibly by
    the unit's restarted incarnation on a surviving worker), parked on
    the unit's DLQ under its original labels, or audited-denied —
    duplicates are permitted, losses are not."""

    TOTAL = 30

    # shards=2 is the regression half: a shard dead-letters an unacked
    # in-flight event on its *own* broker, which is not the shard the
    # DLQ topic hashes to — the router's DLQ subscription must span
    # every shard or these deliveries silently miss the observer.
    @pytest.mark.parametrize("shards", [1, 2])
    def test_no_event_lost_across_worker_death(self, shards):
        specs = [make_spec("feeder", "/work", "forward")]
        policy = build_policy(specs)
        # The parent-side tap and the DLQ observer need clearance too.
        policy.document.units["collector"] = UnitSpec(
            name="collector", grants={"clearance": list(POOL) + [SECRET]}
        )
        policy = Policy(policy.document)
        received = []
        dead_lettered = []
        cluster = ClusterEngine(
            policy,
            workers=2,
            shards=shards,
            audit=AuditLog(),
            supervision=SupervisionPolicy(),
        ).start()
        try:
            cluster.subscribe(
                "/u/feeder",
                lambda event: received.append(event.payload),
                principal="collector",
            )
            # The shard publishes dead-lettered events to /_dlq.feeder
            # under their original labels; observing them requires the
            # same clearance the lost consumer had.
            cluster.subscribe(
                "/_dlq.feeder",
                lambda event: dead_lettered.append(event.payload),
                principal="collector",
            )
            victim = cluster.place(
                functools.partial(ScriptedUnit, specs[0]), "feeder"
            )
            payloads = [f"n{i}" for i in range(self.TOTAL)]
            for index, payload in enumerate(payloads):
                cluster.publish("/work", payload=payload, labels=[POOL[0]])
                if index == self.TOTAL // 3:
                    cluster.kill_worker(victim)
            deadline = time.monotonic() + 30
            while (
                time.monotonic() < deadline
                and cluster.placements().get("feeder") == victim
            ):
                time.sleep(0.05)
            assert cluster.placements().get("feeder") != victim, (
                "dead worker's unit was never re-placed"
            )
            assert cluster.drain(60), "cluster failed to drain after the kill"
            audit = cluster.collect_audit(include_infra=True)
            denied_payloads = {
                record[4] for record in audit if record[3] == "denied"
            }
            accounted = set(received) | set(dead_lettered)
            missing = [
                payload for payload in payloads if payload not in accounted
            ]
            assert not missing, (
                f"lost events {missing}: received={sorted(received)} "
                f"dead_lettered={sorted(dead_lettered)} "
                f"denied={denied_payloads}"
            )
            # The death itself is on the audit trail.
            assert any(
                record[0] == "cluster"
                and record[1] == "worker"
                and record[3] == "denied"
                for record in audit
            )
            assert any(
                record[0] == "cluster"
                and record[1] == "restart_unit"
                and record[3] == "allowed"
                for record in audit
            )
        finally:
            cluster.stop()
