"""Multi-process cluster engine: topic-sharded brokers + pinned workers.

PR 5's laned engine tops out at GIL parity on CPU-bound pipelines; this
module moves past it with *process*-level parallelism over the existing
STOMP fabric (docs/CLUSTER.md has the full contract):

* **Broker shards** — N broker processes, each an ordinary
  ``Broker(threaded=True)`` behind a :class:`StompServer`. The topic
  space is partitioned across them by a consistent-hash ring
  (:class:`~repro.events.ring.HashRing`): an exact topic lives on
  exactly one shard; wildcard subscriptions register on every shard and
  rely on each *publish* hashing to one shard to avoid duplicates.
* **Worker processes** — each runs a local synchronous
  :class:`~repro.events.engine.EventProcessingEngine` whose broker is a
  :class:`ClusterRouter`; units are pinned to workers by the parent's
  placement ring. Unit callbacks run under the same LabelContext / jail
  / supervision ladder as in-process.
* **The codec is the IPC format** — events cross process boundaries as
  ``encode_document`` bodies (:mod:`repro.events.cluster_codec`): value
  labels ride the sidecar, the event-level label set rides the
  ``x-safeweb-labels`` header, and the *receiving shard's* broker checks
  clearance against its own policy copy exactly as in-process — a
  compromised worker cannot claim clearance it does not have.
* **At-least-once → DLQ** — worker deliveries use STOMP ``ack: client``:
  the worker acks only after the unit callback finished *and* its
  cascade publishes were receipt-confirmed. A worker that dies mid-event
  leaves the delivery unacked; the shard dead-letters it to
  ``/_dlq.<unit>`` under the original labels. The parent detects the
  dead process and re-places its units on a surviving worker. Events are
  observed, dead-lettered or audited-denied — never lost.

The single-process synchronous engine remains the executable reference;
``tests/property/test_cluster_engine.py`` pins the cluster's stores,
labels and audit-decision multisets against it.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.audit import AuditLog, default_audit_log
from repro.core.labels import LabelSet
from repro.core.policy import Policy, PolicyDocument, UnitSpec
from repro.events.cluster_codec import decode_event, decode_payload, encode_event, encode_payload
from repro.events.event import Event, as_events
from repro.events.ring import HashRing
from repro.events.stomp.bridge import StompBrokerBridge
from repro.events.supervision import SupervisionPolicy, is_dlq_topic
from repro.exceptions import SafeWebError, SecurityViolation, StompProtocolError

#: Infra logins every shard policy accepts beside the real units: the
#: parent's ingress publishers and the cluster's own control principal.
INGRESS_LOGINS = ("external", "scheduler", "_cluster")

#: Prefix of the per-unit supervisor login (worker-side DLQ publishes).
SUPERVISOR_PREFIX = "supervisor:"

#: Seconds between the parent's checks for dead worker processes.
MONITOR_INTERVAL = 0.2


def shard_policy_document(document: PolicyDocument) -> PolicyDocument:
    """The policy a broker shard authenticates against.

    Clone of the deployment policy plus clearance-free specs for the
    infra logins (ingress publishers, per-unit supervisors). Publishing
    never requires clearance, and none of these logins subscribe, so an
    empty grant set is fail-safe — while real units keep their exact
    grants, which is what makes the shard's delivery-time clearance
    check identical to the in-process broker's.
    """
    clone = PolicyDocument.from_json(document.to_json())
    for login in INGRESS_LOGINS:
        clone.units.setdefault(login, UnitSpec(name=login))
    for name in list(clone.units):
        supervisor_login = SUPERVISOR_PREFIX + name
        clone.units.setdefault(supervisor_login, UnitSpec(name=supervisor_login))
    return clone


def cluster_context():
    """The multiprocessing context cluster children start under.

    ``fork`` is deliberately not the default: the parent already runs
    threads by the time a cluster starts (broker dispatcher, WAL flush,
    the deployment's audit flusher), and forking a threaded parent can
    hand children locks frozen mid-acquisition. ``forkserver`` forks
    from a clean single-threaded helper where available (POSIX);
    ``spawn`` is the portable fallback (and the only method on
    Windows). Both are safe here because the child mains import their
    dependencies themselves and every shipped object pickles.
    """
    available = multiprocessing.get_all_start_methods()
    for method in ("forkserver", "spawn"):
        if method in available:
            return multiprocessing.get_context(method)
    return multiprocessing.get_context()


class _RouterSubscription:
    """The Broker-surface subscription handle the engine keeps."""

    __slots__ = ("subscription_id", "topic", "principal", "entries")

    def __init__(self, subscription_id: str, topic: str, principal: str, entries):
        self.subscription_id = subscription_id
        self.topic = topic
        self.principal = principal
        #: [(bridge, bridge-subscription-id)] — one per shard involved.
        self.entries = entries


class ClusterRouter:
    """The federation gateway's export/import machinery, generalised.

    A Broker-compatible facade that routes publishes to the shard owning
    the topic and fans subscriptions out to the shards that can match
    them. One STOMP connection per (role, principal, shard): *publish*
    and *subscribe* connections are deliberately separate, so a
    delivery's ACK can wait on publish receipts while its listener
    thread moves on to the next delivery.

    Deliveries arrive as codec bodies and are decoded back into labeled
    events (:func:`~repro.events.cluster_codec.decode_event`); a body
    whose recorded labels disagree with the transport header the shard's
    clearance check enforced is audited-denied and consumed, never
    delivered. Per-principal delivery locks serialise a unit's callbacks
    across its subscriptions — the same guarantee the laned engine's
    per-unit mailboxes make.
    """

    def __init__(
        self,
        shards: Dict[str, Tuple[str, int]],
        audit: Optional[AuditLog] = None,
        ack_timeout: float = 10.0,
    ):
        if not shards:
            raise SafeWebError("cluster router needs at least one shard")
        self._shards = dict(shards)
        self._ring = HashRing(sorted(shards))
        self._audit = audit if audit is not None else default_audit_log()
        self._ack_timeout = ack_timeout
        self._bridges: Dict[Tuple[str, str, str], StompBrokerBridge] = {}
        self._bridge_lock = threading.RLock()
        self._unit_locks: Dict[str, threading.Lock] = {}
        self._subscriptions: Dict[str, _RouterSubscription] = {}
        self._ids = itertools.count(1)
        #: ``.runs``: the (link, run) pairs published by this thread's delivery.
        self._cascade = threading.local()
        #: Worker-side tee of DLQ-topic publishes (clearance-free
        #: accounting; the DLQ events themselves still flow through the
        #: label-checked broker like any other event).
        self.dlq_ledger: List[dict] = []
        self._dlq_lock = threading.Lock()

    # -- topology -------------------------------------------------------------

    @property
    def shard_names(self) -> List[str]:
        return sorted(self._shards)

    def _shards_for_subscription(self, topic: str) -> List[str]:
        # A pattern cannot be hashed; register everywhere. Publishes hash
        # to one shard, so matching stays exactly-once. Dead letters are
        # published on the shard that *produced* them (an unacked
        # in-flight delivery or an orphan tombstone dead-letters on its
        # own local broker), which is not necessarily
        # ring.node_for(topic), so they register everywhere too:
        # router-side DLQ publishes still hash to one shard, and a
        # shard-local publish matches only on that shard, so no path
        # duplicates.
        if "*" in topic or "#" in topic or is_dlq_topic(topic):
            return self.shard_names
        return [self._ring.node_for(topic)]

    def _bridge(self, role: str, login: str, shard: str) -> StompBrokerBridge:
        key = (role, login, shard)
        with self._bridge_lock:
            bridge = self._bridges.get(key)
            if bridge is None:
                host, port = self._shards[shard]
                bridge = StompBrokerBridge(host, port, login=login, audit=self._audit)
                bridge.connect()
                self._bridges[key] = bridge
            return bridge

    def warm_publisher(self, login: str) -> None:
        """Open *login*'s publish links to every shard now.

        Publishes are jail-safe (queue appends), but the lazy first
        connect is not — callers whose publishes can originate inside a
        jailed callback must warm the links from trusted code first.
        """
        for shard in self.shard_names:
            self._bridge("pub", login, shard)

    def _links(self) -> List[Tuple[Tuple[str, str, str], StompBrokerBridge]]:
        """A snapshot of ``((role, login, shard), bridge)`` safe to walk unlocked."""
        with self._bridge_lock:
            return list(self._bridges.items())

    def _unit_lock(self, principal: str) -> threading.Lock:
        with self._bridge_lock:
            lock = self._unit_locks.get(principal)
            if lock is None:
                lock = self._unit_locks[principal] = threading.Lock()
            return lock

    # -- the Broker surface ----------------------------------------------------

    def publish(self, event: Event, publisher: str = "anonymous") -> int:
        return self.publish_many([event], publisher)

    def publish_many(self, events, publisher: str = "anonymous") -> int:
        """Batched cross-shard publish: one receipt-confirmed run per shard."""
        by_shard: Dict[str, List[Event]] = {}
        for event in events:
            self._tee_dlq(event, publisher)
            by_shard.setdefault(self._ring.node_for(event.topic), []).append(
                self._transport(event)
            )
        runs = getattr(self._cascade, "runs", [])
        for shard, batch in by_shard.items():
            bridge = self._bridge("pub", publisher, shard)
            runs.append((bridge, bridge.publish_many(batch)))
        return 0

    def subscribe(
        self,
        topic: str,
        callback: Callable[[Event], None],
        principal: str = "anonymous",
        clearance=None,  # resolved by the shard's policy, never trusted
        selector=None,
        subscription_id: Optional[str] = None,
        require_integrity: Optional[LabelSet] = None,
    ) -> _RouterSubscription:
        # Pre-warm this principal's publish links to every shard NOW,
        # while we are outside the jail: a cascade publish from inside
        # the unit's callback may target any shard, and the jail denies
        # the socket connect a lazy first use would need.
        self.warm_publisher(principal)
        entries = []
        for shard in self._shards_for_subscription(topic):
            bridge = self._bridge("sub", principal, shard)
            bridge_sub = bridge.subscribe(
                topic,
                # The ack must go back on the link that delivered the
                # message — for multi-shard subscriptions (wildcards,
                # DLQ topics) that is not ring.node_for(topic), so the
                # wrapper binds the delivering bridge itself.
                self._deliver_wrapper(callback, principal, bridge),
                principal=principal,
                selector=selector,
                require_integrity=require_integrity,
                ack="client",
            )
            entries.append((bridge, bridge_sub.subscription_id))
        router_id = subscription_id or f"cluster-sub-{next(self._ids)}"
        subscription = _RouterSubscription(router_id, topic, principal, entries)
        self._subscriptions[router_id] = subscription
        return subscription

    def unsubscribe(self, subscription_id: str) -> None:
        subscription = self._subscriptions.pop(subscription_id, None)
        if subscription is None:
            return
        for bridge, bridge_sub_id in subscription.entries:
            bridge.unsubscribe(bridge_sub_id)

    def subscriptions_for(self, principal: str) -> List[_RouterSubscription]:
        return [
            subscription
            for subscription in self._subscriptions.values()
            if subscription.principal == principal
        ]

    def drain(self, timeout: float = 5.0) -> bool:
        """Flush every publish connection; True when all were receipt-confirmed."""
        # A list, not a generator: every link is flushed even if one times out.
        return all(
            [bridge.drain(timeout) for (role, _, _), bridge in self._links() if role == "pub"]
        )

    def __len__(self) -> int:
        return len(self._subscriptions)

    # -- delivery --------------------------------------------------------------

    def _deliver_wrapper(self, callback, principal: str, bridge: StompBrokerBridge):
        unit_lock = self._unit_lock(principal)

        def denied(operation: str, subject: Event, reason: object) -> None:
            self._audit.denied(
                "cluster",
                operation,
                principal,
                labels=subject.labels,
                detail=f"{subject.topic}: {reason}",
            )

        def deliver(transport: Event, message_id: str = "") -> None:
            try:
                event = decode_event(
                    transport.payload or "", transport_labels=transport.labels
                )
                if event.topic != transport.topic:
                    # A shard re-wrapped the event (its DLQ path): the
                    # transport carries the real topic and the dlq_*
                    # metadata; the body restores the original payload
                    # (value labels included).
                    event = Event(
                        transport.topic,
                        transport.attributes,
                        event.payload,
                        transport.labels,
                        timestamp=transport.timestamp,
                    )
            except SecurityViolation as violation:
                denied("decode", transport, violation)
                bridge.ack(message_id)
                return
            except StompProtocolError:
                # Not a cluster body — a foreign STOMP publisher on the
                # same fabric. Deliver the transport event as-is.
                event = transport
            runs = self._cascade.runs = []
            try:
                with unit_lock:
                    callback(event)
            except Exception as error:  # noqa: BLE001 - NACK, never lose
                denied("callback", event, repr(error))
                bridge.nack(message_id)
                return
            if not runs:  # spares the common case the closure cycle below
                bridge.ack(message_id)
                return
            # Cascade durability: ACK once the callback's runs are receipt-
            # confirmed (a crash in the gap yields a duplicate, never a gap);
            # parked, or late past ack_timeout, the shard dead-letters it.
            started = time.monotonic()

            def confirmed(ok: bool) -> None:
                if ok and runs:  # one run at a time; any parked run refuses
                    link, run = runs.pop()
                    link.after_confirmed(confirmed, run)
                elif ok and time.monotonic() - started <= self._ack_timeout:
                    bridge.ack(message_id)
                else:
                    late = f"unconfirmed after {self._ack_timeout}s"
                    denied("cascade", event, f"cascade publishes {late if ok else 'parked'}")
                    bridge.nack(message_id)

            confirmed(True)

        return deliver

    def _transport(self, event: Event) -> Event:
        """The on-the-wire form: codec body, attribute headers, label header."""
        return Event(
            event.topic,
            event.attributes,
            encode_event(event),
            event.labels,
            timestamp=event.timestamp,
        )

    def _tee_dlq(self, event: Event, publisher: str) -> None:
        if not is_dlq_topic(event.topic):
            return
        with self._dlq_lock:
            self.dlq_ledger.append(
                {
                    "topic": event.topic,
                    "publisher": publisher,
                    "unit": event.attributes.get("dlq_unit", ""),
                    "reason": event.attributes.get("dlq_reason", ""),
                    "labels": event.labels.to_uris(),
                }
            )

    # -- health ----------------------------------------------------------------

    def probe(self) -> dict:
        """Liveness + counters for every link, keyed ``role:login:shard``."""
        bridges = {
            f"{role}:{login}:{shard}": bridge.probe()
            for (role, login, shard), bridge in self._links()
        }
        report = {
            "healthy": all(link["connected"] for link in bridges.values()),
            "shards": self.shard_names,
            "bridges": bridges,
            "dlq_ledger": len(self.dlq_ledger),
        }
        for counter in ("published", "delivered", "errors", "dead_lettered"):
            report[counter] = sum(link[counter] for link in bridges.values())
        return report

    def ensure_connected(self) -> bool:
        """Reconnect any down link; True when all links are healthy after."""
        # A list, not a generator: every link gets its reconnect attempt.
        return all([bridge.ensure_connected() for _, bridge in self._links()])

    def activity(self) -> int:
        """Monotonic work counter for the drain stability check."""
        return sum(
            bridge.stats.published + bridge.stats.delivered for _, bridge in self._links()
        )

    def queues_empty(self) -> bool:
        probes = [bridge.probe() for _, bridge in self._links()]
        return all(p["outgoing_depth"] == 0 and p["unconfirmed"] == 0 for p in probes)

    def close(self) -> None:
        with self._bridge_lock:
            links = self._links()
            self._bridges.clear()
        for _, bridge in links:
            try:
                bridge.close()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass


# -- child process mains -------------------------------------------------------
#
# Top-level functions so they pickle by reference under both fork and
# spawn start methods. Control speaks over a multiprocessing Pipe:
# {"op": ...} in, {"ok": ...} out, one request in flight per child.


def _audit_tuples(audit: AuditLog) -> List[tuple]:
    """*audit*'s decisions as comparable, picklable tuples (detail dropped)."""
    # Straight off the log's raw ring: entry = (component, operation,
    # principal, decision, labels-or-None, detail, timestamp).
    return [
        (*entry[:4], tuple(entry[4].to_uris()) if entry[4] else ())
        for _record_id, entry in audit._raw()
    ]


def _serve_control(conn, handlers: Dict[str, Callable[[dict], dict]]) -> None:
    """The control loop of every child: dispatch requests by op until told to stop.

    A handler takes the request and returns the reply's keys beside
    ``ok``. An unknown op or a raising handler answers ``{"ok": False,
    "error": ...}`` and the child keeps serving; ``stop`` (acknowledged
    first) or the parent closing its end of the pipe ends the loop.
    """
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        op = message.get("op")
        try:
            if op == "stop":
                conn.send({"ok": True})
                return
            handler = handlers.get(op)
            if handler is None:
                conn.send({"ok": False, "error": f"unknown op {op!r}"})
            else:
                conn.send({"ok": True, **handler(message)})
        except Exception as error:  # noqa: BLE001 - report, keep serving
            conn.send({"ok": False, "error": repr(error)})


def _broker_shard_main(conn, policy_json: str, shard_name: str, supervision) -> None:
    from repro.events.broker import Broker
    from repro.events.stomp.server import StompServer

    audit = AuditLog()
    policy = Policy(PolicyDocument.from_json(policy_json))
    broker = Broker(threaded=True, audit=audit)
    server = StompServer(broker, policy=policy, audit=audit, supervision=supervision)
    server.start()
    conn.send({"ok": True, "address": server.address})

    def drain(message: dict) -> dict:
        broker.drain(message.get("timeout", 5.0))
        return {
            "activity": audit.total_decisions(),
            "queued": broker.queue_depth,
            "in_flight": server.in_flight,
        }

    try:
        _serve_control(
            conn,
            {
                "ping": lambda message: {"shard": shard_name},
                "drain": drain,
                "audit": lambda message: {"records": _audit_tuples(audit)},
                "dead_letters": lambda message: {"dead_letters": list(server.dead_letters)},
            },
        )
    finally:
        server.stop()
        broker.stop()


def _worker_main(
    conn,
    policy_json: str,
    shard_addresses: Dict[str, Tuple[str, int]],
    worker_name: str,
    options: dict,
) -> None:
    from repro.events.engine import EventProcessingEngine

    audit = AuditLog()
    policy = Policy(PolicyDocument.from_json(policy_json))
    router = ClusterRouter(shard_addresses, audit=audit)
    engine = EventProcessingEngine(
        broker=router,
        policy=policy,
        audit=audit,
        isolation=options.get("isolation", True),
        supervision=options.get("supervision"),
    )
    conn.send({"ok": True, "worker": worker_name})

    def place(message: dict) -> dict:
        unit = pickle.loads(message["factory"])()
        engine.register(unit)
        return {"unit": unit.name}

    def unplace(message: dict) -> dict:
        engine.unregister(message["unit"])
        return {}

    def drain(message: dict) -> dict:
        engine.drain(message.get("timeout", 10.0))
        confirmed = router.drain()
        return {
            "activity": engine.stats.dispatched + engine.stats.queued + router.activity(),
            "idle": confirmed and router.queues_empty(),
        }

    def stores(message: dict) -> dict:
        dumps = {}
        for name in engine.unit_names:
            store = engine.store_of(name)
            dumps[name] = {
                key: [store.get(key), list(store.labels_for(key).to_uris())]
                for key in store.keys()
            }
        return {"stores": encode_payload(dumps)}

    def stats(message: dict) -> dict:
        counters = ("dispatched", "callback_errors", "dead_lettered", "retries", "restarts")
        return {
            "stats": {name: getattr(engine.stats, name) for name in counters},
            "units": engine.unit_names,
        }

    try:
        _serve_control(
            conn,
            {
                "ping": lambda message: {"worker": worker_name},
                "place": place,
                "unplace": unplace,
                "drain": drain,
                "stores": stores,
                "audit": lambda message: {"records": _audit_tuples(audit)},
                "stats": stats,
                "dead_letters": lambda message: {"dead_letters": list(router.dlq_ledger)},
                "probe": lambda message: {"probe": router.probe()},
            },
        )
    finally:
        router.close()


# -- parent-side handles -------------------------------------------------------


class _ChildHandle:
    """One shard or worker process plus its control pipe."""

    __slots__ = ("name", "process", "conn", "lock", "alive")

    def __init__(self, name, process, conn):
        self.name = name
        self.process = process
        self.conn = conn
        self.lock = threading.Lock()
        self.alive = True

    @property
    def live(self) -> bool:
        """Not yet declared dead by the monitor, and the process still runs."""
        return self.alive and self.process.is_alive()

    def call(self, message: dict, timeout: float = 30.0) -> dict:
        with self.lock:
            self.conn.send(message)
            if not self.conn.poll(timeout):
                raise SafeWebError(
                    f"{self.name}: control timeout waiting for {message.get('op')!r}"
                )
            reply = self.conn.recv()
        if not reply.get("ok"):
            raise SafeWebError(f"{self.name}: {reply.get('error', 'control error')}")
        return reply


class _Placement:
    __slots__ = ("factory_bytes", "worker")

    def __init__(self, factory_bytes: bytes, worker: str):
        self.factory_bytes = factory_bytes
        self.worker = worker


class ClusterEngine:
    """Parent-side orchestrator: shard + worker processes, placement,
    drain, supervision across the process boundary.

    The engine-compatible surface (``publish`` / ``publish_batch`` /
    ``drain`` / ``store_of`` …) lets :class:`MdtDeployment` treat a
    cluster like the in-process engine for the pipeline stages it
    offloads. Unit *factories* (not instances) are placed, so restart
    after a worker death re-creates the unit from scratch on a survivor
    — exactly the one-for-one restart contract, one level up.
    """

    def __init__(
        self,
        policy: Policy | PolicyDocument,
        workers: int = 2,
        shards: Optional[int] = None,
        audit: Optional[AuditLog] = None,
        supervision: Optional[SupervisionPolicy] = None,
        isolation: bool = True,
    ):
        if workers < 1:
            raise SafeWebError("cluster needs at least one worker")
        self.document = policy.document if isinstance(policy, Policy) else policy
        self.audit = audit if audit is not None else default_audit_log()
        self.supervision = supervision
        self.isolation = isolation
        self._worker_count = workers
        self._shard_count = shards if shards else max(1, min(workers, 2))
        self._ctx = cluster_context()
        self._shards: Dict[str, _ChildHandle] = {}
        self._workers: Dict[str, _ChildHandle] = {}
        self._placements: Dict[str, _Placement] = {}
        self._worker_ring: Optional[HashRing] = None
        self.router: Optional[ClusterRouter] = None
        self._monitor: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._lock = threading.RLock()
        self.started = False

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "ClusterEngine":
        if self.started:
            return self
        shard_json = shard_policy_document(self.document).to_json()
        worker_json = self.document.to_json()
        addresses: Dict[str, Tuple[str, int]] = {}
        for index in range(self._shard_count):
            name = f"shard-{index}"
            self._shards[name], hello = self._spawn(
                name, _broker_shard_main, shard_json, name, self.supervision
            )
            addresses[name] = tuple(hello["address"])
        options = {"isolation": self.isolation, "supervision": self.supervision}
        for index in range(self._worker_count):
            name = f"worker-{index}"
            self._workers[name], _hello = self._spawn(
                name, _worker_main, worker_json, addresses, name, options
            )
        self._worker_ring = HashRing(sorted(self._workers))
        self.router = ClusterRouter(addresses, audit=self.audit)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="safeweb-cluster-monitor", daemon=True
        )
        self._monitor.start()
        self.started = True
        self.audit.allowed(
            "cluster",
            "start",
            "_cluster",
            detail=f"{self._shard_count} shard(s), {self._worker_count} worker(s)",
        )
        return self

    def _spawn(self, name: str, main, *args) -> Tuple[_ChildHandle, dict]:
        """Start child *name* running ``main(conn, *args)``; wait for its hello."""
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=main, args=(child_conn, *args), name=f"safeweb-{name}", daemon=True
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(30):
            raise SafeWebError(f"{name} failed to start")
        return _ChildHandle(name, process, parent_conn), parent_conn.recv()

    def stop(self, timeout: float = 10.0) -> None:
        if not self.started:
            return
        self._stopping.set()
        self._monitor.join(timeout)
        self.router.close()
        for handle in [*self._workers.values(), *self._shards.values()]:
            self._stop_child(handle, timeout)
        self.started = False

    def _stop_child(self, handle: _ChildHandle, timeout: float) -> None:
        if handle.live:
            try:
                handle.call({"op": "stop"}, timeout=timeout)
            except Exception:  # noqa: BLE001 - escalate to terminate below
                pass
        handle.process.join(timeout)
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(timeout)
        handle.alive = False

    def __enter__(self) -> "ClusterEngine":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- placement -------------------------------------------------------------

    def place(self, factory: Callable[[], object], unit_name: str) -> str:
        """Pin the unit *factory* builds to a worker; returns the worker.

        *factory* must be picklable (a module-level callable, class, or
        ``functools.partial`` of one) — it is shipped to the worker and
        kept by the parent so the unit can be rebuilt on a survivor if
        its worker dies.
        """
        self._require_started()
        factory_bytes = pickle.dumps(factory)
        with self._lock:
            if unit_name in self._placements:
                raise SafeWebError(f"unit {unit_name!r} already placed")
            worker = self._pick_worker(unit_name)
            worker.call({"op": "place", "factory": factory_bytes})
            self._placements[unit_name] = _Placement(factory_bytes, worker.name)
            self.audit.allowed(
                "cluster", "place", unit_name, detail=f"pinned to {worker.name}"
            )
            return worker.name

    def unplace(self, unit_name: str) -> None:
        with self._lock:
            placement = self._placements.pop(unit_name, None)
            if placement is None:
                return
            worker = self._workers.get(placement.worker)
        if worker is not None and worker.alive:
            worker.call({"op": "unplace", "unit": unit_name})

    def placements(self) -> Dict[str, str]:
        with self._lock:
            return {name: p.worker for name, p in self._placements.items()}

    def _pick_worker(self, unit_name: str) -> _ChildHandle:
        for candidate in self._worker_ring.preference(unit_name, count=len(self._workers)):
            if self._workers[candidate].live:
                return self._workers[candidate]
        raise SafeWebError("no live worker to place on")

    # -- ingress / egress ------------------------------------------------------

    def publish(
        self,
        topic: str,
        attributes: Optional[dict] = None,
        payload: Optional[str] = None,
        labels: LabelSet | tuple | list = (),
        publisher: str = "external",
    ) -> Event:
        """Inject an externally produced, pre-labelled event."""
        self._require_started()
        event = Event(topic, attributes, payload, labels)
        self.router.publish(event, publisher=publisher)
        return event

    def publish_batch(self, events, publisher: str = "external") -> List[Event]:
        self._require_started()
        batch = as_events(events)
        self.router.publish_many(batch, publisher=publisher)
        return batch

    def subscribe(
        self,
        topic: str,
        callback: Callable[[Event], None],
        principal: str,
        selector=None,
        require_integrity: Optional[LabelSet] = None,
    ) -> _RouterSubscription:
        """A parent-side subscription (egress tap); clearance is the
        *principal*'s, resolved by the shard — the deployment subscribes
        as its storage unit to pull results back into the local engine."""
        self._require_started()
        return self.router.subscribe(
            topic,
            callback,
            principal=principal,
            selector=selector,
            require_integrity=require_integrity,
        )

    # -- quiescence ------------------------------------------------------------

    def drain(self, timeout: float = 30.0) -> bool:
        """Cross-process quiescence, decided on state rather than timing.

        One round flushes the parent's publish links, asks every live
        worker to drain (engine + its publish links) and every shard to
        drain its broker queue, then reads each process's queue depths,
        each shard's count of ``ack: client`` deliveries in flight and
        the global activity counters. Every cluster subscription is
        ``ack: client`` and a consumer acks only after its callback ran
        and its cascade publishes were receipt-confirmed, so once the
        queues are flushed an event still being worked on is *counted*
        on the shard that delivered it: idle means every queue empty and
        no delivery in flight anywhere. A cascade can land on a shard
        this round has already read, so the verdict stands only when the
        next round reads idle again with unchanged counters — the hop
        would have moved one. A busy round is followed by a pause that
        backs off from 1 ms to 20 ms; an idle one is confirmed at once.
        """
        self._require_started()
        deadline = time.monotonic() + timeout
        previous = None
        pause = 0.001

        while time.monotonic() < deadline:
            idle = self.router.drain(max(deadline - time.monotonic(), 0.1))
            idle = idle and self.router.queues_empty()
            snapshot: List[object] = [self.router.activity()]
            for handle in self._live_workers():
                try:
                    reply = handle.call(
                        {"op": "drain", "timeout": 5.0},
                        timeout=max(deadline - time.monotonic(), 1.0),
                    )
                except SafeWebError:
                    continue  # a dying worker; the monitor will catch it
                snapshot.append((handle.name, reply["activity"]))
                idle = idle and reply["idle"]
            for handle in self._shards.values():
                reply = handle.call(
                    {"op": "drain", "timeout": 5.0},
                    timeout=max(deadline - time.monotonic(), 1.0),
                )
                snapshot.append((handle.name, reply["activity"]))
                idle = idle and reply["queued"] == 0 and reply["in_flight"] == 0
            if idle and snapshot == previous:
                return True
            if idle:
                previous = snapshot
            else:
                previous = None
                time.sleep(pause)
                pause = min(pause * 2, 0.02)
        return False

    def _live_workers(self) -> List[_ChildHandle]:
        return [handle for handle in self._workers.values() if handle.live]

    def _ask(self, op: str, shards: bool) -> List[Tuple[str, dict]]:
        """``(name, reply)`` to *op* from every live worker, then every shard."""
        handles = self._live_workers() + (list(self._shards.values()) if shards else [])
        return [(handle.name, handle.call({"op": op})) for handle in handles]

    # -- observation -----------------------------------------------------------

    def collect_stores(self) -> Dict[str, Dict[str, list]]:
        """Merged ``{unit: {key: [value, label-uris]}}`` across workers.

        Shipped through the codec (labels survive); tuples inside stored
        values come back as lists, exactly as they would from the
        document store — compare against a reference normalised the same
        way.
        """
        merged: Dict[str, Dict[str, list]] = {}
        for _name, reply in self._ask("stores", shards=False):
            merged.update(decode_payload(reply["stores"]))
        return merged

    def collect_audit(self, include_infra: bool = False) -> List[tuple]:
        """Every enforcement decision, cluster-wide, as comparable tuples.

        ``include_infra=False`` drops the decisions that only exist
        because of the process split (STOMP session management, bridge
        link maintenance, cluster placement) leaving the multiset the
        property suite compares against the in-process reference.
        """
        infra = {"stomp", "bridge", "cluster"}
        records = _audit_tuples(self.audit)
        for _name, reply in self._ask("audit", shards=True):
            records.extend(tuple(item) for item in reply["records"])
        if include_infra:
            return records
        return [record for record in records if record[0] not in infra]

    def dead_letters(self) -> Dict[str, list]:
        """Every dead-letter ledger in the cluster."""
        report: Dict[str, list] = {"parent": list(self.router.dlq_ledger)}
        for name, reply in self._ask("dead_letters", shards=True):
            report[name] = reply["dead_letters"]
        return report

    def stats(self) -> Dict[str, dict]:
        return {
            name: dict(reply["stats"], units=reply["units"])
            for name, reply in self._ask("stats", shards=False)
        }

    def probe(self) -> dict:
        """Cluster health: process liveness + parent link health."""
        workers = {name: handle.live for name, handle in self._workers.items()}
        shards = {
            name: handle.process.is_alive() for name, handle in self._shards.items()
        }
        router = self.router.probe() if self.router is not None else {"healthy": False}
        return {
            "healthy": all(shards.values()) and any(workers.values()) and router["healthy"],
            "workers": workers,
            "shards": shards,
            "placements": self.placements(),
            "router": router,
        }

    # -- supervision across the process boundary -------------------------------

    def kill_worker(self, name: str) -> None:
        """Hard-kill a worker (chaos harness; SIGKILL, no cleanup)."""
        self._workers[name].process.kill()

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(MONITOR_INTERVAL):
            for handle in list(self._workers.values()):
                if handle.alive and not handle.process.is_alive():
                    self._handle_worker_death(handle)

    def _handle_worker_death(self, handle: _ChildHandle) -> None:
        handle.alive = False
        self.audit.denied(
            "cluster",
            "worker",
            handle.name,
            detail=f"worker process died (exit {handle.process.exitcode})",
        )
        with self._lock:
            orphans = [
                (unit_name, placement)
                for unit_name, placement in self._placements.items()
                if placement.worker == handle.name
            ]
            for unit_name, placement in orphans:
                try:
                    target = self._pick_worker(unit_name)
                    target.call({"op": "place", "factory": placement.factory_bytes})
                except Exception as error:  # noqa: BLE001 - audited, next death retries
                    self.audit.denied(
                        "cluster", "restart_unit", unit_name, detail=f"re-place failed: {error!r}"
                    )
                    continue
                placement.worker = target.name
                self.audit.allowed(
                    "cluster", "restart_unit", unit_name, detail=f"{handle.name} -> {target.name}"
                )

    def _require_started(self) -> None:
        if not self.started:
            raise SafeWebError("cluster engine is not started; call start() first")
