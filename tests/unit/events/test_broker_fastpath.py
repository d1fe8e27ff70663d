"""Unit tests for the broker's indexed fast path and batch publish."""

import random
import sys
import threading

import pytest

from repro.core.audit import AuditLog
from repro.core.labels import LabelSet, conf_label
from repro.core.policy import parse_policy
from repro.core.privileges import CLEARANCE, PrivilegeSet
from repro.events import context as context_module
from repro.events import engine as engine_module
from repro.events import jail as jail_module
from repro.events import store as store_module
from repro.events.broker import Broker
from repro.events.engine import EventProcessingEngine
from repro.events.event import Event
from repro.events.unit import unit_from_function

PATIENT = conf_label("ecric.org.uk", "patient", "1")
OTHER = conf_label("ecric.org.uk", "patient", "2")
CLEARED = PrivilegeSet({CLEARANCE: [PATIENT]})


class TestRouteCache:
    def test_repeated_publish_hits_route_cache(self):
        broker = Broker(audit=AuditLog())
        broker.subscribe("/t", lambda e: None)
        broker.publish(Event("/t"))
        broker.publish(Event("/t"))
        broker.publish(Event("/t"))
        stats = broker.stats.snapshot()
        assert stats["index_hits"] == 1
        assert stats["route_cache_hits"] == 2
        assert stats["candidates"] == 3

    def test_subscribe_invalidates_route_cache(self):
        broker = Broker(audit=AuditLog())
        broker.subscribe("/t", lambda e: None)
        assert broker.publish(Event("/t")) == 1
        broker.subscribe("/t", lambda e: None)
        assert broker.publish(Event("/t")) == 2

    def test_unsubscribe_invalidates_route_cache(self):
        broker = Broker(audit=AuditLog())
        keep = broker.subscribe("/t", lambda e: None)
        drop = broker.subscribe("/t", lambda e: None)
        assert broker.publish(Event("/t")) == 2
        broker.unsubscribe(drop.subscription_id)
        assert broker.publish(Event("/t")) == 1
        assert keep.active and not drop.active

    def test_wildcard_subscriptions_served_by_index(self):
        broker = Broker(audit=AuditLog())
        hits = []
        broker.subscribe("/mdt/*/report", hits.append)
        broker.subscribe("/mdt/#", hits.append)
        assert broker.publish(Event("/mdt/42/report")) == 2
        assert broker.publish(Event("/mdt/42")) == 1
        assert broker.stats.index_hits == 2


class TestSelectorSharing:
    def test_identical_selector_evaluated_once_per_publish(self):
        broker = Broker(audit=AuditLog())
        for _ in range(5):
            broker.subscribe("/t", lambda e: None, selector="kind = 'cancer'")
        # The parse cache shares one Selector across the five
        # subscriptions, so the per-publish memo evaluates it once and
        # filtering still counts each subscription individually.
        assert broker.publish(Event("/t", {"kind": "benign"})) == 0
        assert broker.stats.selector_filtered == 5
        assert broker.publish(Event("/t", {"kind": "cancer"})) == 5


class TestClearanceMemoization:
    def test_decisions_are_memoised_on_the_privilege_set(self):
        """One memo per delivery decision, and it lives on the immutable
        privilege set — so two subscriptions sharing a clearance share it."""
        broker = Broker(audit=AuditLog())
        received = []
        clearance = PrivilegeSet({CLEARANCE: [PATIENT]})
        for _ in range(2):
            broker.subscribe("/t", received.append, clearance=clearance)
        for _ in range(3):
            broker.publish(Event("/t", labels=[PATIENT]))
        assert len(received) == 6
        assert clearance._cover_cache == {LabelSet([PATIENT]): True}

    def test_revoke_invalidates_cached_decision(self):
        broker = Broker(audit=AuditLog())
        received = []
        sub = broker.subscribe("/t", received.append, clearance=CLEARED)
        assert broker.publish(Event("/t", labels=[PATIENT])) == 1
        sub.clearance = sub.clearance.revoke(CLEARANCE, PATIENT)
        assert broker.publish(Event("/t", labels=[PATIENT])) == 0
        assert broker.stats.label_filtered == 1

    def test_grant_invalidates_cached_denial(self):
        broker = Broker(audit=AuditLog())
        received = []
        sub = broker.subscribe("/t", received.append)
        assert broker.publish(Event("/t", labels=[PATIENT])) == 0
        sub.clearance = sub.clearance.grant(CLEARANCE, PATIENT)
        assert broker.publish(Event("/t", labels=[PATIENT])) == 1


@pytest.fixture()
def clearance_calls(monkeypatch):
    """Counts ``PrivilegeSet.clearance_covers`` calls, the §4.2 test."""
    calls = []
    covers = PrivilegeSet.clearance_covers

    def counting(self, labels):
        calls.append(labels)
        return covers(self, labels)

    monkeypatch.setattr(PrivilegeSet, "clearance_covers", counting)
    return calls


def _calls_per_publish(broker, calls, event, publishes=3):
    counts = []
    for _ in range(publishes):
        del calls[:]
        broker.publish(event)
        counts.append(len(calls))
    return counts


class TestClearancePlan:
    """Work-count pins: §4.2 is decided once per route and label set."""

    def test_first_publish_plans_then_no_clearance_calls(self, clearance_calls):
        broker = Broker(audit=AuditLog())
        for _ in range(4):
            broker.subscribe("/t", lambda e: None, clearance=CLEARED)
        broker.subscribe("/t", lambda e: None, selector="stage > 1", clearance=CLEARED)
        labelled = Event("/t", {"stage": "0"}, labels=[PATIENT])
        assert _calls_per_publish(broker, clearance_calls, labelled) == [5, 0, 0]
        # A new label set on the same route is one more plan, then free.
        other = Event("/t", {"stage": "2"}, labels=[OTHER])
        assert _calls_per_publish(broker, clearance_calls, other) == [5, 0, 0]
        assert _calls_per_publish(broker, clearance_calls, labelled) == [0, 0, 0]
        assert broker.stats.label_filtered == 3 * 5

    @pytest.mark.parametrize("change", ["subscribe", "unsubscribe", "revoke", "grant", "require"])
    def test_each_change_replans_once(self, clearance_calls, change):
        broker = Broker(audit=AuditLog())
        subscriptions = [
            broker.subscribe("/t", lambda e: None, clearance=CLEARED) for _ in range(3)
        ]
        event = Event("/t", labels=[PATIENT])
        assert _calls_per_publish(broker, clearance_calls, event) == [3, 0, 0]
        target = subscriptions[1]
        if change == "subscribe":
            broker.subscribe("/t", lambda e: None, clearance=CLEARED)
        elif change == "unsubscribe":
            broker.unsubscribe(target.subscription_id)
        elif change == "revoke":
            target.clearance = target.clearance.revoke(CLEARANCE, PATIENT)
        elif change == "grant":
            target.clearance = target.clearance.grant(CLEARANCE, OTHER)
        else:
            target.require_integrity = LabelSet()
        planned = 4 if change == "subscribe" else (2 if change == "unsubscribe" else 3)
        assert _calls_per_publish(broker, clearance_calls, event) == [planned, 0, 0]

    def test_reassignment_keeps_the_route(self):
        broker = Broker(audit=AuditLog())
        subscription = broker.subscribe("/t", lambda e: None, clearance=CLEARED)
        broker.publish(Event("/t", labels=[PATIENT]))
        subscription.clearance = PrivilegeSet.empty()
        assert broker.publish(Event("/t", labels=[PATIENT])) == 0
        assert broker.stats.index_hits == 1 and broker.stats.route_cache_hits == 1

    def test_reassignment_while_planning_leaves_the_plan_uncached(self, monkeypatch):
        """A grant or revoke made while a plan is being decided (another
        thread's, simulated here) must not leave a plan decided on the
        old clearance behind."""
        from repro.events.broker import Subscription

        broker = Broker(audit=AuditLog())
        first = broker.subscribe("/t", lambda e: None, clearance=CLEARED)
        second = broker.subscribe("/t", lambda e: None, clearance=CLEARED)
        decide = Subscription.cleared_for
        revoked = []

        def revoking(subscription, event):
            decision = decide(subscription, event)
            if subscription is first and not revoked:
                revoked.append(True)
                first.clearance = PrivilegeSet.empty()  # after its own decision
            return decision

        monkeypatch.setattr(Subscription, "cleared_for", revoking)
        assert broker.publish(Event("/t", labels=[PATIENT])) == 2  # decided before the revoke
        assert broker.publish(Event("/t", labels=[PATIENT])) == 1
        assert second.active and broker.stats.label_filtered == 1

    def test_plans_are_bounded(self, monkeypatch):
        from repro.events import broker as broker_module

        monkeypatch.setattr(broker_module, "_PLAN_CACHE_LIMIT", 2)
        broker = Broker(audit=AuditLog())
        broker.subscribe("/t", lambda e: None, clearance=CLEARED)
        for labels in ([PATIENT], [OTHER], [], [PATIENT, OTHER]):
            broker.publish(Event("/t", labels=labels))
            assert sum(len(route.plans) for route in broker._routes.values()) <= 2

    def test_constructor_keeps_its_keywords(self):
        from repro.events.broker import Subscription

        subscription = Subscription(
            subscription_id="s", topic="/t", callback=print, principal="p", clearance=CLEARED
        )
        assert subscription.clearance is CLEARED
        assert subscription.require_integrity == LabelSet()
        assert subscription.cleared_for(Event("/t", labels=[PATIENT]))


POLICY = parse_policy(
    """
    authority ecric.org.uk

    unit jailed {
        clearance label:conf:ecric.org.uk/patient
    }

    unit exporter {
        privileged
        clearance label:conf:ecric.org.uk/patient
    }
    """
)

#: Written by the handlers below (jailed clones share this list).
SEEN = []


def _record(unit, event):
    caller = sys._getframe(2)  # handler → the unit's bound method → the delivery
    SEEN.append((unit.name, caller.f_code.co_name, sys._getframe(3).f_code.co_name))
    unit.store.set("last", event.get("n"))
    if event.topic == "/in":
        unit.publish("/out", {"n": event.get("n")})


class TestDeliveryFrame:
    """Work-count pins: a delivery allocates no context objects, takes
    one call between the broker loop and the callback, takes no lock and
    calls no context function once its thread has delivered, and no-op
    label arguments build no label sets."""

    @pytest.fixture()
    def engine(self):
        engine = EventProcessingEngine(
            broker=Broker(audit=AuditLog()), policy=POLICY, audit=AuditLog()
        )
        engine.register(unit_from_function("/in", name="jailed")(_record))
        engine.register(unit_from_function("/out", name="exporter")(_record))
        del SEEN[:]
        return engine

    def _counting(self, monkeypatch, owner, name):
        made = []
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            made.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return made

    def test_no_context_objects(self, engine, monkeypatch):
        contexts = self._counting(monkeypatch, context_module.LabelContext, "__init__")
        containments = self._counting(monkeypatch, jail_module._Containment, "__init__")
        engine.publish("/in", {"n": "1"}, labels=[PATIENT])
        assert [name for name, _, _ in SEEN] == ["jailed", "exporter"]
        assert contexts == [] and containments == []

    def test_no_lock_and_no_context_call_after_a_threads_first_delivery(
        self, engine, monkeypatch
    ):
        engine.publish("/in", {"n": "0"}, labels=[PATIENT])  # registers the thread's cells
        acquired = []

        class CountingLock:
            def __init__(self, lock):
                self._lock = lock

            def __enter__(self):
                acquired.append(True)
                return self._lock.__enter__()

            def __exit__(self, *exc_info):
                return self._lock.__exit__(*exc_info)

        for stats in (engine.stats, engine.broker.stats):
            monkeypatch.setattr(stats, "_counter_lock", CountingLock(stats._counter_lock))
        calls = []
        # The engine module's own bindings too, should it import them again.
        for owner, name in (
            (context_module, "enter_labels"),
            (jail_module, "enter_jail"),
            (jail_module, "leave_jail"),
            (engine_module, "enter_labels"),
            (engine_module, "enter_jail"),
            (engine_module, "leave_jail"),
        ):
            if hasattr(owner, name):
                calls += [self._counting(monkeypatch, owner, name)]
        del SEEN[:]
        for n in range(1, 21):
            engine.publish("/in", {"n": str(n)}, labels=[PATIENT])
        assert len(SEEN) == 40
        assert acquired == []
        assert all(made == [] for made in calls)
        assert engine.stats.dispatched == 42
        assert engine.broker.stats.published == 42  # the units' publishes included

    def test_one_call_between_the_broker_loop_and_the_callback(self, engine):
        engine.publish("/in", {"n": "1"}, labels=[PATIENT])
        assert [frames for _, *frames in SEEN] == [["_run_callback", "_deliver_general"]] * 2

    def test_no_op_label_arguments_build_no_label_sets(self, engine, monkeypatch):
        built = {}
        for module in (engine_module, store_module):
            built[module.__name__] = self._counting(monkeypatch, module, "LabelSet")
        engine.publish("/in", {"n": "1"}, labels=[PATIENT])
        assert len(SEEN) == 2  # two store.set calls, one unit publish
        assert all(made == [] for made in built.values())
        store = engine.store_of("jailed")
        with context_module.LabelContext(LabelSet([PATIENT])):
            store.set("k", 1, add=[OTHER])
        assert built[store_module.__name__] != []


class TestPublishMany:
    def test_sync_batch_counts_deliveries(self):
        broker = Broker(audit=AuditLog())
        received = []
        broker.subscribe("/t", received.append)
        events = [Event("/t", {"n": str(i)}) for i in range(10)]
        assert broker.publish_many(events) == 10
        assert [e["n"] for e in received] == [str(i) for i in range(10)]
        assert broker.stats.published == 10

    def test_batch_audits_each_publish(self):
        audit = AuditLog()
        broker = Broker(audit=audit)
        broker.publish_many([Event("/t"), Event("/t")], publisher="importer")
        assert audit.count(component="broker", operation="publish") == 2

    def test_empty_batch(self):
        broker = Broker(audit=AuditLog())
        assert broker.publish_many([]) == 0
        assert broker.stats.published == 0

    def test_batch_accepts_every_event_before_delivering_the_first(self):
        audit = AuditLog()
        broker = Broker(audit=audit)
        accepted = []
        broker.subscribe(
            "/t", lambda event: accepted.append(audit.count(component="broker", operation="publish"))
        )
        broker.publish_many([Event("/t"), Event("/t"), Event("/t")])
        assert accepted == [3, 3, 3]

    def test_batch_respects_label_filtering(self):
        audit = AuditLog()
        broker = Broker(audit=audit)
        received = []
        broker.subscribe("/t", received.append, principal="nosy")
        broker.publish_many([Event("/t", labels=[PATIENT]), Event("/t")])
        assert len(received) == 1
        assert broker.stats.label_filtered == 1
        assert audit.count(component="broker", operation="deliver", decision="denied") == 1


class TestConcurrentPublishers:
    """Several threads publishing into one broker, as a ``StompServer``'s
    connection threads do: routes and clearance plans are built, replayed
    and dropped concurrently, and each subscriber still receives exactly
    the events it is cleared for, once each, in every publisher's order,
    with exact ``broker/deliver`` audit counts."""

    THREADS = 4
    EVENTS = 200
    TOPICS = ("/t/a", "/t/b", "/t/c")
    LABELS = ((), (PATIENT,), (OTHER,), (PATIENT, OTHER))
    CLEARANCES = {
        "both": PrivilegeSet({CLEARANCE: [PATIENT, OTHER]}),
        "patient": CLEARED,
        "none": PrivilegeSet.empty(),
    }

    def script(self, publisher):
        rng = random.Random(publisher)
        return [(rng.choice(self.TOPICS), rng.choice(self.LABELS)) for _ in range(self.EVENTS)]

    @pytest.mark.parametrize(
        "route_limit, plan_limit",
        [(4096, 4096), (4096, 1), (1, 4096)],
        ids=["cached", "plans-dropped", "routes-dropped"],
    )
    def test_each_subscriber_gets_its_cleared_events_in_publisher_order(
        self, monkeypatch, route_limit, plan_limit
    ):
        from repro.events import broker as broker_module

        monkeypatch.setattr(broker_module, "_ROUTE_CACHE_LIMIT", route_limit)
        monkeypatch.setattr(broker_module, "_PLAN_CACHE_LIMIT", plan_limit)
        audit = AuditLog()
        broker = Broker(audit=audit)
        received = {name: [] for name in self.CLEARANCES}
        for name, clearance in self.CLEARANCES.items():
            broker.subscribe("/t/#", received[name].append, principal=name, clearance=clearance)
        start = threading.Barrier(self.THREADS, timeout=30)

        def publish(publisher):
            start.wait()
            for n, (topic, labels) in enumerate(self.script(publisher)):
                broker.publish(Event(topic, {"p": str(publisher), "n": str(n)}, labels=labels))

        threads = [threading.Thread(target=publish, args=(p,)) for p in range(self.THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

        allowed = denied = 0
        for name, clearance in self.CLEARANCES.items():
            expected = {}
            for publisher in range(self.THREADS):
                for n, (_topic, labels) in enumerate(self.script(publisher)):
                    if clearance.clearance_covers(LabelSet(labels)):
                        expected.setdefault(str(publisher), []).append(str(n))
                        allowed += 1
                    else:
                        denied += 1
            order = {}
            for event in received[name]:
                order.setdefault(event["p"], []).append(event["n"])
            assert order == expected, name
        assert audit.count(component="broker", operation="deliver", decision="allowed") == allowed
        assert audit.count(component="broker", operation="deliver", decision="denied") == denied


class TestDeferredAudit:
    def test_notes_surface_through_queries(self):
        audit = AuditLog()
        audit.note("broker", "deliver", "u1", "allowed", LabelSet([PATIENT]))
        audit.note("broker", "deliver", "u2", "denied", detail="no clearance")
        records = audit.records(component="broker")
        assert [r.principal for r in records] == ["u1", "u2"]
        assert records[0].labels == LabelSet([PATIENT])
        assert audit.count(component="broker", decision="denied") == 1

    def test_counters_exact_past_ring_capacity(self):
        audit = AuditLog(capacity=4)
        for index in range(1000):
            audit.note("broker", "deliver", f"u{index}", "allowed")
        assert audit.count(component="broker") == 1000
        records = audit.records()
        assert len(records) == 4
        assert [r.principal for r in records] == ["u996", "u997", "u998", "u999"]

    def test_eager_record_flushes_pending_first(self):
        audit = AuditLog()
        audit.note("broker", "deliver", "first", "allowed")
        audit.allowed("engine", "publish", "second")
        assert [r.principal for r in audit.records()] == ["first", "second"]

    def test_clear_discards_pending(self):
        audit = AuditLog()
        audit.note("broker", "deliver", "u1", "allowed")
        audit.clear()
        assert len(audit) == 0
        assert audit.count() == 0

    def test_note_thread_safety(self):
        audit = AuditLog(capacity=100)

        def spam(tag):
            for _ in range(500):
                audit.note("broker", "deliver", tag, "allowed")

        threads = [threading.Thread(target=spam, args=(f"t{i}",)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert audit.count(component="broker") == 2000
