"""Unit tests for the event processing engine (paper §4.3)."""

import sys
import threading
import time

import pytest

from repro.core.audit import AuditLog
from repro.core.labels import LabelSet, conf_label, int_label
from repro.core.policy import Policy, parse_policy
from repro.events import Broker, Event, EventProcessingEngine, Unit, unit_from_function
from repro.events.cluster import ClusterRouter, shard_policy_document
from repro.events.context import current_labels
from repro.events.stomp import StompServer
from repro.exceptions import SafeWebError

PATIENT_ROOT = conf_label("ecric.org.uk", "patient")
PATIENT_1 = PATIENT_ROOT.child("1")
LIST_LABEL = conf_label("ecric.org.uk", "patient_list")
TRUSTED = int_label("ecric.org.uk", "mdt")

POLICY = parse_policy(
    """
    authority ecric.org.uk

    unit collector {
        clearance label:conf:ecric.org.uk/patient
        declassification label:conf:ecric.org.uk/patient
        endorsement label:int:ecric.org.uk/mdt
    }

    unit reader {
        clearance label:conf:ecric.org.uk/patient
    }

    unit sink {
        clearance label:conf:ecric.org.uk/patient
        clearance label:conf:ecric.org.uk/patient_list
    }

    unit importer {
        privileged
        withhold label:conf:ecric.org.uk/secret
    }
    """
)


def make_engine(**kwargs) -> EventProcessingEngine:
    defaults = dict(
        broker=Broker(raise_errors=True),
        policy=POLICY,
        audit=AuditLog(),
        raise_callback_errors=True,
    )
    defaults.update(kwargs)
    return EventProcessingEngine(**defaults)


class Collector(Unit):
    unit_name = "collector"

    def setup(self):
        self.subscribe("/patient_report", self.on_report, selector="type = 'cancer'")
        self.subscribe("/next_day", self.on_next_day)

    def on_report(self, event):
        patients = self.store.get("patient_list", [])
        patients.append(event["patient_id"])
        self.store.set("patient_list", patients)

    def on_next_day(self, _event):
        patients = self.store.get("patient_list", [])
        self.publish(
            "/daily_report",
            payload=",".join(patients),
            remove_all=True,
            add=[LIST_LABEL],
        )


class TestRegistration:
    def test_register_resolves_policy_principal(self):
        engine = make_engine()
        engine.register(Collector())
        assert engine.unit_names == ["collector"]

    def test_duplicate_rejected(self):
        engine = make_engine()
        engine.register(Collector())
        with pytest.raises(SafeWebError):
            engine.register(Collector())

    def test_unknown_unit_fails_closed(self):
        engine = make_engine()

        class Mystery(Unit):
            unit_name = "mystery"

        from repro.exceptions import PolicyError

        with pytest.raises(PolicyError):
            engine.register(Mystery())

    def test_no_policy_requires_explicit_principal(self):
        engine = EventProcessingEngine(broker=Broker())
        with pytest.raises(SafeWebError):
            engine.register(Collector())

    def test_unregister_removes_subscriptions(self):
        engine = make_engine()
        engine.register(Collector())
        engine.unregister("collector")
        assert engine.unit_names == []
        assert len(engine.broker) == 0

    def test_unit_outside_engine_raises(self):
        unit = Collector()
        with pytest.raises(SafeWebError):
            unit.publish("/t")
        with pytest.raises(SafeWebError):
            unit.store.get("x")

    def test_unregister_uses_principal_name_not_unit_name(self):
        """Regression: subscriptions are registered under the *principal*
        name; the seed removed them by unit name, leaking every live
        subscription of a unit whose policy principal differs."""
        from repro.core.principals import UnitPrincipal
        from repro.core.privileges import CLEARANCE, PrivilegeSet

        engine = make_engine()

        class Renamed(Unit):
            unit_name = "renamed_unit"

            def setup(self):
                self.subscribe("/in", self.on_event)

            def on_event(self, event):
                self.store.set("deliveries", self.store.get("deliveries", 0) + 1)

        principal = UnitPrincipal(
            "principal_alias",  # differs from unit.name on purpose
            privileges=PrivilegeSet({CLEARANCE: [PATIENT_ROOT]}),
        )
        engine.register(Renamed(), principal=principal)
        store = engine.store_of("renamed_unit")
        engine.publish("/in", labels=[PATIENT_1])
        assert store.get("deliveries") == 1
        engine.unregister("renamed_unit")
        assert len(engine.broker) == 0  # seed left the subscription live
        engine.publish("/in", labels=[PATIENT_1])
        assert store.get("deliveries") == 1

    def test_unregister_runs_teardown_and_detaches_services(self):
        engine = make_engine()
        torn_down = []

        class Ephemeral(Collector):
            def teardown(self):
                torn_down.append(self.name)

        unit = Ephemeral()
        engine.register(unit)
        engine.unregister("collector")
        assert torn_down == ["collector"]
        # Detached: the unit can no longer reach the engine at all.
        with pytest.raises(SafeWebError):
            unit.publish("/daily_report")
        with pytest.raises(SafeWebError):
            unit.store.get("patient_list")

    def test_unregister_closes_retained_service_handles(self):
        """Even a handle captured before unregister (e.g. by a jail-
        isolated clone, whose __deepcopy__ shares it) is dead after."""
        engine = make_engine()
        unit = Collector()
        engine.register(unit)
        services = unit._services
        engine.unregister("collector")
        with pytest.raises(SafeWebError):
            services.publish("/t", None, None, (), (), False)
        with pytest.raises(SafeWebError):
            services.register_subscription("/t", lambda e: None, None)

    def test_raising_teardown_still_revokes_services(self):
        engine = make_engine()
        unit = Collector()
        unit.teardown = lambda: (_ for _ in ()).throw(ValueError("teardown bug"))
        engine.register(unit)
        services = unit._services
        engine.unregister("collector")  # must not raise
        with pytest.raises(SafeWebError):
            services.publish("/t", None, None, (), (), False)
        assert engine.audit.count(
            component="engine", operation="teardown", decision="denied"
        ) == 1
        assert engine.audit.count(
            component="engine", operation="unregister", decision="allowed"
        ) == 1


class TestStatsAndDrain:
    def test_stats_snapshot_shape(self):
        engine = make_engine()
        assert set(engine.stats.snapshot()) == {
            "dispatched",
            "callback_errors",
            "retries",
            "restarts",
            "dead_lettered",
        }

    def test_engine_is_synchronous(self):
        engine = make_engine()
        engine.register(Collector())
        engine.publish("/patient_report", {"type": "cancer", "patient_id": "p1"})
        # The delivery ran inside publish: nothing is left to wait for.
        assert engine.stats.dispatched == 1
        assert not engine.parallel
        assert engine.drain(1)
        engine.stop()


class Tally(Unit):
    """Counts its deliveries on ``/in`` in the labelled store."""

    unit_name = "reader"

    def setup(self):
        self.subscribe("/in", self.on_event)

    def on_event(self, event):
        self.store.set("n", self.store.get("n", 0) + 1)


class Stamper(Unit):
    """Write-only: each key's labels are exactly the ambient set the
    engine established for the delivery that wrote it."""

    unit_name = "reader"

    def setup(self):
        self.subscribe("/in", self.on_event)

    def on_event(self, event):
        self.store.set(f"k:{event['i']}", event["i"])


class TestUnitLifecycleDuringDelivery:
    """Unregistering and stopping around deliveries on the publishing thread."""

    def test_unregister_stops_delivery(self):
        engine = make_engine()
        engine.register(Tally())
        store = engine.store_of("reader")
        engine.publish("/in")
        engine.unregister("reader")
        engine.publish("/in")
        assert store.get("n") == 1

    def test_self_unregister_from_callback_does_not_stall(self):
        class SelfRemover(Unit):
            unit_name = "importer"

            def setup(self):
                self.subscribe("/in", self.on_event)

            def on_event(self, event):
                self.store.set("ran", True)
                event_engine.unregister("importer")

        engine = event_engine = make_engine()
        engine.register(SelfRemover())
        store = engine.store_of("importer")
        start = time.monotonic()
        engine.publish("/in")
        elapsed = time.monotonic() - start
        assert store.get("ran") is True
        assert engine.unit_names == []
        assert elapsed < 5, f"self-unregister stalled the publisher for {elapsed:.1f}s"

    def test_stop_leaves_the_broker_delivering(self):
        """``stop`` is a no-op: the engine owns no threads."""
        engine = make_engine()
        assert EventProcessingEngine.parallel is False
        engine.register(Tally())
        engine.stop()
        engine.publish("/in")
        assert engine.drain(10)
        assert engine.store_of("reader").get("n") == 1


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestWorkerEngineOnItsListenerThread:
    """A cluster worker's engine: a :class:`ClusterRouter` to a broker
    shard delivers every event for one principal on that principal's
    long-lived STOMP listener thread, one delivery after another, so
    nothing a delivery set up — ambient labels, the jail — may outlive
    it into the next delivery that thread runs."""

    @pytest.fixture
    def worker(self):
        shard_policy = Policy(shard_policy_document(POLICY.document))
        server = StompServer(Broker(audit=AuditLog()), policy=shard_policy).start()
        router = ClusterRouter({"shard-0": server.address}, audit=AuditLog())
        yield make_engine(broker=router, raise_callback_errors=False)
        router.close()
        server.stop()

    def test_deliveries_run_on_one_listener_thread_in_publish_order(self, worker):
        class Sequencer(Unit):
            unit_name = "reader"

            def setup(self):
                self.subscribe("/in", self.on_event)

            def on_event(self, event):
                thread = threading.current_thread().name
                self.store.set("order", self.store.get("order", []) + [int(event["i"])])
                self.store.set("threads", self.store.get("threads", []) + [thread])

        worker.register(Sequencer())
        for index in range(100):
            worker.publish("/in", {"i": str(index)})
        store = worker.store_of("reader")
        assert wait_for(lambda: len(store.get("order", [])) == 100)
        assert store.get("order") == list(range(100))
        threads = set(store.get("threads"))
        assert len(threads) == 1 and threading.current_thread().name not in threads

    def test_failed_delivery_leaves_no_labels_and_no_jail_behind(self, worker, tmp_path):
        class LabelProbe(Unit):
            unit_name = "reader"

            def setup(self):
                self.subscribe("/in", self.on_event)

            def on_event(self, event):
                self.store.set(f"ambient:{event.payload}", current_labels().to_uris())
                self.store.set(f"thread:{event.payload}", threading.current_thread().name)
                if event.payload == "dies":
                    raise RuntimeError("dies inside a labelled, jailed context")

        after = []

        def trusted(event):
            # The same principal's link, so the same listener thread: an
            # unjailed callback that writes a file and reads the ambient set.
            (tmp_path / "after.txt").write_text("the listener is free again")
            after.append((threading.current_thread().name, current_labels().to_uris()))

        worker.register(LabelProbe())
        worker.broker.subscribe("/after", trusted, principal="reader")
        worker.publish("/in", payload="dies", labels=[PATIENT_1])
        worker.publish("/in", payload="plain")
        worker.publish("/after")
        assert wait_for(lambda: after)
        store = worker.store_of("reader")
        listener = store.get("thread:dies")
        assert store.get("thread:plain") == listener
        assert store.get("ambient:dies") == [PATIENT_1.uri]
        assert store.get("ambient:plain") == []
        assert after == [(listener, [])]
        assert (tmp_path / "after.txt").exists()
        assert worker.stats.callback_errors == 1


class TestConcurrentPublishers:
    """Several threads publishing into one engine over the inline broker:
    each delivery runs on its publisher's thread, in its own context."""

    THREADS = 4

    def run_threads(self, publish_from) -> None:
        errors = []
        start = threading.Barrier(self.THREADS, timeout=30)

        def worker(index):
            try:
                start.wait()
                publish_from(index)
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not errors and not any(thread.is_alive() for thread in threads)

    def test_each_publisher_keeps_its_own_labels(self):
        engine = make_engine()
        engine.register(Stamper())

        def publish_from(index):
            label = PATIENT_ROOT.child(str(index))
            for n in range(50):
                engine.publish("/in", {"i": f"{index}:{n}"}, labels=[label])

        self.run_threads(publish_from)
        store = engine.store_of("reader")
        assert len(store.keys()) == self.THREADS * 50
        for key in store.keys():
            index = key.split(":")[1]
            assert store.labels_for(key) == LabelSet([PATIENT_ROOT.child(index)]), key

    def test_jail_contains_every_concurrent_delivery(self, tmp_path):
        engine = make_engine(broker=Broker(), raise_callback_errors=False)

        @unit_from_function("/in", name="reader")
        def leaker(unit, event):
            (tmp_path / f"leak-{event['i']}").write_text("secret")

        @unit_from_function("/in", name="importer")
        def exporter(unit, event):
            (tmp_path / f"export-{event['i']}").write_text("exported")

        engine.register(leaker)
        engine.register(exporter)

        def publish_from(index):
            for n in range(25):
                engine.publish("/in", {"i": f"{index}-{n}"})

        self.run_threads(publish_from)
        written = sorted(path.name for path in tmp_path.iterdir())
        assert written == sorted(
            f"export-{index}-{n}" for index in range(self.THREADS) for n in range(25)
        )
        assert engine.audit.count(
            component="engine", operation="callback", decision="denied"
        ) == self.THREADS * 25

    def test_stats_count_every_concurrent_dispatch(self):
        engine = make_engine()
        engine.register(Tally())

        def publish_from(index):
            for _ in range(250):
                engine.publish("/in")

        self.run_threads(publish_from)
        assert engine.stats.dispatched == self.THREADS * 250

    def test_stats_stay_exact_and_bounded_under_thread_churn(self):
        """32 short-lived threads, four alive at a time: every delivery
        counted, and a read leaves no cell of a finished thread behind."""
        engine = make_engine()
        engine.register(Tally())

        def publish_fifty():
            for _ in range(50):
                engine.publish("/in")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # preempt often: a lost update would show
        try:
            for _wave in range(8):
                threads = [threading.Thread(target=publish_fifty) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert engine.stats.dispatched == 32 * 50
        assert engine.stats.snapshot()["dispatched"] == 32 * 50
        assert len(engine.stats._counter_cells) <= threading.active_count()


class TestListing1Pipeline:
    """End-to-end reproduction of the paper's Listing 1 behaviour."""

    def test_labels_flow_from_events_through_store_to_publication(self):
        engine = make_engine()
        engine.register(Collector())
        daily = []
        engine.broker.subscribe(
            "/daily_report",
            daily.append,
            principal="sink",
            clearance=POLICY.unit("sink").privileges,
        )

        patient2 = PATIENT_ROOT.child("2")
        engine.publish("/patient_report", {"type": "cancer", "patient_id": "p1"}, labels=[PATIENT_1])
        engine.publish("/patient_report", {"type": "cancer", "patient_id": "p2"}, labels=[patient2])
        engine.publish("/patient_report", {"type": "benign", "patient_id": "p3"}, labels=[PATIENT_1])
        engine.publish("/next_day", {})

        assert len(daily) == 1
        report = daily[0]
        assert report.payload == "p1,p2"
        # remove_all stripped both patient labels; add applied the list label.
        assert report.labels == LabelSet([LIST_LABEL])

    def test_store_accumulated_labels(self):
        engine = make_engine()
        engine.register(Collector())
        engine.publish("/patient_report", {"type": "cancer", "patient_id": "p1"}, labels=[PATIENT_1])
        store = engine.store_of("collector")
        assert store.labels_for("patient_list") == LabelSet([PATIENT_1])


class TestPublishEnforcement:
    def test_declassification_denied_without_privilege(self):
        engine = make_engine()

        @unit_from_function("/in", name="reader")
        def leaky(unit, event):
            unit.publish("/out", remove_all=True)

        engine.register(leaky)
        received = []
        engine.broker.subscribe("/out", received.append, principal="watcher")
        from repro.exceptions import DeclassificationError

        with pytest.raises(DeclassificationError):
            engine.publish("/in", labels=[PATIENT_1])
        assert received == []
        assert engine.audit.count(component="engine", operation="declassify", decision="denied") == 1

    def test_labels_stick_without_removal(self):
        engine = make_engine()

        @unit_from_function("/in", name="reader")
        def forwarder(unit, event):
            unit.publish("/out", {"from": "forwarder"})

        engine.register(forwarder)
        received = []
        engine.broker.subscribe(
            "/out", received.append, clearance=POLICY.unit("reader").privileges
        )
        engine.publish("/in", labels=[PATIENT_1])
        assert len(received) == 1
        assert received[0].labels == LabelSet([PATIENT_1])

    def test_adding_confidentiality_needs_no_privilege(self):
        engine = make_engine()
        extra = conf_label("ecric.org.uk", "patient", "extra")

        @unit_from_function("/in", name="reader")
        def wrapper(unit, event):
            unit.publish("/out", add=[extra])

        engine.register(wrapper)
        received = []
        engine.broker.subscribe(
            "/out", received.append, clearance=POLICY.unit("reader").privileges
        )
        engine.publish("/in", labels=[PATIENT_1])
        assert received[0].labels == LabelSet([PATIENT_1, extra])

    def test_endorsement_requires_privilege(self):
        engine = make_engine()

        @unit_from_function("/in", name="reader")
        def endorser(unit, event):
            unit.publish("/out", add=[TRUSTED])

        engine.register(endorser)
        from repro.exceptions import EndorsementError

        with pytest.raises(EndorsementError):
            engine.publish("/in")

    def test_endorsement_with_privilege(self):
        engine = make_engine()

        @unit_from_function("/in", name="collector")
        def endorser(unit, event):
            unit.publish("/out", add=[TRUSTED])

        engine.register(endorser)
        received = []
        engine.broker.subscribe("/out", received.append)
        engine.publish("/in")
        assert received[0].labels == LabelSet([TRUSTED])

    def test_callback_errors_swallowed_by_default(self):
        engine = make_engine(raise_callback_errors=False)

        @unit_from_function("/in", name="reader")
        def broken(unit, event):
            raise ValueError("bug")

        engine.register(broken)
        engine.publish("/in")  # must not raise
        assert engine.audit.count(component="engine", operation="callback", decision="denied") == 1


class TestSubscriptionClearance:
    def test_uncleared_unit_never_sees_event(self):
        engine = make_engine()
        seen = []

        @unit_from_function("/secret_topic", name="reader")  # cleared for /patient only
        def spy(unit, event):
            seen.append(event)

        engine.register(spy)
        secret = conf_label("ecric.org.uk", "secret")
        engine.publish("/secret_topic", labels=[secret])
        assert seen == []
        assert engine.broker.stats.label_filtered == 1

    def test_privileged_unit_withholding(self):
        engine = make_engine()
        seen = []

        @unit_from_function("/import", name="importer")
        def importer(unit, event):
            seen.append(event)

        engine.register(importer)
        secret = conf_label("ecric.org.uk", "secret")
        engine.publish("/import", labels=[secret])
        assert seen == []  # withheld
        engine.publish("/import")
        assert len(seen) == 1


class TestIsolationIntegration:
    def test_jailed_unit_cannot_do_io(self, tmp_path):
        engine = make_engine()
        target = tmp_path / "leak.txt"

        @unit_from_function("/in", name="reader")
        def exfiltrate(unit, event):
            with open(target, "w") as handle:
                handle.write("secret")

        engine.register(exfiltrate)
        from repro.exceptions import IsolationError

        with pytest.raises(IsolationError):
            engine.publish("/in", labels=[PATIENT_1])
        assert not target.exists()
        assert engine.audit.count(component="engine", operation="callback", decision="denied") == 1

    def test_privileged_unit_can_do_io(self, tmp_path):
        engine = make_engine()
        target = tmp_path / "export.txt"

        @unit_from_function("/in", name="importer")
        def exporter(unit, event):
            with open(target, "w") as handle:
                handle.write("exported")

        engine.register(exporter)
        engine.publish("/in")
        assert target.read_text() == "exported"

    def test_privileged_unit_lifted_when_called_from_jailed_publisher(self, tmp_path):
        """Jailed unit publishes → privileged subscriber still gets I/O."""
        engine = make_engine()
        target = tmp_path / "chain.txt"

        @unit_from_function("/in", name="reader")
        def stage_one(unit, event):
            unit.publish("/stage2")

        @unit_from_function("/stage2", name="importer")
        def stage_two(unit, event):
            target.write_text("written by privileged unit")

        engine.register(stage_one)
        engine.register(stage_two)
        engine.publish("/in")
        assert target.exists()

    def test_isolation_can_be_disabled_for_baseline(self, tmp_path):
        engine = make_engine(isolation=False)
        target = tmp_path / "baseline.txt"

        @unit_from_function("/in", name="reader")
        def writer(unit, event):
            target.write_text("no jail")

        engine.register(writer)
        engine.publish("/in")
        assert target.exists()

    def test_unit_state_not_shared_between_callbacks(self):
        engine = make_engine()

        class Stateful(Unit):
            unit_name = "reader"

            def __init__(self):
                super().__init__()
                self.seen = []

            def setup(self):
                self.subscribe("/in", self.on_event)

            def on_event(self, event):
                # mutations of self land on the isolated copy
                self.seen.append(event.topic)
                self.store.set("count", len(self.seen))

        unit = Stateful()
        engine.register(unit)
        engine.publish("/in")
        engine.publish("/in")
        assert unit.seen == []  # original untouched
        # Duplication happens at *registration* (paper §4.3), so the
        # isolated copy accumulates across its own invocations but the
        # accumulation is invisible outside the jail.
        assert engine.store_of("reader").get("count") == 2
