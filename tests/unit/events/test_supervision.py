"""Unit tests for the supervision layer (docs/ROBUSTNESS.md).

Covers the policy/bookkeeping classes, the circuit breaker state
machine, dead-letter semantics (metadata, label preservation,
clearance-gated inspection), and the supervised engine ladder — in
particular the retry/label interaction the issue calls out: a retried
callback re-establishes its LabelContext and jail containment from
scratch, and a callback that succeeds after a retry publishes and
audits exactly once.
"""

import threading

import pytest

from repro.core.audit import AuditLog
from repro.core.labels import LabelSet, conf_label
from repro.core.policy import parse_policy
from repro.core.privileges import PrivilegeSet
from repro.events import (
    Broker,
    CircuitBreaker,
    Event,
    EventProcessingEngine,
    SupervisionPolicy,
    Supervisor,
    Unit,
    current_labels,
    dlq_topic,
)
from repro.events.supervision import (
    ALREADY_SUSPENDED,
    CLOSED,
    HALF_OPEN,
    OPEN,
    RESTART,
    SUSPEND,
    UnitSupervisor,
    is_dlq_topic,
)
from repro.exceptions import CircuitOpenError, IsolationError, SafeWebError

PATIENT = conf_label("ecric.org.uk", "patient", "1")

POLICY = parse_policy(
    """
    authority ecric.org.uk

    unit flaky {
        clearance label:conf:ecric.org.uk/patient
    }

    unit sink {
        clearance label:conf:ecric.org.uk/patient
    }
    """
)


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_engine(supervision, audit: AuditLog = None):
    audit = audit if audit is not None else AuditLog()
    return EventProcessingEngine(
        broker=Broker(audit=audit),
        policy=POLICY,
        audit=audit,
        supervision=supervision,
    )


def dlq_tap(engine, unit_name: str, clearance=None):
    """Subscribe a collector to a unit's dead-letter topic."""
    collected = []
    engine.broker.subscribe(
        dlq_topic(unit_name),
        collected.append,
        principal="dlq-inspector",
        clearance=clearance,
    )
    return collected


def decisions(audit: AuditLog):
    return [
        (record.component, record.operation, record.principal, record.decision)
        for record in audit.records()
    ]


class TestPolicyAndTopics:
    def test_dlq_topic_shape(self):
        assert dlq_topic("flaky") == "/_dlq.flaky"
        assert is_dlq_topic("/_dlq.flaky")
        assert not is_dlq_topic("/patient_report")

    def test_policy_validation(self):
        with pytest.raises(SafeWebError):
            SupervisionPolicy(retry_budget=-1)
        with pytest.raises(SafeWebError):
            SupervisionPolicy(max_restarts=-1)
        with pytest.raises(SafeWebError):
            SupervisionPolicy(restart_window=0)


class TestUnitSupervisor:
    def test_restarts_until_window_budget_spent(self):
        clock = FakeClock()
        policy = SupervisionPolicy(max_restarts=2, restart_window=10.0)
        unit = UnitSupervisor("flaky", policy, clock)
        assert unit.note_failure() == RESTART
        assert unit.note_failure() == RESTART
        assert unit.note_failure() == SUSPEND
        assert unit.suspended
        assert unit.note_failure() == ALREADY_SUSPENDED

    def test_window_pruning_forgives_old_failures(self):
        clock = FakeClock()
        policy = SupervisionPolicy(max_restarts=2, restart_window=10.0)
        unit = UnitSupervisor("flaky", policy, clock)
        assert unit.note_failure() == RESTART
        assert unit.note_failure() == RESTART
        clock.advance(11.0)  # both failures age out of the window
        assert unit.note_failure() == RESTART
        assert not unit.suspended


class TestSupervisorDeadLetter:
    def _collect(self, broker, audit, clearance=None):
        collected = []
        broker.subscribe(
            dlq_topic("flaky"),
            collected.append,
            principal="dlq-inspector",
            clearance=clearance,
        )
        return collected

    def test_dead_letter_carries_metadata_and_labels(self):
        audit = AuditLog()
        broker = Broker(audit=audit)
        supervisor = Supervisor(SupervisionPolicy())
        collected = self._collect(
            broker, audit, clearance=PrivilegeSet({"clearance": [PATIENT]})
        )
        original = Event("/in", {"k": "v"}, payload="p", labels=[PATIENT])
        dead = supervisor.dead_letter(broker, audit, "flaky", original, "boom", 3)
        assert dead is not None
        assert [event.topic for event in collected] == ["/_dlq.flaky"]
        event = collected[0]
        assert event.payload == "p"
        assert event["k"] == "v"
        assert event["dlq_unit"] == "flaky"
        assert event["dlq_topic"] == "/in"
        assert event["dlq_reason"] == "boom"
        assert event["dlq_attempts"] == "3"
        assert event.labels == LabelSet([PATIENT])
        assert ("supervisor", "dead_letter", "flaky", "allowed") in decisions(audit)

    def test_dlq_inspection_is_clearance_gated(self):
        audit = AuditLog()
        broker = Broker(audit=audit)
        supervisor = Supervisor(SupervisionPolicy())
        uncleared = self._collect(broker, audit, clearance=None)
        original = Event("/in", {}, payload="p", labels=[PATIENT])
        supervisor.dead_letter(broker, audit, "flaky", original, "boom", 1)
        # The broker's ordinary label check withheld the labelled dead
        # letter from the subscriber without patient clearance.
        assert uncleared == []
        assert broker.stats.label_filtered == 1

    def test_dead_letter_of_dead_letter_suppressed(self):
        audit = AuditLog()
        broker = Broker(audit=audit)
        supervisor = Supervisor(SupervisionPolicy())
        collected = self._collect(broker, audit)
        looped = Event(dlq_topic("flaky"), {}, payload="p")
        assert supervisor.dead_letter(broker, audit, "flaky", looped, "boom", 1) is None
        assert collected == []
        assert ("supervisor", "dead_letter", "flaky", "denied") in decisions(audit)

    def test_dead_letter_disabled_by_policy_still_audited(self):
        audit = AuditLog()
        broker = Broker(audit=audit)
        supervisor = Supervisor(SupervisionPolicy(dead_letter=False))
        original = Event("/in", {}, payload="p")
        assert supervisor.dead_letter(broker, audit, "flaky", original, "boom", 1) is None
        assert ("supervisor", "dead_letter", "flaky", "denied") in decisions(audit)

    def test_circuit_open_is_not_retryable(self):
        supervisor = Supervisor()
        assert supervisor.retryable(RuntimeError("boom"))
        assert not supervisor.retryable(CircuitOpenError("open", breaker="db"))


class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        clock = FakeClock()
        audit = AuditLog()
        defaults = dict(failure_threshold=2, reset_timeout=10.0, audit=audit, clock=clock)
        defaults.update(kwargs)
        return CircuitBreaker("db", **defaults), clock, audit

    def test_opens_after_threshold_and_rejects_fast(self):
        breaker, _clock, audit = self._breaker()
        calls = []

        def bad():
            calls.append(1)
            raise RuntimeError("down")

        for _ in range(2):
            with pytest.raises(RuntimeError):
                breaker.call(bad)
        assert breaker.state == OPEN
        with pytest.raises(CircuitOpenError) as exc:
            breaker.call(bad)
        assert exc.value.breaker == "db"
        assert len(calls) == 2  # the open breaker never touched the backend
        assert ("breaker", "transition", "db", "denied") in decisions(audit)

    def test_success_resets_failure_count(self):
        breaker, _clock, _audit = self._breaker(failure_threshold=2)
        with pytest.raises(RuntimeError):
            breaker.call(lambda: (_ for _ in ()).throw(RuntimeError("x")))
        breaker.call(lambda: "ok")
        with pytest.raises(RuntimeError):
            breaker.call(lambda: (_ for _ in ()).throw(RuntimeError("x")))
        assert breaker.state == CLOSED

    def test_half_open_probe_success_closes(self):
        breaker, clock, audit = self._breaker()
        for _ in range(2):
            with pytest.raises(RuntimeError):
                breaker.call(lambda: (_ for _ in ()).throw(RuntimeError("x")))
        clock.advance(10.0)
        assert breaker.state == HALF_OPEN
        assert breaker.call(lambda: "ok") == "ok"
        assert breaker.state == CLOSED
        assert ("breaker", "transition", "db", "allowed") in decisions(audit)

    def test_half_open_probe_failure_reopens_and_restamps(self):
        breaker, clock, _audit = self._breaker()
        for _ in range(2):
            with pytest.raises(RuntimeError):
                breaker.call(lambda: (_ for _ in ()).throw(RuntimeError("x")))
        clock.advance(10.0)
        with pytest.raises(RuntimeError):
            breaker.call(lambda: (_ for _ in ()).throw(RuntimeError("x")))
        assert breaker.state == OPEN
        clock.advance(5.0)  # not yet a full reset_timeout since the re-open
        with pytest.raises(CircuitOpenError):
            breaker.before_call()

    def test_half_open_admits_a_single_probe(self):
        breaker, clock, _audit = self._breaker()
        for _ in range(2):
            with pytest.raises(RuntimeError):
                breaker.call(lambda: (_ for _ in ()).throw(RuntimeError("x")))
        clock.advance(10.0)
        breaker.before_call()  # the probe slot
        with pytest.raises(CircuitOpenError):
            breaker.before_call()

    def test_parameter_validation(self):
        with pytest.raises(SafeWebError):
            CircuitBreaker("db", failure_threshold=0)
        with pytest.raises(SafeWebError):
            CircuitBreaker("db", reset_timeout=-1)


class FlakyUnit(Unit):
    """Fails the first ``failures_before_success`` attempts per event,
    counting attempts through the (shared, jail-safe) labelled store."""

    unit_name = "flaky"

    def __init__(self, failures_before_success: int = 1, error=None, forward: bool = False):
        super().__init__()
        self.failures = failures_before_success
        self.error = error
        self.forward = forward
        self.setup_calls = 0

    def setup(self):
        self.setup_calls += 1
        self.subscribe("/in", self.on_event)

    def on_event(self, event):
        attempts = self.store.get("attempts", 0) + 1
        self.store.set("attempts", attempts)
        if attempts <= self.failures:
            raise self.error or RuntimeError(f"boom {attempts}")
        seen = self.store.get("seen", [])
        seen.append(event.payload)
        self.store.set("seen", seen)
        if self.forward:
            self.publish("/out", payload=event.payload)


class TestSupervisedEngine:
    def test_success_after_retry_observes_event_once(self):
        audit = AuditLog()
        engine = make_engine(SupervisionPolicy(retry_budget=2), audit=audit)
        engine.register(FlakyUnit(failures_before_success=1))
        engine.publish("/in", payload="p1", labels=[PATIENT])
        store = engine.store_of("flaky")
        assert store.get("seen") == ["p1"]
        assert store.get("attempts") == 2
        snapshot = engine.stats.snapshot()
        assert snapshot["retries"] == 1
        assert snapshot["dead_lettered"] == 0
        assert snapshot["restarts"] == 0

    def test_no_double_publish_no_double_audit_on_success_after_retry(self):
        audit = AuditLog()
        engine = make_engine(SupervisionPolicy(retry_budget=2), audit=audit)
        engine.register(FlakyUnit(failures_before_success=1, forward=True))
        out = []
        engine.broker.subscribe("/out", out.append, principal="tap")
        engine.publish("/in", payload="p1")
        # The failed first attempt never reached the publish; the retry
        # published exactly once, and exactly one publish was audited
        # under the unit's name.
        assert [event.payload for event in out] == ["p1"]
        publishes = [
            key for key in decisions(audit) if key[:3] == ("broker", "publish", "flaky")
        ]
        assert len(publishes) == 1

    def test_retry_reenters_label_context_from_scratch(self):
        class LabelProbe(Unit):
            unit_name = "flaky"

            def setup(self):
                self.subscribe("/in", self.on_event)

            def on_event(self, event):
                # The jail clones closure cells, so observations go
                # through the shared labelled store.
                probes = self.store.get("ambient", [])
                probes.append(tuple(sorted(current_labels().to_uris())))
                self.store.set("ambient", probes)
                attempts = self.store.get("attempts", 0) + 1
                self.store.set("attempts", attempts)
                if attempts == 1:
                    raise RuntimeError("first attempt dies after reading")

        engine = make_engine(SupervisionPolicy(retry_budget=1), audit=AuditLog())
        engine.register(LabelProbe())
        engine.publish("/in", payload="p", labels=[PATIENT])
        # Both attempts entered with exactly the event's labels: the
        # retry got a fresh LabelContext, not the failed attempt's
        # (possibly widened) ambient set.
        assert engine.store_of("flaky").get("ambient") == [
            (PATIENT.uri,),
            (PATIENT.uri,),
        ]

    def test_retry_reenters_jail_from_scratch(self):
        class JailProbe(Unit):
            unit_name = "flaky"

            def setup(self):
                self.subscribe("/in", self.on_event)

            def on_event(self, event):
                attempts = self.store.get("attempts", 0) + 1
                self.store.set("attempts", attempts)
                if attempts == 1:
                    raise RuntimeError("first attempt dies")
                # The retry must still be contained: file I/O denied.
                try:
                    open("/tmp/safeweb-supervision-leak.txt", "w")
                except IsolationError:
                    self.store.set("jailed_on_retry", True)

        engine = make_engine(SupervisionPolicy(retry_budget=1), audit=AuditLog())
        engine.register(JailProbe())
        engine.publish("/in", payload="p")
        assert engine.store_of("flaky").get("jailed_on_retry") is True

    def test_exhausted_budget_dead_letters_with_labels(self):
        audit = AuditLog()
        engine = make_engine(
            SupervisionPolicy(retry_budget=1, max_restarts=3), audit=audit
        )
        collected = dlq_tap(
            engine, "flaky", clearance=PrivilegeSet({"clearance": [PATIENT]})
        )
        unit = FlakyUnit(failures_before_success=99)
        engine.register(unit)
        engine.publish("/in", payload="p1", labels=[PATIENT])
        assert len(collected) == 1
        dead = collected[0]
        assert dead.topic == "/_dlq.flaky"
        assert dead.labels == LabelSet([PATIENT])
        assert dead["dlq_attempts"] == "2"  # first try + one retry
        assert dead["dlq_topic"] == "/in"
        snapshot = engine.stats.snapshot()
        assert snapshot["dead_lettered"] == 1
        assert snapshot["retries"] == 1
        # The exhausted delivery triggered a one-for-one restart.
        assert snapshot["restarts"] == 1
        assert unit.setup_calls == 2
        assert ("supervisor", "restart", "flaky", "allowed") in decisions(audit)

    def test_retries_and_restarts_never_sleep(self, monkeypatch):
        """Retries and one-for-one restarts follow a failure at once."""
        import time

        def no_sleep(seconds):
            raise AssertionError(f"supervision slept {seconds} s")

        monkeypatch.setattr(time, "sleep", no_sleep)
        engine = make_engine(SupervisionPolicy(retry_budget=2, max_restarts=3))
        unit = FlakyUnit(failures_before_success=99)
        engine.register(unit)
        engine.publish("/in", payload="p1", labels=[PATIENT])
        snapshot = engine.stats.snapshot()
        assert snapshot["retries"] == 2
        assert snapshot["restarts"] == 1
        assert snapshot["dead_lettered"] == 1

    def test_circuit_open_error_skips_retries(self):
        audit = AuditLog()
        engine = make_engine(SupervisionPolicy(retry_budget=5), audit=audit)
        collected = dlq_tap(engine, "flaky")
        engine.register(
            FlakyUnit(failures_before_success=99, error=CircuitOpenError("open", breaker="db"))
        )
        engine.publish("/in", payload="p1")
        assert len(collected) == 1
        assert collected[0]["dlq_attempts"] == "1"
        assert engine.stats.snapshot()["retries"] == 0

    def test_security_violation_never_retried_or_dead_lettered(self):
        audit = AuditLog()
        engine = make_engine(SupervisionPolicy(retry_budget=5), audit=audit)
        collected = dlq_tap(engine, "flaky")

        class Leaky(Unit):
            unit_name = "flaky"

            def setup(self):
                self.subscribe("/in", self.on_event)

            def on_event(self, event):
                open("/tmp/safeweb-supervision-leak.txt", "w")

        engine.register(Leaky())
        engine.publish("/in", payload="p1")
        assert collected == []
        snapshot = engine.stats.snapshot()
        assert snapshot["retries"] == 0
        assert snapshot["dead_lettered"] == 0
        assert ("engine", "callback", "flaky", "denied") in decisions(audit)

    def test_suspension_dead_letters_without_invoking_unit(self):
        audit = AuditLog()
        engine = make_engine(
            SupervisionPolicy(retry_budget=0, max_restarts=0), audit=audit
        )
        collected = dlq_tap(engine, "flaky")
        engine.register(FlakyUnit(failures_before_success=99))
        engine.publish("/in", payload="p1")  # fails, suspends the unit
        assert ("supervisor", "suspend", "flaky", "denied") in decisions(audit)
        engine.publish("/in", payload="p2")  # suspended: straight to DLQ
        assert [event["dlq_reason"] for event in collected] == [
            "RuntimeError('boom 1')",
            "unit suspended",
        ]
        # The callback only ever ran for the first event.
        assert engine.store_of("flaky").get("attempts") == 1
        assert engine.stats.snapshot()["dead_lettered"] == 2


def on_one_thread(*publishes):
    """Run *publishes* one after another on one new, long-lived thread.

    The broker delivers on the publishing thread, so every delivery —
    retries, dead letters and the next event's — runs there; an
    exception on it is re-raised here."""
    errors = []

    def run():
        try:
            for publish in publishes:
                publish()
        except BaseException as error:  # noqa: BLE001 - handed to the test thread
            errors.append(error)

    thread = threading.Thread(target=run, name="long-lived-publisher")
    thread.start()
    thread.join(10)
    assert not thread.is_alive(), "the publishing thread did not finish"
    if errors:
        raise errors[0]


class TestSupervisedEngineOnOneLongLivedThread:
    """The ladder on one long-lived publishing thread that runs many
    deliveries: nothing a failed attempt set up — ambient labels,
    containment — may outlive it into the next delivery that thread
    runs."""

    def test_success_after_retry_observes_event_once(self):
        engine = make_engine(SupervisionPolicy(retry_budget=2))
        engine.register(FlakyUnit(failures_before_success=1))
        on_one_thread(lambda: engine.publish("/in", payload="p1", labels=[PATIENT]))
        store = engine.store_of("flaky")
        assert store.get("seen") == ["p1"]
        assert store.get("attempts") == 2
        snapshot = engine.stats.snapshot()
        assert snapshot["retries"] == 1
        assert snapshot["dead_lettered"] == 0

    def test_failed_delivery_leaves_no_ambient_labels_behind(self):
        class LabelProbe(Unit):
            unit_name = "flaky"

            def setup(self):
                self.subscribe("/in", self.on_event)

            def on_event(self, event):
                entered = tuple(sorted(current_labels().to_uris()))
                self.store.set(f"ambient:{event.payload}", entered)
                self.store.set(f"thread:{event.payload}", threading.current_thread().name)
                if event.payload == "dies":
                    raise RuntimeError("dies inside a labelled context")

        engine = make_engine(SupervisionPolicy(retry_budget=0, max_restarts=5))
        engine.register(LabelProbe())
        on_one_thread(
            lambda: engine.publish("/in", payload="dies", labels=[PATIENT]),
            lambda: engine.publish("/in", payload="plain"),
        )
        # Same thread, next delivery: it enters with its own event's
        # labels (none), not the failed attempt's.
        store = engine.store_of("flaky")
        assert store.get("thread:dies") == store.get("thread:plain") == "long-lived-publisher"
        assert store.get("ambient:dies") == (PATIENT.uri,)
        assert store.get("ambient:plain") == ()

    def test_failed_jailed_delivery_leaves_the_thread_unjailed(self, tmp_path):
        target = tmp_path / "after.txt"
        engine = make_engine(SupervisionPolicy(retry_budget=1))
        engine.register(FlakyUnit(failures_before_success=99))
        written = []

        def plain_subscriber(event):
            target.write_text("the thread is free again")
            written.append(threading.current_thread().name)

        engine.broker.subscribe("/after", plain_subscriber, principal="exporter")
        on_one_thread(
            lambda: engine.publish("/in", payload="p1"),
            lambda: engine.publish("/after"),
        )
        assert written == ["long-lived-publisher"] and target.exists()
        assert engine.stats.snapshot()["dead_lettered"] == 1

    def test_exhausted_budget_dead_letters_with_labels(self):
        engine = make_engine(SupervisionPolicy(retry_budget=1, max_restarts=3))
        collected = dlq_tap(
            engine, "flaky", clearance=PrivilegeSet({"clearance": [PATIENT]})
        )
        engine.register(FlakyUnit(failures_before_success=99))
        on_one_thread(lambda: engine.publish("/in", payload="p1", labels=[PATIENT]))
        assert [event.payload for event in collected] == ["p1"]
        dead = collected[0]
        assert dead.labels == LabelSet([PATIENT])
        assert dead["dlq_attempts"] == "2"
        snapshot = engine.stats.snapshot()
        assert snapshot["dead_lettered"] == 1
        assert snapshot["restarts"] == 1


class TestRestartUnderConcurrentPublishers:
    def test_restarts_lose_no_event_published_from_other_threads(self):
        """Every failing delivery restarts the unit (new subscriptions
        live before the old ones go) while three other threads keep
        publishing into the inline broker: each of their events is
        observed at least once, none falls between the two wirings."""

        class Recorder(Unit):
            unit_name = "flaky"

            def setup(self):
                self.subscribe("/in", self.on_event)

            def on_event(self, event):
                if event.payload.startswith("boom"):
                    raise RuntimeError(event.payload)
                self.store.set(f"seen:{event.payload}", True)

        engine = make_engine(
            SupervisionPolicy(retry_budget=0, max_restarts=1000, restart_window=60.0)
        )
        collected = dlq_tap(engine, "flaky")
        engine.register(Recorder())
        start = threading.Barrier(4, timeout=30)
        errors = []

        def publish(prefix):
            try:
                start.wait()
                for index in range(100):
                    engine.publish("/in", payload=f"{prefix}{index}")
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=publish, args=("boom",))] + [
            threading.Thread(target=publish, args=(f"t{n}-",)) for n in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not errors and not any(thread.is_alive() for thread in threads)
        store = engine.store_of("flaky")
        missing = [
            f"t{n}-{index}"
            for n in range(3)
            for index in range(100)
            if not store.get(f"seen:t{n}-{index}")
        ]
        assert missing == []
        assert sorted(event.payload for event in collected) == sorted(
            f"boom{index}" for index in range(100)
        )
        assert engine.stats.snapshot()["restarts"] == 100


class TestBreakerGuardedStorage:
    def test_data_storage_routes_writes_through_breaker(self):
        from repro.mdt.storage_unit import DataStorage

        class FailingDB:
            def __init__(self):
                self.calls = 0

            def upsert(self, document):
                self.calls += 1
                raise RuntimeError("backend down")

        clock = FakeClock()
        db = FailingDB()
        breaker = CircuitBreaker("app-db", failure_threshold=2, reset_timeout=30.0, clock=clock)
        storage = DataStorage(db, breaker=breaker)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                storage._upsert({"_id": "x"})
        with pytest.raises(CircuitOpenError):
            storage._upsert({"_id": "x"})
        assert db.calls == 2  # the open breaker shed the third write
        assert storage.documents_written == 0

    def test_data_storage_resumes_writes_after_reset_timeout(self):
        from repro.mdt.storage_unit import DataStorage
        from repro.storage.docstore import Database

        class FlakyDB:
            def __init__(self, real):
                self.real = real
                self.fail = True
                self.calls = 0

            def upsert(self, document):
                self.calls += 1
                if self.fail:
                    raise RuntimeError("backend down")
                return self.real.upsert(document)

        clock = FakeClock()
        db = FlakyDB(Database("app"))
        breaker = CircuitBreaker("app-db", failure_threshold=1, reset_timeout=10.0, clock=clock)
        storage = DataStorage(db, breaker=breaker)
        with pytest.raises(RuntimeError):
            storage._upsert({"_id": "a"})
        with pytest.raises(CircuitOpenError):
            storage._upsert({"_id": "b"})
        assert db.calls == 1  # rejected without backend contact

        clock.advance(10.0)
        db.fail = False
        storage._upsert({"_id": "c"})  # half-open probe succeeds, breaker closes
        storage._upsert({"_id": "d"})
        assert breaker.state == "closed"
        assert db.real.all_doc_ids() == ["c", "d"]
        assert storage.documents_written == 2
