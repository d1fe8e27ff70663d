"""Property suite: no silent loss under injected faults.

The supervision contract (docs/ROBUSTNESS.md) says that under injected
faults every event delivered to a unit is

* **observed** by the unit (possibly more than once — a fault *after*
  the callback body forces a retry, so delivery is at-least-once), or
* **dead-lettered** on ``/_dlq.<unit>`` with the original event's
  labels intact, or
* **audited as denied** (a fault at the delivery point itself is
  contained by the broker and recorded),

and never silently lost. These properties drive *generated* fault
schedules over the engine-tier chaos points
(``engine.deliver:<unit>``, ``engine.callback.before:<unit>``,
``engine.callback.after:<unit>``) and require:

1. the accounting above holds exactly (lost events == injected
   delivery faults == broker containment denials);
2. an inline and a threaded broker (deliveries on the dispatcher
   thread) produce identical per-unit observation sequences,
   dead-letter streams and supervision counters under the *same*
   schedule;
3. a deliberately lossy supervisor (drops dead letters instead of
   publishing them) is caught by the same checker.

The cluster engine's version of the guarantee — across a worker
process's death — is tests/property/test_cluster_engine.py's. The
remaining named points are pinned deterministically below
(``broker.publish``, ``broker.dispatch``) and in the integration suites
(``bridge.*``, ``stomp.client.flush`` in
tests/integration/test_bridge_robustness.py; ``federation.*`` in
tests/integration/test_federation_restart.py).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.audit import AuditLog
from repro.core.labels import conf_label
from repro.core.policy import Policy, PolicyDocument, UnitSpec
from repro.core.privileges import PrivilegeSet
from repro.events import (
    Broker,
    EventProcessingEngine,
    SupervisionPolicy,
    Supervisor,
    Unit,
    dlq_topic,
)
from repro.faults import ChaosInjector, InjectedFault
from tests.threaded import settle

AUTHORITY = "ecric.org.uk"
TAG_ROOT = conf_label(AUTHORITY, "tag")
POOL = [conf_label(AUTHORITY, "tag", str(index)) for index in range(3)]
UNIT_NAMES = ["u0", "u1", "u2"]

#: The engine-tier points the generated schedules draw from. ``on`` is
#: the absolute arrival number at the (per-unit) point; note that
#: retries re-hit the callback points, so later arrivals exist even for
#: short event sequences.
FAULT_KINDS = ("deliver", "before", "after")

RETRY_BUDGET = 1
POLICY_KW = dict(
    retry_budget=RETRY_BUDGET,
    # max_restarts=0 suspends a unit on its first exhausted delivery —
    # the restart path itself is pinned by the unit tests.
    max_restarts=0,
    restart_window=60.0,
)


def point_name(kind: str, unit: str) -> str:
    return {
        "deliver": f"engine.deliver:{unit}",
        "before": f"engine.callback.before:{unit}",
        "after": f"engine.callback.after:{unit}",
    }[kind]


# -- generators ---------------------------------------------------------------

unit_counts = st.integers(1, 3)


@st.composite
def scenarios(draw):
    count = draw(unit_counts)
    units = UNIT_NAMES[:count]
    events = [
        {
            "topic": f"/ext/{draw(st.sampled_from(units))}",
            "payload": f"p{index}",
            "labels": tuple(
                draw(st.lists(st.sampled_from(POOL), unique=True, max_size=2))
            ),
        }
        for index in range(draw(st.integers(1, 12)))
    ]
    faults = {}
    for unit in units:
        for kind in FAULT_KINDS:
            arrivals = draw(
                st.lists(st.integers(1, 14), unique=True, max_size=3)
            )
            if arrivals:
                faults[point_name(kind, unit)] = tuple(sorted(arrivals))
    return units, events, faults


# -- scenario machinery --------------------------------------------------------


class Recorder(Unit):
    """Logs every observation to the shared store (jail-safe)."""

    def __init__(self, name: str):
        super().__init__()
        self.unit_name = name

    def setup(self):
        self.subscribe(f"/ext/{self.name}", self.on_event)

    def on_event(self, event):
        log = self.store.get("obs", [])
        log.append((event.payload, tuple(sorted(event.labels.to_uris()))))
        self.store.set("obs", log)


def build_policy(units) -> Policy:
    document = PolicyDocument(authority=AUTHORITY)
    for unit in units:
        document.units[unit] = UnitSpec(
            name=unit, grants={"clearance": [TAG_ROOT.uri]}
        )
    return Policy(document)


def arm(faults) -> ChaosInjector:
    chaos = ChaosInjector()
    for point, arrivals in faults.items():
        chaos.fail_at(point, on=arrivals)
    return chaos


def run_scenario(units, events, faults, supervisor=None, threaded=False):
    """Run one fault schedule; returns the per-unit outcome."""
    chaos = arm(faults)
    audit = AuditLog()
    broker = Broker(threaded=threaded, audit=audit, chaos=chaos)
    engine = EventProcessingEngine(
        broker=broker,
        policy=build_policy(units),
        audit=audit,
        supervision=supervisor or SupervisionPolicy(**POLICY_KW),
        chaos=chaos,
    )
    dlq = {unit: [] for unit in units}
    for unit in units:
        engine.broker.subscribe(
            dlq_topic(unit),
            dlq[unit].append,
            principal="dlq-inspector",
            clearance=PrivilegeSet({"clearance": [TAG_ROOT]}),
        )
    for unit in units:
        engine.register(Recorder(unit))
    try:
        for event in events:
            engine.publish(
                event["topic"], payload=event["payload"], labels=list(event["labels"])
            )
        # On a threaded broker a dead letter is published from the
        # dispatcher thread, so it queues behind the first drain.
        settle(broker)
    finally:
        broker.stop()
    observed = {
        unit: list(engine.store_of(unit).get("obs", [])) for unit in units
    }
    denials = {unit: 0 for unit in units}
    for record in audit.records():
        if (
            record.component == "broker"
            and record.operation == "deliver"
            and record.decision == "denied"
            and record.principal in denials
        ):
            denials[record.principal] += 1
    return {
        "observed": observed,
        "dlq": dlq,
        "denials": denials,
        "stats": engine.stats.snapshot(),
    }


def check_no_silent_loss(units, events, faults, outcome):
    """Every delivered event: observed ∨ dead-lettered ∨ audited-denied."""
    labels_of = {event["payload"]: event["labels"] for event in events}
    for unit in units:
        delivered = [e for e in events if e["topic"] == f"/ext/{unit}"]
        observed = {payload for payload, _labels in outcome["observed"][unit]}
        dlq_events = outcome["dlq"][unit]
        dlq_payloads = {event.payload for event in dlq_events}

        # Dead letters carry intact labels + complete failure metadata.
        for dead in dlq_events:
            assert dead.topic == dlq_topic(unit)
            assert dead["dlq_unit"] == unit
            assert dead["dlq_topic"] == f"/ext/{unit}"
            assert int(dead["dlq_attempts"]) >= 0
            assert dead["dlq_reason"]
            assert tuple(sorted(dead.labels.to_uris())) == tuple(
                sorted(label.uri for label in labels_of[dead.payload])
            )

        lost = [
            e["payload"]
            for e in delivered
            if e["payload"] not in observed and e["payload"] not in dlq_payloads
        ]
        # The only faults that bypass the supervised ladder are the
        # delivery-point ones; each is contained + audited by the broker.
        deliver_faults = [
            n
            for n in faults.get(point_name("deliver", unit), ())
            if n <= len(delivered)
        ]
        assert len(lost) == len(deliver_faults), (
            f"unit {unit}: {len(lost)} lost event(s) {lost} vs "
            f"{len(deliver_faults)} injected delivery fault(s)"
        )
        assert outcome["denials"][unit] == len(deliver_faults), (
            f"unit {unit}: lost events must each leave a broker "
            f"containment denial in the audit log"
        )


class TestNoSilentLoss:
    @given(scenarios())
    @settings(max_examples=40, deadline=None)
    def test_synchronous_engine_never_loses_silently(self, scenario):
        units, events, faults = scenario
        outcome = run_scenario(units, events, faults)
        check_no_silent_loss(units, events, faults, outcome)

    @given(scenarios())
    @settings(max_examples=25, deadline=None)
    def test_threaded_broker_never_loses_silently(self, scenario):
        units, events, faults = scenario
        outcome = run_scenario(units, events, faults, threaded=True)
        check_no_silent_loss(units, events, faults, outcome)


class TestInlineThreadedEquivalence:
    @given(scenarios())
    @settings(max_examples=25, deadline=None)
    def test_same_fault_schedule_same_outcome(self, scenario):
        units, events, faults = scenario
        inline = run_scenario(units, events, faults)
        threaded = run_scenario(units, events, faults, threaded=True)
        assert threaded["observed"] == inline["observed"]
        assert {
            unit: [(e.payload, e["dlq_reason"]) for e in threaded["dlq"][unit]]
            for unit in units
        } == {
            unit: [(e.payload, e["dlq_reason"]) for e in inline["dlq"][unit]]
            for unit in units
        }
        assert threaded["denials"] == inline["denials"]
        assert threaded["stats"] == inline["stats"]


class LossySupervisor(Supervisor):
    """Deliberately broken: swallows dead letters instead of publishing.

    The suite must detect this — it is the loss-detection calibration
    the issue demands."""

    def publish_dead_letter(self, broker, dead, principal_name):
        pass


class TestLossDetection:
    def _scenario(self):
        units = ["u0"]
        events = [{"topic": "/ext/u0", "payload": "p0", "labels": (POOL[0],)}]
        # Exhaust the retry budget: first attempt + the single retry.
        faults = {point_name("before", "u0"): (1, 2)}
        return units, events, faults

    def test_honest_supervisor_accounts_for_the_event(self):
        units, events, faults = self._scenario()
        outcome = run_scenario(units, events, faults)
        check_no_silent_loss(units, events, faults, outcome)
        assert [e.payload for e in outcome["dlq"]["u0"]] == ["p0"]

    def test_lossy_supervisor_is_detected(self):
        units, events, faults = self._scenario()
        outcome = run_scenario(
            units,
            events,
            faults,
            supervisor=LossySupervisor(SupervisionPolicy(**POLICY_KW)),
        )
        with pytest.raises(AssertionError):
            check_no_silent_loss(units, events, faults, outcome)

    def test_lossy_supervisor_detected_on_threaded_broker_too(self):
        units, events, faults = self._scenario()
        outcome = run_scenario(
            units,
            events,
            faults,
            supervisor=LossySupervisor(SupervisionPolicy(**POLICY_KW)),
            threaded=True,
        )
        with pytest.raises(AssertionError):
            check_no_silent_loss(units, events, faults, outcome)


class TestRemainingNamedPoints:
    """Deterministic pins for the points outside the generated matrix."""

    def test_broker_publish_fault_is_fail_stop_to_the_publisher(self):
        chaos = ChaosInjector().fail_at("broker.publish", on=1)
        audit = AuditLog()
        engine = EventProcessingEngine(
            broker=Broker(audit=audit, chaos=chaos),
            policy=build_policy(["u0"]),
            audit=audit,
            supervision=SupervisionPolicy(**POLICY_KW),
            chaos=chaos,
        )
        engine.register(Recorder("u0"))
        with pytest.raises(InjectedFault):
            engine.publish("/ext/u0", payload="p0")
        # Fail-stop, not silent: the publisher knows the event never
        # entered the broker, and the next publish sails through.
        engine.publish("/ext/u0", payload="p1")
        assert [p for p, _ in engine.store_of("u0").get("obs")] == ["p1"]

    def test_broker_dispatch_fault_is_contained_and_audited(self):
        chaos = ChaosInjector().fail_at("broker.dispatch", on=1)
        audit = AuditLog()
        broker = Broker(threaded=True, audit=audit, chaos=chaos)
        seen = []
        broker.subscribe("/t", seen.append, principal="watcher")
        broker.start()
        try:
            from repro.events.event import Event

            broker.publish(Event("/t", {}, payload="lost"))
            broker.publish(Event("/t", {}, payload="kept"))
            broker.drain(10)
        finally:
            broker.stop()
        assert [e.payload for e in seen] == ["kept"]
        assert any(
            record.component == "broker"
            and record.operation == "dispatch"
            and record.decision == "denied"
            for record in audit.records()
        )
