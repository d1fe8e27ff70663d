"""Property suite: every engine mode ≡ the inline engine, and no event
is silently lost.

``TestEquivalence`` runs each mode in ``MODES`` on the scenarios the
inline engine runs and requires the same trace (tests/property/oracle.py;
modes, observables and exclusions: docs/ENGINE.md "Equivalence oracle").
Beside it, the guarantees that are not "same trace": per-source FIFO on
a fan-in graph run by a cluster, the cluster's drain barrier, no loss
across a SIGKILLed worker, and — under generated fault schedules — no
silent loss and a lossy supervisor caught (the ``TestFault*`` classes).
"""

from __future__ import annotations

import functools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.audit import AuditLog
from repro.core.privileges import PrivilegeSet
from repro.events import Broker, EventProcessingEngine, SupervisionPolicy, Supervisor, dlq_topic
from repro.faults import FaultInjector, InjectedFault
from tests.property.oracle import (
    DENIAL_CASES,
    EXTERNAL_TOPICS,
    MODES,
    NAMED,
    POOL,
    TAG_ROOT,
    Mode,
    Scenario,
    ScriptedUnit,
    assert_equivalent,
    build_policy,
    diff,
    diff_after,
    event,
    generated_sample,
    make_spec,
    namespaced,
    publish_all,
    start_cluster,
    trace,
    unit_graphs,
)

IN_PROCESS_MODES = [name for name, mode in MODES.items() if not mode.workers]

#: Every hand-written scenario, by name.
SCENARIOS = dict(NAMED, **{name: case for name, (case, _) in DENIAL_CASES.items()})
#: Every hand-written scenario plus twelve generated graphs, as one graph.
SAMPLE = namespaced(
    dict(SCENARIOS, **{f"g{index}": graph for index, graph in enumerate(generated_sample(12))})
)


class TestEquivalence:
    @pytest.mark.parametrize(
        "mode, scenario",
        [(mode, scenario) for mode in IN_PROCESS_MODES for scenario in SCENARIOS]
        + [(mode, "sample") for mode in MODES],
    )
    def test_mode_matches_inline(self, request, mode, scenario):
        if MODES[mode].workers:
            request.getfixturevalue("resource_ledger")
        case = SAMPLE if scenario == "sample" else SCENARIOS[scenario]
        reference = trace(case)
        assert_equivalent(reference, trace(case, MODES[mode]))
        if scenario in DENIAL_CASES:
            expected = DENIAL_CASES[scenario][1]
            denied = [key for key in reference["audit"] if key[3] == "denied"]
            assert expected in denied if expected else not denied

    @pytest.mark.parametrize("mode", IN_PROCESS_MODES)
    @given(scenario=unit_graphs)
    @settings(max_examples=30, deadline=None)
    def test_generated_graph_matches_inline(self, mode, scenario):
        # A generated graph may dispatch nothing, so no vacuity check here.
        assert not diff(trace(scenario), trace(scenario, MODES[mode]))


def test_comparator_flags_swapped_observations():
    """The comparator self-test of this layer: two observations swapped in
    a unit's log of a real reference trace are flagged, position by
    position (the deployment layer's self-tests edit labels, denials and
    response label sets)."""

    def edit(mutant):
        log = mutant["stores"]["u0"]["obs"][0]
        assert len(log) >= 2 and log[0] != log[1]
        log[0], log[1] = log[1], log[0]

    assert [entry.split(":")[0] for entry in diff_after(trace(NAMED["denials"]), edit)] == [
        "/stores/u0/obs[0][0][1]",
        "/stores/u0/obs[0][0][2]",
        "/stores/u0/obs[0][1][1]",
        "/stores/u0/obs[0][1][2]",
    ]


@pytest.mark.usefixtures("resource_ledger")
class TestFanInPerSourceOrder:
    """A unit fed by several sources, one of them a cascade: the inline
    broker nests ``fwd``'s republication inside the delivery that caused
    it, a cluster sends it back through a shard behind the events already
    published, so the fan-in unit's interleaving differs — and with it
    the labels its store keys pick up from what it read first. What must
    not differ: each source's events arrive in order, with the same
    enforcement decisions and the same number of deliveries."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_per_source_order_matches_inline_on_a_cluster(self, seed):
        rng = random.Random(seed)
        sources = ("/ext/b", "/ext/c", "/u/fwd")
        scenario = Scenario(
            [make_spec("fwd", "/ext/a", "forward"), make_spec("fanin", sources, "record")],
            [
                event(rng.choice(EXTERNAL_TOPICS), f"p{i}", rng.sample(POOL, rng.randint(0, 2)))
                for i in range(40)
            ],
        )

        def per_source(observed):
            log = observed["stores"]["fanin"].get("obs", [[]])[0]
            return {topic: [obs for obs in log if obs[0] == topic] for topic in sources}

        reference, clustered = trace(scenario), trace(scenario, MODES["cluster-2x2"])
        assert all(per_source(reference).values()), "a source sent the fan-in unit nothing"
        assert per_source(clustered) == per_source(reference)
        assert clustered["audit"] == reference["audit"]
        assert clustered["dispatched"] == reference["dispatched"]


@pytest.mark.usefixtures("resource_ledger")
class TestClusterDrainBarrier:
    """``drain() is True`` is a statement about state, not timing: every
    shard's queue is empty and no ``ack: client`` delivery is in flight."""

    @pytest.mark.parametrize("workers,shards", [(1, 1), (2, 2)])
    def test_drained_cluster_has_nothing_queued_or_in_flight(self, workers, shards):
        scenario = NAMED["chain"]
        cluster = start_cluster(scenario, Mode(workers=workers, shards=shards))
        try:
            for _ in range(5):
                publish_all(cluster, scenario.events)
                assert cluster.drain(60) is True
                for handle in cluster._shards.values():
                    assert handle.call({"op": "drain"})["in_flight"] == 0
            assert sum(stats["dispatched"] for stats in cluster.stats().values()) > 0
        finally:
            cluster.stop()


@pytest.mark.usefixtures("resource_ledger")
class TestClusterWorkerKill:
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
        feeder = Scenario([make_spec("feeder", "/work", "forward")], [])
        received = []
        dead_lettered = []
        # The parent-side tap and the DLQ observer need clearance too.
        cluster = start_cluster(
            feeder, Mode(workers=2, shards=shards, supervised=True), observers=["collector"]
        )
        try:
            victim = cluster.placements()["feeder"]
            cluster.subscribe(
                "/u/feeder",
                lambda delivered: received.append(delivered.payload),
                principal="collector",
            )
            # The shard publishes dead-lettered events to /_dlq.feeder
            # under their original labels; observing them requires the
            # same clearance the lost consumer had.
            cluster.subscribe(
                "/_dlq.feeder",
                lambda delivered: dead_lettered.append(delivered.payload),
                principal="collector",
            )
            payloads = [f"n{i}" for i in range(self.TOTAL)]
            for index, payload in enumerate(payloads):
                cluster.publish("/work", payload=payload, labels=[POOL[0]])
                if index == self.TOTAL // 3:
                    cluster.kill_worker(victim)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and cluster.placements()["feeder"] == victim:
                time.sleep(0.05)
            assert cluster.placements()["feeder"] != victim, "unit never re-placed"
            assert cluster.drain(60), "cluster failed to drain after the kill"
            missing = set(payloads) - set(received) - set(dead_lettered)
            assert not missing, f"lost {sorted(missing)}; dead-lettered {dead_lettered}"
            # The death and the re-placement are on the audit trail.
            audit = cluster.collect_audit(include_infra=True)
            assert ("cluster", "worker", victim, "denied", ()) in audit
            assert any(
                record[:2] == ("cluster", "restart_unit") and record[3] == "allowed"
                for record in audit
            )
        finally:
            cluster.stop()


# -- fault schedules ----------------------------------------------------------------
#
# The supervision contract (docs/ROBUSTNESS.md): under injected faults
# every event delivered to a unit is observed (possibly more than once —
# a fault *after* the callback body forces a retry), dead-lettered on
# ``/_dlq.<unit>`` with the original event's labels intact, or audited
# as denied (a fault at the delivery point itself is contained by the
# broker) — never silently lost. The schedules are generated over the
# engine-tier fault points; ``on`` is the arrival number at the
# (per-unit) point, counted from arming, which here is before the first
# publish; retries re-hit the callback points, so later
# arrivals exist even for short event sequences. ``bridge.*``,
# ``stomp.client.flush`` and ``federation.*`` are pinned by the
# integration suites (test_bridge_robustness, test_federation_restart).

FAULT_UNITS = ["u0", "u1", "u2"]
FAULT_POINTS = {
    "deliver": "engine.deliver:{}",
    "before": "engine.callback.before:{}",
    "after": "engine.callback.after:{}",
}
#: max_restarts=0 suspends a unit on its first exhausted delivery — the
#: restart path itself is pinned by the unit tests.
FAULT_POLICY = dict(retry_budget=1, max_restarts=0, restart_window=60.0)


def point_name(kind: str, unit: str) -> str:
    return FAULT_POINTS[kind].format(unit)


@st.composite
def fault_schedules(draw):
    units = FAULT_UNITS[: draw(st.integers(1, 3))]
    events = [
        event(
            f"/ext/{draw(st.sampled_from(units))}",
            f"p{index}",
            draw(st.lists(st.sampled_from(POOL[:3]), unique=True, max_size=2)),
        )
        for index in range(draw(st.integers(1, 12)))
    ]
    faults = {}
    for unit in units:
        for kind in FAULT_POINTS:
            arrivals = draw(st.lists(st.integers(1, 14), unique=True, max_size=3))
            if arrivals:
                faults[point_name(kind, unit)] = tuple(sorted(arrivals))
    return units, events, faults


def run_fault_schedule(units, events, faults, supervisor=None):
    """Run one fault schedule; returns the per-unit outcome."""
    injector = FaultInjector()
    for point, arrivals in faults.items():
        injector.fail_at(point, on=arrivals)
    specs = [make_spec(unit, f"/ext/{unit}", "record", clearance=[TAG_ROOT]) for unit in units]
    audit = AuditLog()
    engine = EventProcessingEngine(
        broker=Broker(audit=audit, faults=injector),
        policy=build_policy(specs),
        audit=audit,
        supervision=supervisor or SupervisionPolicy(**FAULT_POLICY),
        faults=injector,
    )
    dlq = {unit: [] for unit in units}
    for unit in units:
        engine.broker.subscribe(
            dlq_topic(unit),
            dlq[unit].append,
            principal="dlq-inspector",
            clearance=PrivilegeSet({"clearance": [TAG_ROOT]}),
        )
    for spec in specs:
        engine.register(ScriptedUnit(spec))
    publish_all(engine, events)
    return {
        "observed": {
            unit: [obs[1:] for obs in engine.store_of(unit).get("obs", [])] for unit in units
        },
        "dlq": dlq,
        "denials": {
            unit: sum(
                record.operation == "deliver"
                for record in audit.records(component="broker", decision="denied", principal=unit)
            )
            for unit in units
        },
        "stats": engine.stats.snapshot(),
    }


def check_no_silent_loss(units, events, faults, outcome):
    """Every delivered event: observed ∨ dead-lettered ∨ audited-denied."""
    labels_of = {item["payload"]: sorted(item["labels"]) for item in events}
    for unit in units:
        delivered = [item for item in events if item["topic"] == f"/ext/{unit}"]
        observed = {payload for payload, _labels in outcome["observed"][unit]}
        dlq_events = outcome["dlq"][unit]
        dlq_payloads = {dead.payload for dead in dlq_events}

        # Dead letters carry intact labels + complete failure metadata.
        for dead in dlq_events:
            assert (dead.topic, dead["dlq_unit"], dead["dlq_topic"]) == (
                dlq_topic(unit), unit, f"/ext/{unit}"
            )
            assert int(dead["dlq_attempts"]) >= 0 and dead["dlq_reason"]
            assert sorted(dead.labels.to_uris()) == labels_of[dead.payload]

        lost = [
            item["payload"]
            for item in delivered
            if item["payload"] not in observed and item["payload"] not in dlq_payloads
        ]
        # The only faults that bypass the supervised ladder are the
        # delivery-point ones; each is contained + audited by the broker.
        deliver_faults = [
            n for n in faults.get(point_name("deliver", unit), ()) if n <= len(delivered)
        ]
        assert len(lost) == len(deliver_faults), (
            f"unit {unit}: {len(lost)} lost event(s) {lost} vs "
            f"{len(deliver_faults)} injected delivery fault(s)"
        )
        assert outcome["denials"][unit] == len(deliver_faults), (
            f"unit {unit}: lost events must each leave a broker "
            f"containment denial in the audit log"
        )


class TestFaultScheduleNoSilentLoss:
    @given(schedule=fault_schedules())
    @settings(max_examples=40, deadline=None)
    def test_engine_never_loses_silently(self, schedule):
        units, events, faults = schedule
        outcome = run_fault_schedule(units, events, faults)
        check_no_silent_loss(units, events, faults, outcome)


class LossySupervisor(Supervisor):
    """Deliberately broken: swallows dead letters instead of publishing.
    The no-silent-loss check must catch it."""

    def publish_dead_letter(self, broker, dead, principal_name):
        pass


class TestFaultLossDetection:
    #: Exhaust the retry budget: the first attempt and the single retry.
    SCHEDULE = (
        ["u0"],
        [event("/ext/u0", "p0", POOL[:1])],
        {point_name("before", "u0"): (1, 2)},
    )

    def test_honest_supervisor_accounts_for_the_event(self):
        outcome = run_fault_schedule(*self.SCHEDULE)
        check_no_silent_loss(*self.SCHEDULE, outcome)
        assert [dead.payload for dead in outcome["dlq"]["u0"]] == ["p0"]

    def test_lossy_supervisor_is_detected(self):
        outcome = run_fault_schedule(
            *self.SCHEDULE, supervisor=LossySupervisor(SupervisionPolicy(**FAULT_POLICY))
        )
        with pytest.raises(AssertionError):
            check_no_silent_loss(*self.SCHEDULE, outcome)


class TestFaultNamedPoints:
    """A deterministic pin for the broker point outside the generated matrix."""

    def test_broker_publish_fault_is_fail_stop_to_the_publisher(self):
        faults = FaultInjector().fail_at("broker.publish", on=1)
        audit = AuditLog()
        spec = make_spec("u0", "/ext/u0", "record")
        engine = EventProcessingEngine(
            broker=Broker(audit=audit, faults=faults),
            policy=build_policy([spec]),
            audit=audit,
            supervision=SupervisionPolicy(**FAULT_POLICY),
            faults=faults,
        )
        engine.register(ScriptedUnit(spec))
        with pytest.raises(InjectedFault):
            engine.publish("/ext/u0", payload="p0")
        # Fail-stop, not silent: the publisher knows the event never
        # entered the broker, and the next publish sails through.
        engine.publish("/ext/u0", payload="p1")
        assert [obs[1] for obs in engine.store_of("u0").get("obs")] == ["p1"]
