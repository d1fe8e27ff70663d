"""The broker's clearance plans and the engine's one-frame delivery
against the seed delivery path (``tests/reference/broker.py``).

The broker decides §4.2 once per route and label set and replays the
decisions; the engine enters each delivery's ambient labels and jail
without context objects. On generated subscription sets — hierarchical
and exact clearances, required integrity, shared and distinct selectors,
inactive subscriptions — and publish sequences interleaved with
subscribe, unsubscribe and clearance reassignment (between publishes and
from inside callbacks), both must deliver the same events in the same
order, count the same ``BrokerStats`` and ``EngineStats``, and write the
same audit entries in the same order. At engine level every callback
must see the same ambient labels and jail state, with jailed,
privileged and unjailed units cascading into each other, and the thread
must hold no ambient labels and no jail after every publish.
"""

from __future__ import annotations

import re
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from repro.core.audit import AuditLog
from repro.core.labels import LabelSet, conf_label, int_label
from repro.core.policy import parse_policy
from repro.core.privileges import CLEARANCE, PrivilegeSet
from repro.events import broker as broker_module
from repro.events import context as context_module
from repro.events import jail as jail_module
from repro.events.broker import Broker
from repro.events.context import current_labels
from repro.events.engine import EventProcessingEngine
from repro.events.event import Event
from repro.events.supervision import SupervisionPolicy
from repro.events.unit import unit_from_function

from tests.reference.broker import ReferenceBroker, ReferenceEngine, audit_entries

MDT1 = conf_label("ecric.org.uk", "mdt", "1")
MDT2 = conf_label("ecric.org.uk", "mdt", "2")
MDT_ROOT = conf_label("ecric.org.uk", "mdt")  # a hierarchical grant
PATIENT = conf_label("ecric.org.uk", "patient", "7")
TRUSTED = int_label("ecric.org.uk", "mdt")
CHECKED = int_label("ecric.org.uk", "checked")

EVENT_LABELS = (MDT1, MDT2, PATIENT, TRUSTED, CHECKED)
GRANTS = (MDT1, MDT2, MDT_ROOT, PATIENT)
TOPICS = ("/t/a", "/t/a", "/t/b", "/u/a")
PATTERNS = ("/t/a", "/t/*", "/t/#", "/u/a", "/#")
#: ``stage > 1`` twice: the parse cache shares one Selector between them.
SELECTORS = (None, None, "stage > 1", "stage > 1", "kind = 'x'")


def _in_force():
    return getattr(jail_module._state, "denied_prefixes", None)


def _thread_state():
    """The calling thread's ambient stack depth and jail."""
    return len(getattr(context_module._state, "stack", ())), _in_force()


def _normalised(entries):
    """Audit entries with ``sub-<n>`` ids renumbered by first appearance:
    the two runs draw auto-generated ids from one process-wide counter."""
    seen = {}

    def rename(match):
        return seen.setdefault(match.group(0), f"sub#{len(seen)}")

    return [
        entry[:5] + (re.sub(r"sub-\d+", rename, entry[5]),) for entry in entries
    ]


# -- broker level -------------------------------------------------------------

#: A few label sets recur (so plans are replayed and reassignments hit
#: planned decisions), and any subset can appear (a new plan).
label_subsets = st.one_of(
    st.sampled_from(([], [MDT1], [MDT2], [MDT1, PATIENT], [MDT1, TRUSTED], [CHECKED])),
    st.lists(st.sampled_from(EVENT_LABELS), max_size=3, unique=True),
)
grant_subsets = st.lists(st.sampled_from(GRANTS), max_size=3, unique=True)
integrity_subsets = st.lists(st.sampled_from((TRUSTED, CHECKED)), max_size=1)
#: What a subscriber's callback does besides recording the delivery: the
#: targets are indices into the subscriptions made so far.
behaviours = st.one_of(
    st.just(("ok",)),
    st.just(("ok",)),
    st.just(("raise",)),
    st.tuples(st.just("revoke"), st.integers(0, 7), st.sampled_from(GRANTS)),
    st.tuples(st.just("grant"), st.integers(0, 7), st.sampled_from(GRANTS)),
    st.tuples(st.just("unsubscribe"), st.integers(0, 7)),
    st.tuples(st.just("deactivate"), st.integers(0, 7)),
)
subscription_specs = st.tuples(
    st.sampled_from(PATTERNS + ("/t/a", "/t/*")),  # weighted toward the busiest topic
    grant_subsets,
    integrity_subsets,
    st.sampled_from(SELECTORS),
    behaviours,
)
publishes = st.tuples(
    st.just("publish"),
    st.sampled_from(TOPICS),
    label_subsets,
    st.integers(0, 3),
    st.sampled_from(("x", "y")),
)
reassignments = st.one_of(
    st.tuples(st.just("revoke"), st.integers(0, 7), st.sampled_from(GRANTS)),
    st.tuples(st.just("grant"), st.integers(0, 7), st.sampled_from(GRANTS)),
    st.tuples(st.just("set_clearance"), st.integers(0, 7), grant_subsets),
    st.tuples(st.just("set_clearance"), st.integers(0, 7), st.just([])),
    st.tuples(st.just("require"), st.integers(0, 7), integrity_subsets),
)
others = st.one_of(
    st.tuples(
        st.just("publish_many"),
        st.lists(st.tuples(st.sampled_from(TOPICS), label_subsets), max_size=3),
    ),
    st.tuples(st.just("subscribe"), subscription_specs),
    st.tuples(st.just("unsubscribe"), st.integers(0, 7)),
    st.tuples(st.just("deactivate"), st.integers(0, 7)),
)
#: Mostly publishes, then reassignments, then the rest.
operations = st.sampled_from(("publish",) * 4 + ("reassign",) * 2 + ("other",) * 2).flatmap(
    {"publish": publishes, "reassign": reassignments, "other": others}.__getitem__
)
#: Free-form scripts, and scripts that republish an event right after a
#: reassignment — where a plan that outlived its clearance would show.
scripts = st.one_of(
    st.lists(operations, min_size=6, max_size=30),
    st.lists(st.tuples(publishes, reassignments), min_size=1, max_size=8).map(
        lambda pairs: [step for publish, change in pairs for step in (publish, change, publish)]
    ),
)


class BrokerWorld:
    """One broker driven by a generated script, recording what it sees."""

    def __init__(self, broker_class, label_checks: bool, raise_errors: bool):
        self.audit = AuditLog()
        self.broker = broker_class(
            audit=self.audit, label_checks=label_checks, raise_errors=raise_errors
        )
        self.subscriptions = []
        self.log = []
        self.sequence = 0

    def _target(self, index):
        return self.subscriptions[index % len(self.subscriptions)] if self.subscriptions else None

    def _act(self, action):
        kind = action[0]
        target = self._target(action[1]) if len(action) > 1 else None
        if target is None:
            return
        if kind == "revoke":
            target.clearance = target.clearance.revoke(CLEARANCE, action[2])
        elif kind == "grant":
            target.clearance = target.clearance.grant(CLEARANCE, action[2])
        elif kind == "set_clearance":
            target.clearance = PrivilegeSet({CLEARANCE: action[2]})
        elif kind == "require":
            target.require_integrity = LabelSet(action[2])
        elif kind == "unsubscribe":
            self.broker.unsubscribe(target.subscription_id)
        elif kind == "deactivate":
            target.active = False

    def _subscribe(self, spec):
        pattern, grants, integrity, selector, behaviour = spec
        index = len(self.subscriptions)

        def callback(event):
            self.log.append(("deliver", index, event["n"]))
            if behaviour[0] == "raise":
                raise ValueError(f"subscriber {index} fails")
            self._act(behaviour)

        self.subscriptions.append(
            self.broker.subscribe(
                pattern,
                callback,
                principal=f"p{index % 3}",
                clearance=PrivilegeSet({CLEARANCE: grants}),
                selector=selector,
                subscription_id=f"s{index}",
                require_integrity=LabelSet(integrity),
            )
        )

    def _event(self, topic, labels, stage=0, kind="x"):
        self.sequence += 1
        attributes = {"n": str(self.sequence), "stage": str(stage), "kind": kind}
        return Event(topic, attributes, labels=labels)

    def run(self, script):
        for operation in script:
            kind = operation[0]
            try:
                if kind == "publish":
                    _, topic, labels, stage, event_kind = operation
                    result = self.broker.publish(self._event(topic, labels, stage, event_kind))
                elif kind == "publish_many":
                    events = [self._event(topic, labels) for topic, labels in operation[1]]
                    result = self.broker.publish_many(events)
                elif kind == "subscribe":
                    result = self._subscribe(operation[1])
                else:
                    result = self._act(operation)
                self.log.append(("ok", kind, result))
            except ValueError as error:
                self.log.append(("error", kind, str(error)))
            self.log.append(("thread", _thread_state()))
        return {
            "log": self.log,
            "stats": self.broker.stats.snapshot(),
            "audit": audit_entries(self.audit),
        }


@settings(max_examples=300, deadline=None)
@given(
    initial=st.lists(subscription_specs, min_size=1, max_size=8),
    script=scripts,
    label_checks=st.sampled_from((True, True, False)),
    raise_errors=st.booleans(),
    plan_limit=st.sampled_from((1, 3) + (broker_module._PLAN_CACHE_LIMIT,) * 2),
)
def test_broker_matches_the_seed_loop(initial, script, label_checks, raise_errors, plan_limit):
    setup = [("subscribe", spec) for spec in initial]
    with patch.object(broker_module, "_PLAN_CACHE_LIMIT", plan_limit):
        planned = BrokerWorld(Broker, label_checks, raise_errors).run(setup + script)
    seed = BrokerWorld(ReferenceBroker, label_checks, raise_errors).run(setup + script)
    assert planned["log"] == seed["log"]
    assert planned["stats"] == seed["stats"]
    assert planned["audit"] == seed["audit"]


def test_a_revoke_from_inside_a_callback_takes_effect_in_the_same_publish():
    """Literal pin beside the reference: with the route's plan already
    built, the first subscriber revokes the second one's clearance
    mid-fan-out, and the second is denied in that same publish."""
    for broker_class in (Broker, ReferenceBroker):
        audit = AuditLog()
        broker = broker_class(audit=audit)
        cleared = PrivilegeSet({CLEARANCE: [MDT1]})
        received, armed = [], []

        def revoke_next(event):
            if armed:
                victim.clearance = PrivilegeSet.empty()

        broker.subscribe("/t", revoke_next, clearance=cleared)
        victim = broker.subscribe("/t", received.append, clearance=cleared)
        assert broker.publish(Event("/t", {"n": "1"}, labels=[MDT1])) == 2
        armed.append(True)
        assert broker.publish(Event("/t", {"n": "2"}, labels=[MDT1])) == 1
        assert [event["n"] for event in received] == ["1"]
        assert broker.stats.label_filtered == 1
        assert audit.count(component="broker", decision="denied") == 1


# -- engine level -------------------------------------------------------------

#: What every callback saw: (unit, event n, ambient labels, jail in force).
OBSERVED = []
#: Unit name → behaviour; mutated in place (jailed clones share the dict).
BEHAVIOUR = {}
#: (unit, event n) → attempts so far, for the "flaky" behaviour.
ATTEMPTS = {}

LEVELS = 3


def behave(unit, event):
    name = unit.name
    n = event.get("n")
    OBSERVED.append((name, n, current_labels(), _in_force()))
    behaviour, level = BEHAVIOUR[name]
    onward = f"/e/{level + 1}"
    if behaviour == "security":
        open("/nonexistent-safeweb-dir/leak", "w")  # jailed: IsolationError
    elif behaviour == "error":
        raise ValueError(f"{name} fails on {n}")
    elif behaviour == "flaky":
        ATTEMPTS[(name, n)] = ATTEMPTS.get((name, n), 0) + 1
        if ATTEMPTS[(name, n)] == 1:
            raise ValueError(f"{name} flakes on {n}")
    elif level + 1 < LEVELS and behaviour == "publish":
        seen = unit.store.get("seen", 0)
        unit.store.set("seen", seen + 1)
        unit.publish(onward, {"n": n})
    elif level + 1 < LEVELS and behaviour == "declassify":
        unit.publish(onward, {"n": n}, remove=[MDT1])
    elif level + 1 < LEVELS and behaviour == "endorse":
        unit.publish(onward, {"n": n}, add=[TRUSTED])
    OBSERVED.append((name, n, "after", current_labels(), _in_force()))


unit_specs = st.tuples(
    st.booleans(),  # privileged
    grant_subsets,
    st.lists(st.sampled_from((MDT1, PATIENT)), max_size=1),  # declassification
    st.integers(0, LEVELS - 1),
    st.sampled_from(
        ("ok", "publish", "publish", "security", "error", "flaky", "declassify", "endorse")
    ),
)


def _policy(specs):
    lines = ["authority ecric.org.uk"]
    for index, (privileged, grants, declassify, _level, _behaviour) in enumerate(specs):
        lines.append(f"unit u{index} {{")
        if privileged:
            lines.append("    privileged")
        lines.extend(f"    clearance {label.uri}" for label in grants)
        lines.extend(f"    declassification {label.uri}" for label in declassify)
        lines.append("}")
    return parse_policy("\n".join(lines))


def _run_engine(engine_class, specs, publishes, isolation, supervised, raise_errors):
    audit = AuditLog()
    engine = engine_class(
        broker=Broker(audit=audit, raise_errors=raise_errors),
        policy=_policy(specs),
        audit=audit,
        isolation=isolation,
        raise_callback_errors=raise_errors,
        supervision=SupervisionPolicy(retry_budget=1) if supervised else None,
    )
    del OBSERVED[:]
    ATTEMPTS.clear()
    BEHAVIOUR.clear()
    for index, (_privileged, _grants, _declassify, level, behaviour) in enumerate(specs):
        BEHAVIOUR[f"u{index}"] = (behaviour, level)
        engine.register(unit_from_function(f"/e/{level}", name=f"u{index}")(behave))
    outcomes = []
    for sequence, labels in enumerate(publishes):
        try:
            engine.publish("/e/0", {"n": str(sequence)}, labels=labels)
            outcomes.append("ok")
        except Exception as error:  # noqa: BLE001 - compared, not handled
            outcomes.append((type(error).__name__, str(error)))
        outcomes.append(_thread_state())
    stores = {
        name: [(key, engine.store_of(name).labels_for(key)) for key in engine.store_of(name).keys()]
        for name in engine.unit_names
    }
    return {
        "observed": list(OBSERVED),
        "outcomes": outcomes,
        "engine": engine.stats.snapshot(),
        "broker": engine.broker.stats.snapshot(),
        "audit": _normalised(audit_entries(audit)),
        "stores": stores,
    }


@settings(max_examples=100, deadline=None)
@given(
    specs=st.lists(unit_specs, min_size=1, max_size=5),
    publishes=st.lists(label_subsets, min_size=1, max_size=6),
    isolation=st.booleans(),
    supervised=st.booleans(),
    raise_errors=st.booleans(),
)
def test_engine_matches_the_seed_ladder(specs, publishes, isolation, supervised, raise_errors):
    before = _thread_state()
    options = (isolation, supervised, raise_errors)
    framed = _run_engine(EventProcessingEngine, specs, publishes, *options)
    seed = _run_engine(ReferenceEngine, specs, publishes, *options)
    for key in ("observed", "outcomes", "engine", "broker", "audit", "stores"):
        assert framed[key] == seed[key], key
    assert _thread_state() == before == (0, None)
