"""The equivalence oracle's shared vocabulary (docs/ENGINE.md
"Equivalence oracle").

* The unit-graph layer: scenario specs (data, so a spec pickles by value
  into a cluster worker), the single-in-edge graph strategy and its
  fixed-seed sample, :class:`ScriptedUnit`, :func:`build_policy`,
  the engine :data:`MODES` and :func:`trace`.
* The deployment axes every deployment-level sweep draws from, and the
  workload :data:`CONFIG`.
* :func:`diff`, the comparator, :func:`diff_after` for its self-tests,
  and :func:`assert_equivalent`.
"""

from __future__ import annotations

import copy
import functools
import os
import random
from collections import Counter
from typing import Any, Dict, List, NamedTuple

from hypothesis import strategies as st

from repro.core.audit import AuditLog
from repro.core.labels import conf_label, int_label
from repro.core.policy import Policy, PolicyDocument, UnitSpec
from repro.events import Broker, EventProcessingEngine, Unit
from repro.events.cluster import ClusterEngine
from repro.events.cluster_codec import decode_payload, encode_payload
from repro.events.supervision import SupervisionPolicy
from repro.mdt.workload import WorkloadConfig

AUTHORITY = "ecric.org.uk"
TAG_ROOT = conf_label(AUTHORITY, "tag").uri
POOL = [conf_label(AUTHORITY, "tag", str(index)).uri for index in range(4)]
SECRET = conf_label(AUTHORITY, "secret").uri
TRUSTED = int_label(AUTHORITY, "mdt").uri
#: Clearance over every label a scenario event can carry.
FULL_CLEARANCE = [TAG_ROOT, SECRET]
EXTERNAL_TOPICS = ["/ext/a", "/ext/b", "/ext/c"]
BEHAVIOURS = ["record", "accumulate", "forward", "declassify", "endorse", "io"]

#: Audit components that exist only because of the process split (STOMP
#: session management, bridge link upkeep, cluster placement).
INFRA_COMPONENTS = frozenset({"stomp", "bridge", "cluster"})


# -- scenarios -------------------------------------------------------------------


class Scenario(NamedTuple):
    """Unit specs plus the external events published into them."""

    specs: List[dict]
    events: List[dict]


def make_spec(name, source, behaviour, **overrides) -> dict:
    """One unit: subscribes to *source* (a topic or a tuple of topics)
    and reacts per *behaviour*; cleared for everything by default."""
    spec = {
        "name": name,
        "source": source,
        "behaviour": behaviour,
        "privileged": False,
        "clearance": list(FULL_CLEARANCE),
        "declassification": [],
        "endorsement": False,
        "add": [],
        "remove": [],
    }
    spec.update(overrides)
    return spec


def event(topic, payload, labels=()) -> dict:
    return {"topic": topic, "payload": payload, "labels": list(labels)}


def _random_scenario(rng: random.Random) -> Scenario:
    """A pipeline of 2–5 units, each with a single inbound subscription.

    Upstream is an external topic or an earlier unit's output topic
    (chains and fan-out). A single in-edge keeps the inline broker's
    nested-cascade order and every other mode's arrival order equal.
    """

    def subset():
        return rng.sample(POOL, rng.randint(0, len(POOL)))

    def rare():
        return rng.random() < 0.25

    specs = []
    for index in range(rng.randint(2, 5)):
        if index == 0 or rng.random() < 0.5:
            source = rng.choice(EXTERNAL_TOPICS)
        else:
            source = f"/u/u{rng.randrange(index)}"
        specs.append(
            make_spec(
                f"u{index}",
                source,
                rng.choice(BEHAVIOURS),
                privileged=rare(),
                clearance=list(FULL_CLEARANCE) if rng.random() < 0.5 else subset(),
                declassification=subset(),
                endorsement=rng.random() < 0.5,
                add=subset(),
                remove=subset(),
            )
        )
    events = [
        event(
            rng.choice(EXTERNAL_TOPICS),
            f"p{index}",
            subset() + ([SECRET] if rare() else []),
        )
        for index in range(rng.randint(1, 20))
    ]
    return Scenario(specs, events)


#: Generated single-in-edge unit graphs with their event sequences.
unit_graphs = st.randoms(use_true_random=False).map(_random_scenario)


def generated_sample(count: int) -> List[Scenario]:
    """A fixed-seed sample of :data:`unit_graphs` (for modes too slow to
    run under hypothesis)."""
    rng = random.Random(0)
    return [_random_scenario(rng) for _ in range(count)]


#: The hand-written graphs: chains, fan-out, allowed and denied
#: declassification, endorsement denial, jailed I/O denial, a clearance
#: gap, labelled and secret events.
NAMED = {
    "chain": Scenario(
        [
            make_spec("u0", "/ext/a", "forward"),
            make_spec("u1", "/u/u0", "forward"),
            make_spec("u2", "/u/u1", "record"),
        ],
        [event("/ext/a", f"p{i}", [POOL[i % 3]]) for i in range(12)],
    ),
    "fanout-mixed": Scenario(
        [
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
        [
            event(EXTERNAL_TOPICS[i % 2], f"p{i}", [POOL[0], SECRET] if i % 3 == 0 else [POOL[0]])
            for i in range(15)
        ],
    ),
    "denials": Scenario(
        [
            make_spec("u0", "/ext/a", "declassify", remove=[POOL[0]]),
            make_spec("u1", "/ext/b", "endorse"),
            make_spec("u2", "/ext/c", "io"),
            # Clearance gap: sees only unlabelled events; labelled ones
            # are filtered at delivery.
            make_spec("u3", "/ext/a", "record", clearance=[]),
        ],
        [
            event(topic, f"p{i}", labels)
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
    ),
}


def _single(behaviour, labels, **overrides) -> Scenario:
    spec = make_spec("u0", "/ext/a", behaviour, remove=POOL[:1], **overrides)
    return Scenario([spec], [event("/ext/a", "x", labels)])


#: One-unit cases the generator only hits by chance, each with the
#: denial (component, operation, principal, decision, labels) its
#: reference trace must hold — or ``None``: it must hold no denial.
DENIAL_CASES = {
    "jailed-io": (
        _single("io", POOL[:1]),
        ("engine", "callback", "u0", "denied", (POOL[0],)),
    ),
    "privileged-io": (_single("io", POOL[:1], privileged=True), None),
    "declassify-denied": (
        _single("declassify", POOL[:1]),
        ("engine", "declassify", "u0", "denied", (POOL[0],)),
    ),
    "declassify-allowed": (
        _single("declassify", POOL[:1], declassification=list(POOL)),
        None,
    ),
    "endorse-denied": (
        _single("endorse", ()),
        ("engine", "endorse", "u0", "denied", (TRUSTED,)),
    ),
}


def namespaced(scenarios: Dict[str, Scenario]) -> Scenario:
    """Disjoint union of *scenarios* as one graph.

    Scenario ``i`` has its units renamed ``s<i><name>`` and its external
    topics moved under ``/s<i>``, so one cluster start runs them all;
    events keep their order. Stores and audit records name the prefixed
    units, so a difference still points at its scenario.
    """
    specs, events = [], []
    for index, scenario in enumerate(scenarios.values()):
        prefix = f"s{index}"

        def topic(name):
            if name.startswith("/u/"):
                return f"/u/{prefix}{name[3:]}"
            return f"/{prefix}{name}"

        for spec in scenario.specs:
            specs.append(
                dict(spec, name=prefix + spec["name"], source=topic(spec["source"]))
            )
        for item in scenario.events:
            events.append(dict(item, topic=topic(item["topic"])))
    return Scenario(specs, events)


# -- the unit and its policy --------------------------------------------------------


class ScriptedUnit(Unit):
    """One scenario unit. Behaviour is data, so the spec pickles by value
    and the class by reference: the factory shipped to a cluster worker
    (``functools.partial(ScriptedUnit, spec)``) and the jail's isolated
    clone both rebuild an identical unit."""

    def __init__(self, spec):
        super().__init__()
        self.unit_name = spec["name"]
        self.spec = spec

    def setup(self):
        sources = self.spec["source"]
        for source in [sources] if isinstance(sources, str) else sources:
            self.subscribe(source, self.on_event)

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
            # Denied unless declassification covers ambient ∩ remove.
            self.publish(
                f"/u/{spec['name']}",
                payload=event.payload,
                add=list(spec["add"]),
                remove=list(spec["remove"]),
            )
        elif behaviour == "endorse":
            # Denied unless the unit holds the endorsement privilege.
            self.publish(f"/u/{spec['name']}", payload=event.payload, add=[TRUSTED])
        elif behaviour == "io":
            # An audited IsolationError when jailed; privileged units
            # (unjailed, the paper's $SAFE=0) list the directory.
            os.listdir("/")
            self.store.set("io", event.payload)


def build_policy(specs, observers=()) -> Policy:
    """The policy granting each spec its privileges; each name in
    *observers* (a parent-side tap) gets :data:`FULL_CLEARANCE`."""
    document = PolicyDocument(authority=AUTHORITY)
    for spec in specs:
        grants = {}
        if spec["clearance"]:
            grants["clearance"] = list(spec["clearance"])
        if spec["declassification"]:
            grants["declassification"] = list(spec["declassification"])
        if spec["endorsement"]:
            grants["endorsement"] = [TRUSTED]
        document.units[spec["name"]] = UnitSpec(
            name=spec["name"], privileged=spec["privileged"], grants=grants
        )
    for name in observers:
        document.units[name] = UnitSpec(
            name=name, grants={"clearance": list(FULL_CLEARANCE)}
        )
    return Policy(document)


# -- engine modes and the trace ---------------------------------------------------


class Mode(NamedTuple):
    """One way of running a scenario's units."""

    batch: bool = False  # engine.publish_batch instead of per-event publish
    supervised: bool = False  # a fault-free SupervisionPolicy()
    workers: int = 0  # > 0: ClusterEngine(workers, shards)
    shards: int = 0


INLINE = Mode()
MODES = {
    "batch": Mode(batch=True),
    "supervised": Mode(supervised=True),
    "cluster-1x1": Mode(workers=1, shards=1),
    "cluster-2x2": Mode(workers=2, shards=2),
    "cluster-4x2": Mode(workers=4, shards=2),
    "cluster-1x1-supervised": Mode(workers=1, shards=1, supervised=True),
    "cluster-2x2-supervised": Mode(workers=2, shards=2, supervised=True),
    "cluster-4x2-supervised": Mode(workers=4, shards=2, supervised=True),
}


def audit_tuple(record) -> tuple:
    """An audit record as ``(component, operation, principal, decision,
    label uris)`` — the shape ``ClusterEngine.collect_audit`` returns."""
    labels = tuple(record.labels.to_uris())
    return (record.component, record.operation, record.principal, record.decision, labels)


def trace(scenario: Scenario, mode: Mode = INLINE) -> dict:
    """Run *scenario* in *mode*; return its observable trace.

    ``stores``: per unit, key → [value, label uris], normalised through
    the cluster codec in every mode (tuples become lists);
    ``audit``: the multiset of enforcement decisions, infrastructure
    components left out; ``dispatched``: callback deliveries.
    """
    run = _run_cluster if mode.workers else _run_in_process
    stores, records, dispatched = run(scenario, mode)
    return {
        "stores": decode_payload(encode_payload(stores)),
        "audit": Counter(record for record in records if record[0] not in INFRA_COMPONENTS),
        "dispatched": dispatched,
    }


def _run_in_process(scenario: Scenario, mode: Mode):
    audit = AuditLog()
    engine = EventProcessingEngine(
        broker=Broker(audit=audit),
        policy=build_policy(scenario.specs),
        audit=audit,
        supervision=SupervisionPolicy() if mode.supervised else None,
    )
    for spec in scenario.specs:
        engine.register(ScriptedUnit(spec))
    if mode.batch:
        engine.publish_batch(scenario.events)
    else:
        publish_all(engine, scenario.events)
    stores = {}
    for spec in scenario.specs:
        store = engine.store_of(spec["name"])
        stores[spec["name"]] = {
            key: [store.get(key), store.labels_for(key).to_uris()] for key in store.keys()
        }
    records = [audit_tuple(record) for record in audit.records()]
    return stores, records, engine.stats.dispatched


def start_cluster(scenario: Scenario, mode: Mode, observers=()) -> ClusterEngine:
    """A started cluster in *mode* with *scenario*'s units placed."""
    cluster = ClusterEngine(
        build_policy(scenario.specs, observers),
        workers=mode.workers,
        shards=mode.shards,
        audit=AuditLog(),
        supervision=SupervisionPolicy() if mode.supervised else None,
    ).start()
    try:
        for spec in scenario.specs:
            cluster.place(functools.partial(ScriptedUnit, spec), spec["name"])
    except BaseException:
        cluster.stop()
        raise
    return cluster


def publish_all(target, events) -> None:
    for item in events:
        target.publish(item["topic"], payload=item["payload"], labels=item["labels"])


def _run_cluster(scenario: Scenario, mode: Mode):
    cluster = start_cluster(scenario, mode)
    try:
        publish_all(cluster, scenario.events)
        assert cluster.drain(60), "cluster failed to drain"
        dispatched = sum(stats["dispatched"] for stats in cluster.stats().values())
        return cluster.collect_stores(), cluster.collect_audit(), dispatched
    finally:
        cluster.stop()


# -- the comparator ------------------------------------------------------------------


def diff(reference: Any, actual: Any, path: str = "") -> List[str]:
    """Every path at which *actual* differs from *reference*.

    Mappings (a :class:`~collections.Counter` included) compare key by
    key, lists and tuples position by position; anything else by value.
    An empty list means the traces are equal.
    """
    if isinstance(reference, dict) and isinstance(actual, dict):
        found = []
        for key in sorted(set(reference) | set(actual), key=repr):
            where = f"{path}/{key}"
            if key not in actual:
                found.append(f"{where}: missing")
            elif key not in reference:
                found.append(f"{where}: unexpected {actual[key]!r}")
            else:
                found.extend(diff(reference[key], actual[key], where))
        return found
    sequences = (list, tuple)
    if (
        isinstance(reference, sequences)
        and isinstance(actual, sequences)
        and len(reference) == len(actual)
    ):
        return [
            found
            for index, (expected, got) in enumerate(zip(reference, actual))
            for found in diff(expected, got, f"{path}[{index}]")
        ]
    if reference == actual and type(reference) is type(actual):
        return []
    return [f"{path or '/'}: expected {reference!r}, got {actual!r}"]


def diff_after(reference: dict, edit) -> List[str]:
    """:func:`diff` between *reference* and a copy of it that *edit* mutated."""
    mutant = copy.deepcopy(reference)
    edit(mutant)
    return diff(reference, mutant)


def assert_equivalent(reference: dict, actual: dict) -> None:
    """*actual* ≡ *reference*, neither vacuous: every top-level
    observable of the reference is non-empty."""
    empty = [name for name, value in reference.items() if not value]
    assert not empty, f"vacuous reference trace: {empty} empty"
    differences = diff(reference, actual)
    assert not differences, "traces differ:\n  " + "\n  ".join(differences[:20])


# -- the deployment axes ----------------------------------------------------------

#: The workload every deployment-level suite builds.
CONFIG = WorkloadConfig(num_regions=2, mdts_per_region=2, patients_per_mdt=5, seed=7)

#: Failure handling: ``sync`` propagates a callback's security violation
#: to the publisher, ``supervised`` contains it (audit, retry,
#: dead-letter).
ENGINE_MATRIX: Dict[str, Dict[str, Any]] = {
    "sync": {},
    "supervised": {"supervision": SupervisionPolicy()},
}
WEB_MATRIX: Dict[str, Dict[str, Any]] = {
    "uncached": {},
    "cached": {"cached_auth": True, "page_cache": True},
}
STORE_MATRIX: Dict[str, Dict[str, Any]] = {"single": {}, "sharded": {"shards": 3}}
#: Where the aggregator runs: in process, or in a cluster worker behind
#: topic-sharded broker processes.
CLUSTER_MATRIX: Dict[str, Dict[str, Any]] = {"in-process": {}, "cluster": {"cluster_workers": 2}}
