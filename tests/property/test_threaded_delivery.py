"""Property suite: the engine over a threaded broker ≡ over the inline one.

``Broker(threaded=True)`` hands every delivery to a dispatcher thread —
the way the STOMP server and the async pipeline run the engine. The
engine establishes the LabelContext and jail containment per delivery,
on whichever thread delivers, so these properties pin the threaded run's
observable semantics to the inline reference over *generated* unit
graphs and event sequences:

* **per-unit observation order** — each unit's store-logged sequence of
  (topic, payload, labels) is identical;
* **store contents** — final key → (value, labels) maps are identical,
  including the ambient widening that store reads cause;
* **ambient-label propagation** — labels on forwarded events (and on
  everything derived from them) are identical;
* **audit decisions** — the multiset of (component, operation,
  principal, decision, labels) enforcement decisions is identical;
  jailed-unit I/O denials and declassification/endorsement denials are
  part of the generated behaviour vocabulary and also pinned by
  deterministic cases below.

Generated pipeline graphs give every unit a single inbound subscription:
the inline broker *nests* a cascade inside the delivery that caused it,
while the dispatcher queues it behind the events already published, so a
unit fed by two sources may see their events interleaved differently.
Per-source FIFO — the guarantee the dispatcher does make — is pinned
separately for fan-in graphs below.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.audit import AuditLog
from repro.core.labels import conf_label, int_label
from repro.core.policy import Policy, PolicyDocument, UnitSpec
from repro.events import Broker, EventProcessingEngine, Unit
from tests.threaded import settle

AUTHORITY = "ecric.org.uk"
POOL = [conf_label(AUTHORITY, "tag", str(index)) for index in range(4)]
SECRET = conf_label(AUTHORITY, "secret")
TRUSTED = int_label(AUTHORITY, "mdt")
EXTERNAL_TOPICS = ["/ext/a", "/ext/b", "/ext/c"]

# -- generated scenario shapes -------------------------------------------------

label_subset = st.lists(
    st.sampled_from(POOL), unique=True, max_size=len(POOL)
).map(tuple)

behaviours = st.sampled_from(
    ["record", "accumulate", "forward", "declassify", "endorse", "io"]
)


@st.composite
def unit_specs(draw):
    """A pipeline of 2–5 units, each with a single inbound subscription."""
    count = draw(st.integers(2, 5))
    specs = []
    for index in range(count):
        # Upstream: an external topic, or the output topic of an earlier
        # unit (chains and fan-out; a single in-edge keeps the inline
        # nested-cascade order and the dispatcher's arrival order equal).
        if index == 0 or draw(st.booleans()):
            source = draw(st.sampled_from(EXTERNAL_TOPICS))
        else:
            source = f"/u/u{draw(st.integers(0, index - 1))}"
        specs.append(
            {
                "name": f"u{index}",
                "source": source,
                "behaviour": draw(behaviours),
                "privileged": draw(st.booleans()) and draw(st.booleans()),
                "clearance": draw(label_subset),
                "full_clearance": draw(st.booleans()),
                "declassification": draw(label_subset),
                "endorsement": draw(st.booleans()),
                "add": draw(label_subset),
                "remove": draw(label_subset),
            }
        )
    return specs


@st.composite
def event_sequences(draw):
    count = draw(st.integers(1, 20))
    return [
        {
            "topic": draw(st.sampled_from(EXTERNAL_TOPICS)),
            "payload": f"p{index}",
            "labels": draw(label_subset),
            "secret": draw(st.booleans()) and draw(st.booleans()),
        }
        for index in range(count)
    ]


def build_policy(specs) -> Policy:
    document = PolicyDocument(authority=AUTHORITY)
    for spec in specs:
        grants = {}
        if spec["full_clearance"]:
            grants["clearance"] = [conf_label(AUTHORITY, "tag").uri, SECRET.uri]
        elif spec["clearance"]:
            grants["clearance"] = [label.uri for label in spec["clearance"]]
        if spec["declassification"]:
            grants["declassification"] = [
                label.uri for label in spec["declassification"]
            ]
        if spec["endorsement"]:
            grants.setdefault("endorsement", []).append(TRUSTED.uri)
        document.units[spec["name"]] = UnitSpec(
            name=spec["name"], privileged=spec["privileged"], grants=grants
        )
    return Policy(document)


class ScriptedUnit(Unit):
    """One generated unit; behaviour is data, not code, so the isolated
    clone the jail creates behaves identically to the original."""

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
            # IsolationError when jailed; OSError for privileged units —
            # either way an audited callback failure.
            with open("/nonexistent-safeweb-dir/leak.txt", "w") as handle:
                handle.write(event.payload or "")


def run_scenario(specs, events, threaded: bool, batch: bool = False):
    """Run the scenario; returns (stores, audit multiset, dispatched)."""
    audit = AuditLog()
    broker = Broker(threaded=threaded, audit=audit)
    engine = EventProcessingEngine(
        broker=broker, policy=build_policy(specs), audit=audit
    )
    for spec in specs:
        engine.register(ScriptedUnit(spec))
    try:
        payloads = [
            {
                "topic": event["topic"],
                "payload": event["payload"],
                "labels": list(event["labels"]) + ([SECRET] if event["secret"] else []),
            }
            for event in events
        ]
        if batch:
            engine.publish_batch(payloads)
        else:
            for event in payloads:
                engine.publish(
                    event["topic"], payload=event["payload"], labels=event["labels"]
                )
        settle(broker)
        stores = {}
        for spec in specs:
            store = engine.store_of(spec["name"])
            stores[spec["name"]] = {
                key: (store.get(key), tuple(store.labels_for(key).to_uris()))
                for key in store.keys()
            }
        decisions = Counter(
            (
                record.component,
                record.operation,
                record.principal,
                record.decision,
                tuple(record.labels.to_uris()),
            )
            for record in audit.records()
        )
        return stores, decisions, engine.stats.dispatched
    finally:
        broker.stop()


class TestThreadedEquivalence:
    @given(unit_specs(), event_sequences())
    @settings(max_examples=30, deadline=None)
    def test_threaded_broker_matches_inline_reference(self, specs, events):
        inline_stores, inline_audit, inline_dispatched = run_scenario(
            specs, events, threaded=False
        )
        stores, audit, dispatched = run_scenario(specs, events, threaded=True)
        assert stores == inline_stores
        assert audit == inline_audit
        assert dispatched == inline_dispatched

    @given(unit_specs(), event_sequences())
    @settings(max_examples=15, deadline=None)
    def test_batched_dispatch_matches_per_event_publish(self, specs, events):
        """publish_batch through the dispatcher ≡ per-event inline publish."""
        inline_stores, inline_audit, _ = run_scenario(specs, events, threaded=False)
        stores, audit, _ = run_scenario(specs, events, threaded=True, batch=True)
        assert stores == inline_stores
        assert audit == inline_audit


class FanInRecorder(Unit):
    """Multi-subscription unit: logs each source topic's events in order."""

    def __init__(self, name, sources):
        super().__init__()
        self.unit_name = name
        self.sources = sources

    def setup(self):
        for source in self.sources:
            self.subscribe(source, self.on_event)

    def on_event(self, event):
        key = f"obs:{event.topic}"
        log = self.store.get(key, [])
        log.append((event.payload, tuple(event.labels.to_uris())))
        self.store.set(key, log)


class TestFanInPerSourceOrder:
    """Fan-in graphs: the dispatcher keeps per-source FIFO, and the final
    store state (per-source logs) is identical to the inline run."""

    @given(
        st.lists(
            st.tuples(st.sampled_from(EXTERNAL_TOPICS), label_subset),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_per_source_logs_identical(self, events):
        def run(threaded):
            audit = AuditLog()
            document = PolicyDocument(authority=AUTHORITY)
            document.units["fanin"] = UnitSpec(
                name="fanin",
                grants={"clearance": [conf_label(AUTHORITY, "tag").uri]},
            )
            broker = Broker(threaded=threaded, audit=audit)
            engine = EventProcessingEngine(
                broker=broker, policy=Policy(document), audit=audit
            )
            engine.register(FanInRecorder("fanin", EXTERNAL_TOPICS))
            try:
                for index, (topic, labels) in enumerate(events):
                    engine.publish(topic, payload=f"p{index}", labels=list(labels))
                settle(broker)
                store = engine.store_of("fanin")
                return {key: store.get(key) for key in store.keys()}, {
                    key: tuple(store.labels_for(key).to_uris())
                    for key in store.keys()
                }
            finally:
                broker.stop()

        assert run(threaded=False) == run(threaded=True)


class TestDeterministicDenialEquivalence:
    """Jailed I/O, declassification and endorsement denials: explicit
    cases the generators only hit probabilistically."""

    def _spec(self, behaviour, **overrides):
        spec = {
            "name": "u0",
            "source": "/ext/a",
            "behaviour": behaviour,
            "privileged": False,
            "clearance": tuple(POOL),
            "full_clearance": True,
            "declassification": (),
            "endorsement": False,
            "add": (),
            "remove": tuple(POOL[:1]),
        }
        spec.update(overrides)
        return spec

    def _both(self, spec, events):
        return (
            run_scenario([spec], events, threaded=False),
            run_scenario([spec], events, threaded=True),
        )

    def test_jailed_io_denied_identically(self):
        events = [{"topic": "/ext/a", "payload": "x", "labels": (POOL[0],), "secret": False}]
        inline, threaded = self._both(self._spec("io"), events)
        assert inline == threaded
        audit = inline[1]
        assert any(key[1] == "callback" and key[3] == "denied" for key in audit)

    def test_declassification_denied_identically(self):
        events = [{"topic": "/ext/a", "payload": "x", "labels": (POOL[0],), "secret": False}]
        inline, threaded = self._both(self._spec("declassify"), events)
        assert inline == threaded
        audit = inline[1]
        assert any(key[1] == "declassify" and key[3] == "denied" for key in audit)

    def test_declassification_allowed_identically(self):
        events = [{"topic": "/ext/a", "payload": "x", "labels": (POOL[0],), "secret": False}]
        spec = self._spec("declassify", declassification=tuple(POOL))
        inline, threaded = self._both(spec, events)
        assert inline == threaded
        audit = inline[1]
        assert not any(key[1] == "declassify" and key[3] == "denied" for key in audit)

    def test_endorsement_denied_identically(self):
        events = [{"topic": "/ext/a", "payload": "x", "labels": (), "secret": False}]
        inline, threaded = self._both(self._spec("endorse"), events)
        assert inline == threaded
        audit = inline[1]
        assert any(key[1] == "endorse" and key[3] == "denied" for key in audit)
