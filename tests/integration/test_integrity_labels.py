"""Integration: integrity labels end to end (paper §4.1, §3).

The dual of confidentiality: integrity labels certify provenance, are
*fragile* under derivation, require *endorsement* privilege to add, and
a component can demand them on its inputs ("components can then trust
only data that is guaranteed by this integrity label").
"""

import time

import pytest

from repro.core.labels import LabelSet, conf_label, int_label
from repro.core.policy import parse_policy
from repro.events import Broker, EventProcessingEngine, Unit
from repro.exceptions import EndorsementError

ENDORSED = int_label("ecric.org.uk", "mdt")
PATIENT = conf_label("ecric.org.uk", "patient", "1")

POLICY = parse_policy(
    """
    authority ecric.org.uk

    unit importer {
        privileged
        endorsement label:int:ecric.org.uk/mdt
    }

    unit mixer {
        clearance label:conf:ecric.org.uk/patient
    }

    unit strict_consumer {
        clearance label:conf:ecric.org.uk/patient
    }
    """
)


class Importer(Unit):
    """Privileged: endorses everything it imports."""

    unit_name = "importer"

    def setup(self):
        self.subscribe("/import", self.on_import)

    def on_import(self, event):
        self.publish(
            "/validated",
            {"n": event.get("n", "")},
            add=[ENDORSED, PATIENT],
        )


class Mixer(Unit):
    """Combines a validated event with unvalidated side input."""

    unit_name = "mixer"

    def setup(self):
        self.subscribe("/validated", self.on_validated)

    def on_validated(self, event):
        # Reading unvalidated state drops the integrity label (fragile).
        side = self.store.get("unvalidated_note", "")
        self.publish("/mixed", {"n": event.get("n", ""), "note": str(side)})


class StrictConsumer(Unit):
    """Accepts only endorsed inputs."""

    unit_name = "strict_consumer"

    def setup(self):
        self.subscribe("/validated", self.on_data, require_integrity=[ENDORSED])
        self.subscribe("/mixed", self.on_data, require_integrity=[ENDORSED])

    def on_data(self, event):
        seen = self.store.get("seen", [])
        seen.append(event.topic)
        self.store.set("seen", seen)


@pytest.fixture()
def engine():
    return EventProcessingEngine(
        broker=Broker(raise_errors=True), policy=POLICY, raise_callback_errors=True
    )


class TestEndorsement:
    def test_endorsed_pipeline_reaches_strict_consumer(self, engine):
        engine.register(Importer())
        engine.register(StrictConsumer())
        engine.publish("/import", {"n": "1"})
        assert engine.store_of("strict_consumer").get("seen") == ["/validated"]

    def test_unendorsed_event_filtered_from_strict_consumer(self, engine):
        engine.register(StrictConsumer())
        engine.publish("/validated", {"n": "raw"}, labels=[PATIENT])
        assert engine.store_of("strict_consumer").get("seen") is None
        assert engine.broker.stats.label_filtered == 1

    def test_endorsement_requires_privilege(self, engine):
        class Forger(Unit):
            unit_name = "mixer"  # no endorsement privilege

            def setup(self):
                self.subscribe("/import_forged", self.on_event)

            def on_event(self, event):
                self.publish("/validated", add=[ENDORSED])

        engine.register(Forger())
        with pytest.raises(EndorsementError):
            engine.publish("/import_forged", {})

    def test_integrity_fragile_through_unvalidated_state(self, engine):
        engine.register(Importer())
        engine.register(Mixer())
        engine.register(StrictConsumer())
        # Poison the mixer's store with unvalidated state (no integrity).
        from repro.events.context import LabelContext

        engine.store_of("mixer")  # materialise
        with LabelContext(LabelSet()):
            engine.store_of("mixer").set("unvalidated_note", "who knows")

        engine.publish("/import", {"n": "2"})
        seen = engine.store_of("strict_consumer").get("seen")
        # /validated (endorsed) arrived; /mixed lost the integrity label
        # when combined with unvalidated store state and was filtered.
        assert seen == ["/validated"]

    def test_pure_endorsed_derivation_keeps_integrity(self, engine):
        class PureRelay(Unit):
            unit_name = "mixer"

            def setup(self):
                self.subscribe("/validated", self.on_event)

            def on_event(self, event):
                # Derivation purely from the endorsed event: ambient keeps
                # the integrity label, so the relayed event stays endorsed.
                self.publish("/mixed", {"n": event.get("n", "")})

        engine.register(Importer())
        engine.register(PureRelay())
        engine.register(StrictConsumer())
        engine.publish("/import", {"n": "3"})
        assert sorted(engine.store_of("strict_consumer").get("seen")) == [
            "/mixed",
            "/validated",
        ]


class TestIntegrityOverStomp:
    def test_require_integrity_header_enforced_server_side(self):
        from repro.events.stomp import StompClient, StompServer

        broker = Broker()
        server = StompServer(broker, policy=POLICY).start()
        try:
            host, port = server.address
            strict = StompClient(host, port, login="strict_consumer").connect()
            received = []
            strict.subscribe("/feed", received.append, require_integrity=[ENDORSED])
            publisher = StompClient(host, port, login="importer").connect()
            publisher.send("/feed", {"n": "plain"}, receipt=True)
            publisher.send("/feed", {"n": "endorsed"}, labels=[ENDORSED], receipt=True)
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and not received:
                time.sleep(0.01)
            time.sleep(0.05)
            assert [event["n"] for event in received] == ["endorsed"]
            strict.disconnect()
            publisher.disconnect()
        finally:
            server.stop()
