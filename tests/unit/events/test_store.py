"""Unit tests for the labelled key-value store (paper §4.3)."""

import copy
import sys

import pytest

from repro.core.labels import LabelSet, conf_label, int_label
from repro.core.principals import UnitPrincipal
from repro.core.privileges import DECLASSIFICATION, ENDORSEMENT, PrivilegeSet
from repro.events import LabelContext, LabeledStore, current_labels
from repro.events import store as store_module
from repro.events.jail import Jail
from repro.exceptions import DeclassificationError, EndorsementError
from repro.taint import LabeledStr

PATIENT = conf_label("ecric.org.uk", "patient", "1")
MDT = conf_label("ecric.org.uk", "mdt", "1")
TRUSTED = int_label("ecric.org.uk", "mdt")


def make_store(**privileges) -> LabeledStore:
    principal = UnitPrincipal("test_unit", privileges=PrivilegeSet(privileges))
    return LabeledStore(principal)


class TestReadWrite:
    def test_write_stamps_ambient_labels(self):
        store = make_store()
        with LabelContext(LabelSet([PATIENT])):
            store.set("list", ["p1"])
        assert store.labels_for("list") == LabelSet([PATIENT])

    def test_read_widens_ambient_labels(self):
        store = make_store()
        with LabelContext(LabelSet([PATIENT])):
            store.set("list", ["p1"])
        with LabelContext():
            value = store.get("list")
            assert value == ["p1"]
            assert current_labels() == LabelSet([PATIENT])

    def test_listing1_accumulation_pattern(self):
        """The paper's Listing 1: state accumulates labels of all writers."""
        store = make_store()
        patient2 = conf_label("ecric.org.uk", "patient", "2")
        with LabelContext(LabelSet([PATIENT])):
            patients = store.get("patient_list", [])
            patients.append("p1")
            store.set("patient_list", patients)
        with LabelContext(LabelSet([patient2])):
            patients = store.get("patient_list", [])
            patients.append("p2")
            store.set("patient_list", patients)
        assert store.labels_for("patient_list") == LabelSet([PATIENT, patient2])

    def test_get_default_without_widening(self):
        store = make_store()
        with LabelContext():
            assert store.get("missing", 42) == 42
            assert current_labels() == LabelSet()

    def test_read_outside_context_returns_value(self):
        store = make_store()
        with LabelContext(LabelSet([PATIENT])):
            store.set("k", "v")
        assert store.get("k") == "v"  # no ambient context to widen

    def test_values_are_copied_not_shared(self):
        store = make_store()
        original = {"rows": [1]}
        with LabelContext():
            store.set("k", original)
            original["rows"].append(2)
            first_read = store.get("k")
            first_read["rows"].append(3)
            second_read = store.get("k")
        assert first_read == {"rows": [1, 3]}
        assert second_read == {"rows": [1]}

    def test_labels_for_does_not_widen(self):
        store = make_store()
        with LabelContext(LabelSet([PATIENT])):
            store.set("k", "v")
        with LabelContext():
            assert store.labels_for("k") == LabelSet([PATIENT])
            assert current_labels() == LabelSet()

    def test_keys_contains_len_delete_clear(self):
        store = make_store()
        with LabelContext():
            store.set("b", 1)
            store.set("a", 2)
        assert store.keys() == ["a", "b"]
        assert "a" in store
        assert len(store) == 2
        store.delete("a")
        assert "a" not in store
        store.clear()
        assert len(store) == 0


class TestCopyFallback:
    """Plain data is frozen by the pickler; only the rest pays ``deepcopy``."""

    @pytest.fixture()
    def fallbacks(self, monkeypatch):
        taken = []

        def counting_deepcopy(value):
            taken.append(value)
            return copy.deepcopy(value)

        monkeypatch.setattr(store_module, "deepcopy", counting_deepcopy)
        return taken

    def test_default_deployment_never_takes_the_fallback(self, fallbacks):
        from repro.mdt.deployment import MdtDeployment

        deployment = MdtDeployment()
        try:
            deployment.import_data()
            deployment.aggregate()
            assert len(deployment.engine.store_of("data_aggregator")) > 0
        finally:
            deployment.close()
        assert fallbacks == []

    def test_non_tree_value_takes_it_once_per_call(self, fallbacks):
        store = make_store()
        value = {"rows": [1], "name": LabeledStr("x", labels=LabelSet([PATIENT]))}
        with LabelContext():
            store.set("k", value)
            assert len(fallbacks) == 1
            assert store.get("k") == value
            assert len(fallbacks) == 2
            store.set("plain", {"rows": [1]})
            store.get("plain")
        assert len(fallbacks) == 2


class TestCopyWork:
    """A plain value is frozen and thawed in C: the Python work of one jailed
    ``set`` plus ``get`` does not grow with the value's containers, and no
    ``id()`` (an audit event inside the jail) is called per container."""

    JAIL = Jail()

    def profiled_round_trip(self, value):
        store = make_store()
        calls, id_calls = [], []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)
            elif event == "c_call" and arg is id:
                id_calls.append(arg)

        with self.JAIL.contained():
            sys.setprofile(profile)
            try:
                store.set("k", value)
                copied = store.get("k")
            finally:
                sys.setprofile(None)
        assert copied == value
        return calls, id_calls

    def test_python_calls_do_not_grow_with_containers(self):
        one = [1, 2, 3]
        twenty = {"rows": [{"mid": index, "tags": [index]} for index in range(9)]}
        small_calls, small_ids = self.profiled_round_trip(one)
        large_calls, large_ids = self.profiled_round_trip(twenty)
        assert len(small_calls) == len(large_calls)
        assert small_ids == large_ids == []


class TestLabelManipulation:
    def test_add_labels_requires_no_privilege(self):
        store = make_store()
        with LabelContext():
            store.set("k", "v", add=[PATIENT])
        assert store.labels_for("k") == LabelSet([PATIENT])

    def test_remove_requires_declassification(self):
        store = make_store()
        with LabelContext(LabelSet([PATIENT])):
            with pytest.raises(DeclassificationError):
                store.set("k", "v", remove=[PATIENT])

    def test_remove_with_privilege(self):
        store = make_store(**{DECLASSIFICATION: [PATIENT]})
        with LabelContext(LabelSet([PATIENT, MDT])):
            store.set("k", "v", remove=[PATIENT])
        assert store.labels_for("k") == LabelSet([MDT])

    def test_integrity_add_requires_endorsement(self):
        store = make_store()
        with LabelContext():
            with pytest.raises(EndorsementError):
                store.set("k", "v", add=[TRUSTED])

    def test_integrity_add_with_privilege(self):
        store = make_store(**{ENDORSEMENT: [TRUSTED]})
        with LabelContext():
            store.set("k", "v", add=[TRUSTED])
        assert store.labels_for("k") == LabelSet([TRUSTED])

    def test_missing_key_labels_empty(self):
        assert make_store().labels_for("nope") == LabelSet()


class TestEngineAlignedSemantics:
    """`store.set` applies ±add/remove exactly like the engine's publish.

    Regression tests for the seed's two divergences: privilege was
    demanded for the *full* remove set (even labels the key never
    carried), and labels were combined union-then-difference (so a label
    in both add and remove survived a publish but was stripped by set).
    """

    def test_removing_absent_label_needs_no_privilege(self):
        store = make_store()  # no declassification at all
        with LabelContext(LabelSet([MDT])):
            stored = store.set("k", "v", remove=[PATIENT])  # PATIENT not ambient
        assert stored == LabelSet([MDT])

    def test_privilege_checked_only_for_effective_removals(self):
        # Declassification for PATIENT covers the effective removal set
        # {PATIENT} even though the requested set also names MDT (absent).
        store = make_store(**{DECLASSIFICATION: [PATIENT]})
        with LabelContext(LabelSet([PATIENT])):
            stored = store.set("k", "v", remove=[PATIENT, MDT])
        assert stored == LabelSet()

    def test_label_in_add_and_remove_survives(self):
        # The engine computes ambient.difference(remove).union(add): a
        # label listed in both sets is re-applied after removal. The
        # seed's union-then-difference stripped it.
        store = make_store(**{DECLASSIFICATION: [PATIENT]})
        with LabelContext(LabelSet([PATIENT])):
            stored = store.set("k", "v", add=[PATIENT], remove=[PATIENT])
        assert stored == LabelSet([PATIENT])

    def test_set_matches_engine_publish_result(self):
        """Same ambient, same ±sets → same labels as a unit publish."""
        from repro.core.policy import parse_policy
        from repro.events import Broker, EventProcessingEngine, Unit

        policy = parse_policy(
            """
            authority ecric.org.uk

            unit aligned {
                clearance label:conf:ecric.org.uk/patient
                clearance label:conf:ecric.org.uk/mdt
                declassification label:conf:ecric.org.uk/patient
            }
            """
        )
        engine = EventProcessingEngine(
            broker=Broker(raise_errors=True), policy=policy, raise_callback_errors=True
        )

        class Aligned(Unit):
            unit_name = "aligned"

            def setup(self):
                self.subscribe("/in", self.on_event)

            def on_event(self, event):
                self.store.set("k", "v", add=[PATIENT], remove=[PATIENT, MDT])
                self.publish("/out", add=[PATIENT], remove=[PATIENT, MDT])

        engine.register(Aligned())
        published = []
        engine.broker.subscribe(
            "/out", published.append, clearance=policy.unit("aligned").privileges
        )
        engine.publish("/in", labels=[PATIENT])
        stored = engine.store_of("aligned").labels_for("k")
        assert stored == published[0].labels == LabelSet([PATIENT])


class TestIntegrityFragilityOnRead:
    def test_reading_unendorsed_state_drops_ambient_integrity(self):
        store = make_store()
        with LabelContext():
            store.set("plain", "value")  # no integrity label
        with LabelContext(LabelSet([TRUSTED])):
            store.get("plain")
            assert current_labels().integrity == frozenset()

    def test_reading_endorsed_state_keeps_integrity(self):
        store = make_store(**{ENDORSEMENT: [TRUSTED]})
        with LabelContext():
            store.set("endorsed", "value", add=[TRUSTED])
        with LabelContext(LabelSet([TRUSTED])):
            store.get("endorsed")
            assert current_labels().integrity == {TRUSTED}

    def test_confidentiality_still_widens_on_read(self):
        store = make_store()
        with LabelContext(LabelSet([PATIENT])):
            store.set("k", "v")
        with LabelContext(LabelSet([MDT])):
            store.get("k")
            assert current_labels().confidentiality == {PATIENT, MDT}
