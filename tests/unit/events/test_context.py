"""Unit tests for the ambient label context."""

import contextlib
import threading

import pytest

from repro.core.labels import LabelSet, conf_label
from repro.events import LabelContext, current_labels, extend_labels

PATIENT = conf_label("ecric.org.uk", "patient", "1")
MDT = conf_label("ecric.org.uk", "mdt", "1")


class TestLabelContext:
    def test_empty_outside_context(self):
        assert current_labels() == LabelSet()

    def test_initial_labels(self):
        with LabelContext(LabelSet([PATIENT])):
            assert current_labels() == LabelSet([PATIENT])
        assert current_labels() == LabelSet()

    def test_extend(self):
        with LabelContext(LabelSet([PATIENT])) as context:
            extend_labels(LabelSet([MDT]))
            assert current_labels() == LabelSet([PATIENT, MDT])
            assert context.labels == LabelSet([PATIENT, MDT])

    def test_extend_accepts_iterables(self):
        with LabelContext():
            extend_labels([PATIENT])
            assert current_labels() == LabelSet([PATIENT])

    def test_extend_outside_context_raises(self):
        with pytest.raises(RuntimeError):
            extend_labels(LabelSet([PATIENT]))

    def test_nesting_restores(self):
        with LabelContext(LabelSet([PATIENT])):
            with LabelContext(LabelSet([MDT])):
                assert current_labels() == LabelSet([MDT])
            assert current_labels() == LabelSet([PATIENT])

    def test_inner_extension_does_not_leak_to_outer(self):
        with LabelContext(LabelSet([PATIENT])):
            with LabelContext():
                extend_labels([MDT])
            assert current_labels() == LabelSet([PATIENT])

    def test_per_thread_isolation(self):
        seen = {}

        def worker():
            seen["inner"] = current_labels()
            with LabelContext(LabelSet([MDT])):
                seen["inner_context"] = current_labels()

        with LabelContext(LabelSet([PATIENT])):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert current_labels() == LabelSet([PATIENT])
        assert seen["inner"] == LabelSet()
        assert seen["inner_context"] == LabelSet([MDT])


class TestCombineAmbient:
    def test_confidentiality_widens(self):
        from repro.events.context import combine_ambient

        with LabelContext(LabelSet([PATIENT])):
            combine_ambient(LabelSet([MDT]))
            assert current_labels().confidentiality == {PATIENT, MDT}

    def test_integrity_narrows(self):
        from repro.core.labels import int_label
        from repro.events.context import combine_ambient

        trusted = int_label("ecric.org.uk", "mdt")
        with LabelContext(LabelSet([trusted, PATIENT])):
            combine_ambient(LabelSet())  # read of unendorsed data
            assert current_labels().integrity == frozenset()
            assert current_labels().confidentiality == {PATIENT}

    def test_integrity_kept_when_input_endorsed(self):
        from repro.core.labels import int_label
        from repro.events.context import combine_ambient

        trusted = int_label("ecric.org.uk", "mdt")
        with LabelContext(LabelSet([trusted])):
            combine_ambient(LabelSet([trusted, MDT]))
            assert current_labels().integrity == {trusted}
            assert MDT in current_labels()

    def test_outside_context_raises(self):
        from repro.events.context import combine_ambient

        with pytest.raises(RuntimeError):
            combine_ambient(LabelSet([PATIENT]))


class TestEnterLabels:
    """The engine's per-delivery entry: a push it pops itself."""

    def test_push_and_pop(self):
        from repro.events.context import enter_labels

        stack = enter_labels(LabelSet([PATIENT]))
        try:
            assert current_labels() == LabelSet([PATIENT])
            extend_labels([MDT])
            assert current_labels() == LabelSet([PATIENT, MDT])
        finally:
            stack.pop()
        assert current_labels() == LabelSet()

    def test_nests_inside_a_label_context(self):
        from repro.events.context import enter_labels

        with LabelContext(LabelSet([MDT])):
            stack = enter_labels(LabelSet([PATIENT]))
            assert current_labels() == LabelSet([PATIENT])
            stack.pop()
            assert current_labels() == LabelSet([MDT])


def _stack_now():
    from repro.events import context

    return list(getattr(context._state, "stack", []))


class TestDeliveryRestoresTheStack:
    """After a delivery — and after one whose callback raised — the
    thread's ambient stack is exactly what it was before."""

    @staticmethod
    def _engine(raise_errors):
        from repro.core.audit import AuditLog
        from repro.core.policy import parse_policy
        from repro.events import Broker, EventProcessingEngine, unit_from_function

        policy = parse_policy(
            """
            authority ecric.org.uk
            unit reader {
                clearance label:conf:ecric.org.uk/patient
            }
            unit exporter {
                privileged
                clearance label:conf:ecric.org.uk/patient
            }
            """
        )
        engine = EventProcessingEngine(
            broker=Broker(audit=AuditLog(), raise_errors=raise_errors),
            policy=policy,
            audit=AuditLog(),
            raise_callback_errors=raise_errors,
        )

        def handler(unit, event):
            SEEN_LABELS.append((unit.name, current_labels()))
            unit.store.get("widen")  # a read widens the ambient set
            if event.get("fail"):
                raise ValueError("unit bug")

        for name in ("reader", "exporter"):
            unit = unit_from_function("/t", name=name)(handler)
            engine.register(unit)
            engine.store_of(name).set("widen", 1, add=[MDT])
        return engine

    @pytest.mark.parametrize("outer", [None, LabelSet([MDT])])
    @pytest.mark.parametrize("fail", [False, True])
    def test_stack_equal_before_and_after(self, outer, fail):
        engine = self._engine(raise_errors=fail)
        del SEEN_LABELS[:]
        with LabelContext(outer) if outer is not None else contextlib.nullcontext():
            before = _stack_now()
            if fail:
                with pytest.raises(ValueError):
                    engine.publish("/t", {"fail": "1"}, labels=[PATIENT])
            else:
                engine.publish("/t", labels=[PATIENT])
            assert _stack_now() == before
        assert _stack_now() == []
        assert SEEN_LABELS[0] == ("reader", LabelSet([PATIENT]))
        if not fail:
            assert SEEN_LABELS[1] == ("exporter", LabelSet([PATIENT]))


#: Written by jailed callbacks (isolation copies globals shallowly).
SEEN_LABELS = []
