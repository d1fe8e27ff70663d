"""Unit tests for the IFC jail (the $SAFE=4 analogue, paper §4.3)."""

import contextlib
import copy
import json
import socket
import threading

import pytest

from repro.core.audit import AuditLog
from repro.core.policy import parse_policy
from repro.events import Broker, EventProcessingEngine, unit_from_function
from repro.events import jail as jail_module
from repro.events.jail import (
    DEFAULT_DENIED_PREFIXES,
    Jail,
    enter_jail,
    isolate_callback,
    leave_jail,
    restricted_builtins,
)
from repro.exceptions import IsolationError


@pytest.fixture()
def jail() -> Jail:
    return Jail()


class TestIODenial:
    def test_open_denied(self, jail, tmp_path):
        target = tmp_path / "leak.txt"
        with jail.contained():
            with pytest.raises(IsolationError):
                open(target, "w")
        assert not target.exists()

    def test_open_allowed_outside(self, jail, tmp_path):
        target = tmp_path / "ok.txt"
        with jail.contained():
            pass
        target.write_text("fine")
        assert target.read_text() == "fine"

    def test_socket_connect_denied(self, jail):
        sock = socket.socket()
        try:
            with jail.contained():
                with pytest.raises(IsolationError):
                    sock.connect(("127.0.0.1", 9))
        finally:
            sock.close()

    def test_import_denied(self, jail):
        import sys

        sys.modules.pop("wave", None)
        with jail.contained():
            with pytest.raises(IsolationError):
                import wave  # noqa: F401

    def test_subprocess_denied(self, jail):
        import subprocess

        with jail.contained():
            with pytest.raises(IsolationError):
                subprocess.Popen(["true"])

    def test_os_operations_denied(self, jail, tmp_path):
        import os

        with jail.contained():
            with pytest.raises(IsolationError):
                os.mkdir(tmp_path / "dir")

    def test_containment_is_per_thread(self, jail, tmp_path):
        target = tmp_path / "other-thread.txt"
        errors = []

        def writer():
            try:
                target.write_text("from outside the jail")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with jail.contained():
            thread = threading.Thread(target=writer)
            thread.start()
            thread.join()
        assert not errors
        assert target.exists()

    def test_nested_containment(self, jail, tmp_path):
        with jail.contained():
            with jail.contained():
                pass
            # still contained after inner exit
            with pytest.raises(IsolationError):
                open(tmp_path / "x", "w")

    def test_inner_jail_does_not_weaken_the_outer_one(self, jail, tmp_path):
        narrow = Jail(("socket.",))
        with jail.contained():
            with narrow.contained():
                with pytest.raises(IsolationError):  # union while nested
                    open(tmp_path / "inner", "w")
            with pytest.raises(IsolationError):  # outer set restored on exit
                open(tmp_path / "outer", "w")
        (tmp_path / "after").write_text("uncontained again")

    def test_inner_jail_tightens_then_restores(self, tmp_path):
        import os

        with Jail(("socket.",)).contained():
            with Jail(("os.",)).contained():
                with pytest.raises(IsolationError):
                    os.mkdir(tmp_path / "denied")
            os.mkdir(tmp_path / "allowed")
        assert (tmp_path / "allowed").is_dir()

    def test_active_property(self, jail):
        assert not jail.active
        with jail.contained():
            assert jail.active
        assert not jail.active


def _in_force():
    """The denied-prefix tuple on the calling thread (``None`` outside any jail)."""
    return getattr(jail_module._state, "denied_prefixes", None)


#: Written by jailed callbacks: isolation copies a callback's globals
#: dictionary shallowly, so a module-level list is still this list.
CASCADE_SEEN = []

CASCADE_POLICY = parse_policy(
    """
    authority ecric.org.uk

    unit first {
        clearance label:conf:ecric.org.uk/patient
    }

    unit second {
        clearance label:conf:ecric.org.uk/patient
    }

    unit exporter {
        privileged
    }
    """
)


class TestContainmentObjects:
    """``contained()`` / ``lifted()`` are plain enter/exit objects;
    their nesting is what the generator versions did."""

    def test_nested_different_jail_unions_and_restores(self):
        outer, inner = Jail(("socket.", "os.")), Jail(("os.", "open"))
        assert _in_force() is None
        with outer.contained():
            assert _in_force() == ("socket.", "os.")
            with inner.contained():
                assert _in_force() == ("socket.", "os.", "open")  # outer first, no repeat
                with outer.contained():
                    assert _in_force() == ("socket.", "os.", "open")
                assert _in_force() == ("socket.", "os.", "open")
            assert _in_force() == ("socket.", "os.")
        assert _in_force() is None

    def test_exception_inside_restores(self, jail):
        with Jail(("socket.",)).contained():
            with pytest.raises(IsolationError):
                with jail.contained():
                    open("/nonexistent-and-denied")
            assert _in_force() == ("socket.",)
            with pytest.raises(KeyError):
                with jail.contained():
                    raise KeyError("unit bug")
            assert _in_force() == ("socket.",)
        assert _in_force() is None

    def test_lifted_inside_contained_and_back(self, jail, tmp_path):
        with Jail.lifted():  # a lift outside any jail is a no-op
            assert _in_force() is None
        with jail.contained():
            with Jail.lifted():
                assert _in_force() is None and not jail.active
                (tmp_path / "lifted").write_text("privileged unit I/O")
                with jail.contained():  # a jailed unit invoked by the privileged one
                    assert _in_force() == DEFAULT_DENIED_PREFIXES
                assert _in_force() is None
            assert _in_force() == DEFAULT_DENIED_PREFIXES
            with pytest.raises(IsolationError):
                open(tmp_path / "contained-again", "w")
            with pytest.raises(RuntimeError):
                with Jail.lifted():
                    raise RuntimeError("privileged unit bug")
            assert _in_force() == DEFAULT_DENIED_PREFIXES
        assert _in_force() is None

    def test_two_threads_contained_independently(self):
        barrier = threading.Barrier(2, timeout=30)
        seen, errors = {}, []

        def worker(name, prefixes):
            try:
                unit_jail = Jail(prefixes)
                barrier.wait()
                with unit_jail.contained():
                    barrier.wait()  # both threads are inside their own jail now
                    seen[name] = _in_force()
                    barrier.wait()
                seen[name + ":after"] = _in_force()
            except BaseException as error:  # noqa: BLE001 - reported by the main thread
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=("a", ("socket.",))),
            threading.Thread(target=worker, args=("b", ("os.",))),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors and not any(thread.is_alive() for thread in threads)
        assert seen == {"a": ("socket.",), "b": ("os.",), "a:after": None, "b:after": None}
        assert _in_force() is None

    def test_same_jail_reentered_by_a_cascade_publish(self, tmp_path):
        """Sync engine: a jailed unit's publish runs the next unit's
        callback inside the first one's containment, on the same jail."""
        engine = EventProcessingEngine(
            broker=Broker(raise_errors=True),
            policy=CASCADE_POLICY,
            audit=AuditLog(),
            raise_callback_errors=True,
        )
        target = tmp_path / "exported"

        @unit_from_function("/in", name="first")
        def first(unit, event):
            CASCADE_SEEN.append(("first:before", _in_force()))
            unit.publish("/next")
            CASCADE_SEEN.append(("first:after", _in_force()))

        @unit_from_function("/next", name="second")
        def second(unit, event):
            CASCADE_SEEN.append(("second", _in_force()))
            unit.publish("/export")
            CASCADE_SEEN.append(("second:after", _in_force()))

        @unit_from_function("/export", name="exporter")
        def exporter(unit, event):
            CASCADE_SEEN.append(("exporter", _in_force()))
            target.write_text("privileged, two jails down")

        for unit in (first, second, exporter):
            engine.register(unit)
        del CASCADE_SEEN[:]
        engine.publish("/in")
        jailed = engine._jail._denied_prefixes
        assert [name for name, _ in CASCADE_SEEN] == [
            "first:before", "second", "exporter", "second:after", "first:after",
        ]
        assert all(
            (state is None) if name == "exporter" else (state is jailed)
            for name, state in CASCADE_SEEN
        )
        assert target.exists() and _in_force() is None


class TestEnterJail:
    """``enter_jail`` / ``leave_jail``: the engine's per-delivery entry,
    with the nesting the containment objects have."""

    def test_enter_and_leave(self):
        outer = enter_jail(("socket.",))
        assert outer is None and _in_force() == ("socket.",)
        inner = enter_jail(("os.", "socket."))
        assert inner == ("socket.",) and _in_force() == ("socket.", "os.")
        lifted = enter_jail(None)
        assert lifted == ("socket.", "os.") and _in_force() is None
        leave_jail(lifted)
        leave_jail(inner)
        assert _in_force() == ("socket.",)
        leave_jail(outer)
        assert _in_force() is None

    def test_same_tuple_reentered_is_not_widened(self):
        outer = enter_jail(DEFAULT_DENIED_PREFIXES)
        inner = enter_jail(DEFAULT_DENIED_PREFIXES)
        assert _in_force() is DEFAULT_DENIED_PREFIXES
        leave_jail(inner)
        leave_jail(outer)
        assert _in_force() is None


REVERSE_POLICY = parse_policy(
    """
    authority ecric.org.uk

    unit importer {
        privileged
    }

    unit jailed {
        clearance label:conf:ecric.org.uk/patient
    }
    """
)


class TestDeliveryRestoresTheJail:
    """After a delivery — and after one whose callback raised — the
    thread's denied prefixes are exactly what they were before."""

    def _engine(self, policy, raise_errors=False):
        return EventProcessingEngine(
            broker=Broker(raise_errors=raise_errors),
            policy=policy,
            audit=AuditLog(),
            raise_callback_errors=raise_errors,
        )

    @pytest.mark.parametrize("outer", [None, ("socket.",)])
    @pytest.mark.parametrize("fail", [False, True])
    def test_prefixes_equal_before_and_after(self, outer, fail):
        engine = self._engine(REVERSE_POLICY, raise_errors=fail)

        @unit_from_function("/in", name="jailed")
        def jailed(unit, event):
            CASCADE_SEEN.append(("jailed", _in_force()))
            if event.get("fail"):
                raise ValueError("unit bug")

        @unit_from_function("/in", name="importer")
        def importer(unit, event):
            CASCADE_SEEN.append(("importer", _in_force()))
            if event.get("fail"):
                raise ValueError("privileged unit bug")

        engine.register(jailed)
        engine.register(importer)
        del CASCADE_SEEN[:]
        with Jail(outer).contained() if outer else contextlib.nullcontext():
            before = _in_force()
            if fail:
                with pytest.raises(ValueError):
                    engine.publish("/in", {"fail": "1"})
            else:
                engine.publish("/in")
            assert _in_force() == before
        assert _in_force() is None
        expected_jail = (outer or ()) + tuple(
            prefix for prefix in DEFAULT_DENIED_PREFIXES if prefix not in (outer or ())
        )
        assert CASCADE_SEEN[0] == ("jailed", expected_jail)
        if not fail:
            assert CASCADE_SEEN[1] == ("importer", None)

    def test_privileged_unit_triggering_a_jailed_one(self, tmp_path):
        """The reverse of the cascade above: a privileged unit's publish
        runs a jailed unit inside it, which is jailed, and the privileged
        unit is unjailed again when its publish returns."""
        engine = self._engine(REVERSE_POLICY, raise_errors=True)
        target = tmp_path / "imported"

        @unit_from_function("/raw", name="importer")
        def importer(unit, event):
            CASCADE_SEEN.append(("importer:before", _in_force()))
            unit.publish("/clean")
            CASCADE_SEEN.append(("importer:after", _in_force()))
            target.write_text("privileged I/O after a jailed delivery")

        @unit_from_function("/clean", name="jailed")
        def jailed(unit, event):
            CASCADE_SEEN.append(("jailed", _in_force()))

        engine.register(importer)
        engine.register(jailed)
        del CASCADE_SEEN[:]
        with Jail(("socket.",)).contained():  # a jailed publisher
            engine.publish("/raw")
            assert _in_force() == ("socket.",)
        assert CASCADE_SEEN == [
            ("importer:before", None),
            ("jailed", DEFAULT_DENIED_PREFIXES),
            ("importer:after", None),
        ]
        assert target.exists() and _in_force() is None


def _reference_denies(event: str, denied) -> bool:
    """The prefix loop ``_audit_hook`` ran before it became one C call."""
    for prefix in denied:
        if event.startswith(prefix):
            return True
    return False


def _hook_denies(event: str) -> bool:
    try:
        jail_module._audit_hook(event, ())
    except IsolationError:
        return True
    return False


class TestHookEquivalence:
    """The O(1) hook decides exactly as the prefix loop did."""

    NEAR_MISSES = ("opening", "o", "", "builtins.id", "ope", "os", "socket", "xopen", "Open")
    PREFIX_SETS = (DEFAULT_DENIED_PREFIXES, ("socket.", "my.custom"), ("",), ())

    @pytest.mark.parametrize("denied", PREFIX_SETS)
    def test_same_decision_as_the_prefix_loop(self, denied):
        events = set(self.NEAR_MISSES) | set(DEFAULT_DENIED_PREFIXES) | set(denied)
        events |= {prefix + "connect" for prefix in events}
        with Jail(denied).contained():
            for event in sorted(events):
                assert _hook_denies(event) == _reference_denies(event, denied), event

    def test_nothing_denied_outside_containment(self):
        Jail()
        assert not any(_hook_denies(prefix) for prefix in DEFAULT_DENIED_PREFIXES)

    def test_allowed_audit_events_stay_allowed(self, jail):
        record = {"tumours": [{"site": "C50"}], "sources": ["p1"], "tags": {"a", "b"}}
        with jail.contained():
            assert isinstance(id(record), int)
            duplicate = copy.deepcopy(record)
            encoded = json.dumps({"tumours": record["tumours"]})
        assert duplicate == record and duplicate["tumours"] is not record["tumours"]
        assert json.loads(encoded) == {"tumours": [{"site": "C50"}]}


class TestRestrictedBuiltins:
    def test_denied_builtins_raise(self):
        namespace = restricted_builtins()
        for name in ("open", "exec", "eval", "print", "__import__", "input"):
            with pytest.raises(IsolationError):
                namespace[name]()

    def test_safe_builtins_still_present(self):
        namespace = restricted_builtins()
        assert namespace["len"]([1, 2]) == 2
        assert namespace["sorted"]([2, 1]) == [1, 2]


class TestScopeIsolation:
    def test_global_writes_do_not_leak(self):
        import tests.unit.events.jail_target as target

        isolated = isolate_callback(target.set_global)
        isolated("inside")
        assert target.GLOBAL_VALUE == "initial"

    def test_global_reads_see_registration_snapshot(self):
        import tests.unit.events.jail_target as target

        isolated = isolate_callback(target.read_global)
        assert isolated() == "initial"

    def test_closure_writes_do_not_leak(self):
        holder = {"value": "outside"}

        def handler(_event):
            holder["value"] = "inside"
            return holder["value"]

        isolated = isolate_callback(handler)
        assert isolated(None) == "inside"
        assert holder["value"] == "outside"

    def test_closure_nonlocal_rebinding_does_not_leak(self):
        counter = 0

        def handler(_event):
            nonlocal counter
            counter += 1
            return counter

        isolated = isolate_callback(handler)
        assert isolated(None) == 1
        assert isolated(None) == 2  # the clone's own cell accumulates
        assert counter == 0

    def test_bound_method_receiver_copied(self):
        class Holder:
            def __init__(self):
                self.value = "outside"

            def mutate(self, _event):
                self.value = "inside"
                return self.value

        holder = Holder()
        isolated = isolate_callback(holder.mutate)
        assert isolated(None) == "inside"
        assert holder.value == "outside"

    def test_shared_service_opt_out(self):
        class Services:
            def __deepcopy__(self, memo):
                return self

        services = Services()

        class UnitLike:
            def __init__(self):
                self.services = services

            def handler(self, _event):
                return self.services

        isolated = isolate_callback(UnitLike().handler)
        assert isolated(None) is services

    def test_module_and_function_cells_shared(self):
        import json

        def helper(x):
            return x * 2

        def handler(_event):
            return json.dumps(helper(2))

        isolated = isolate_callback(handler)
        assert isolated(None) == "4"

    def test_denied_builtin_inside_isolated_callback(self):
        def handler(_event):
            return open("/etc/passwd")

        isolated = isolate_callback(handler)
        with pytest.raises(IsolationError):
            isolated(None)

    def test_defaults_preserved(self):
        def handler(event, suffix="!"):
            return str(event) + suffix

        isolated = isolate_callback(handler)
        assert isolated("x") == "x!"

    def test_kwonly_defaults_preserved(self):
        def handler(event, *, suffix="!"):
            return str(event) + suffix

        isolated = isolate_callback(handler)
        assert isolated("x") == "x!"

    def test_callable_object(self):
        class Handler:
            def __init__(self):
                self.calls = 0

            def __call__(self, _event):
                self.calls += 1
                return self.calls

        handler = Handler()
        isolated = isolate_callback(handler)
        assert isolated(None) == 1
        assert handler.calls == 0

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError):
            isolate_callback(42)
