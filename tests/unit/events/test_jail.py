"""Unit tests for the IFC jail (the $SAFE=4 analogue, paper §4.3)."""

import copy
import json
import socket
import threading

import pytest

from repro.events import jail as jail_module
from repro.events.jail import (
    DEFAULT_DENIED_PREFIXES,
    Jail,
    isolate_callback,
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
