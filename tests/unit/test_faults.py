"""The fault injector's contract: one arming rule for every action, an
``fsync`` fault that leaves the durable watermark behind, and one point
catalogue that matches the points the code hits."""

import ast
import pathlib
from types import SimpleNamespace

import pytest

import repro
from repro.faults import FAULT_POINTS, FaultInjector, InjectedFault, SimulatedCrash
from repro.storage.faults import TrackedFile

POINT = "bridge.send"

ARMINGS = {
    "crash_at": lambda injector, on: injector.crash_at(POINT, on=on),
    "fail_at": lambda injector, on: injector.fail_at(POINT, on=on),
    "delay_at": lambda injector, on: injector.delay_at(POINT, seconds=0.25, on=on),
}


@pytest.mark.parametrize("kind", sorted(ARMINGS))
@pytest.mark.parametrize("before", [0, 2])
@pytest.mark.parametrize("on", [1, 3, (1, 3)])
def test_every_action_counts_arrivals_from_arming(monkeypatch, kind, before, on):
    """Armed after *before* arrivals with ``on=n``, an action fires on
    arrival ``before + n`` and on no other."""
    slept = []
    monkeypatch.setattr("repro.faults.time", SimpleNamespace(sleep=slept.append))
    injector = FaultInjector()
    for _ in range(before):
        injector.hit(POINT)
    ARMINGS[kind](injector, on)
    expected = [before + n for n in ((on,) if isinstance(on, int) else on)]
    fired = []
    for arrival in range(before + 1, max(expected) + 4):
        try:
            injector.hit(POINT)
        except (SimulatedCrash, InjectedFault):
            fired.append(arrival)
        if slept:
            fired.append(arrival)
            slept.clear()
    assert fired == expected
    assert injector.arrivals(POINT) == max(expected) + 3
    assert injector.crashed_at == (POINT if kind == "crash_at" else None)


def test_an_fsync_fault_keeps_the_durable_watermark(tmp_path):
    injector = FaultInjector().fail_at("fsync", error=OSError("injected fsync failure"))
    tracked = TrackedFile(tmp_path / "file", "wb", injector)
    tracked.write(b"abc")
    with pytest.raises(OSError):
        tracked.fsync()
    assert tracked.durable < tracked.written
    injector.power_loss()  # the un-synced bytes go with the page cache
    assert (tmp_path / "file").read_bytes() == b""


def _named_point(node):
    """The point a literal argument names, its ``:<qualifier>`` suffix
    (or an f-string's formatted tail) normalised to ``:<unit>``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value
    elif isinstance(node, ast.JoinedStr) and isinstance(node.values[0], ast.Constant):
        text = node.values[0].value
    else:
        return None
    name, qualified, _ = text.partition(":")
    return name + ":<unit>" if qualified else name


def _hit_points():
    """(location, point) for each ``x.hit(point)`` and
    ``partial(x.hit, point)`` under ``src/repro``."""
    root = pathlib.Path(repro.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            first = node.args[0]
            if isinstance(node.func, ast.Attribute) and node.func.attr == "hit":
                argument = first
            elif isinstance(first, ast.Attribute) and first.attr == "hit" and len(node.args) > 1:
                argument = node.args[1]
            else:
                continue
            found.append((f"{path.relative_to(root)}:{node.lineno}", _named_point(argument)))
    return found


def test_the_catalogue_is_the_set_of_points_the_code_hits():
    found = _hit_points()
    assert all(point is not None for _, point in found), [
        where for where, point in found if point is None
    ]
    assert len(set(FAULT_POINTS)) == len(FAULT_POINTS)
    assert {point for _, point in found} == set(FAULT_POINTS)
