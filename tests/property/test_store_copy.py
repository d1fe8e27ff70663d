"""Property: ``LabeledStore``'s copy is ``copy.deepcopy``, observably.

``set`` keeps a private frozen form and ``get`` hands out a fresh copy of
it (paper §4.3: a jailed callback never retains a reference into stored
state). The store pickles plain data once and thaws it with
``pickle.loads``, and keeps ``copy.deepcopy`` of everything else; either
way a ``set`` followed by a ``get`` must be indistinguishable from
``copy.deepcopy(copy.deepcopy(value))``, or raise what ``deepcopy`` raises.
"""

import copy
import types

import pytest
from hypothesis import given, settings

from repro.core.principals import UnitPrincipal
from repro.events import LabeledStore
from repro.events.jail import Jail

from tests.property.strategies import EDGE_VALUES, adversarial_values, plain_trees

JAIL = Jail()
_SCALARS = (str, bytes, int, float, type(None))  # plain or labelled
#: What ``deepcopy`` returns as it is; compared by ``repr``, like scalars.
_ATOMS = (complex, range, type, type(Ellipsis), types.FunctionType, types.BuiltinFunctionType)
_IMMUTABLE = (tuple, frozenset)


def _children(node):
    if isinstance(node, dict):
        return [part for item in node.items() for part in item]
    if isinstance(node, (list, tuple)):
        return list(node)
    if isinstance(node, (set, frozenset)):
        return sorted(node, key=repr)
    if isinstance(node, bytearray):
        return [bytes(node)]
    return [vars(node)]


def shape(value):
    """Exact type and content at every depth; a container met again is
    replaced by the position of its first visit, so two values have the
    same shape iff they are equal, same-typed and aliased alike."""
    first_visit = {}

    def walk(node):
        kind = type(node)
        if isinstance(node, _SCALARS + _ATOMS):
            return (kind, repr(node))
        if id(node) in first_visit:
            return ("again", first_visit[id(node)])
        first_visit[id(node)] = len(first_visit)
        return (kind, [walk(child) for child in _children(node)])

    return walk(value)


def mutable_ids(value):
    """``id`` of every mutable container reachable from *value*."""
    found, seen, stack = set(), set(), [value]
    while stack:
        node = stack.pop()
        if isinstance(node, _SCALARS + _ATOMS) or id(node) in seen:
            continue
        seen.add(id(node))
        if not isinstance(node, _IMMUTABLE):
            found.add(id(node))
        stack.extend(_children(node))
    return found


def check_round_trip(value):
    store = LabeledStore(UnitPrincipal("unit"))
    try:
        once = copy.deepcopy(value)
        twice = copy.deepcopy(once)
    except Exception as refused:
        with JAIL.contained(), pytest.raises(type(refused)):
            store.set("key", value)
        assert "key" not in store
        return
    with JAIL.contained():
        store.set("key", value)
        first = store.get("key")
        second = store.get("key")
    thaw, frozen, _ = store._entries["key"]
    # A fallback entry holds its deepcopy; a frozen one holds bytes.
    stored = frozen if thaw is copy.deepcopy else thaw(frozen)
    assert shape(stored) == shape(once)
    assert shape(first) == shape(second) == shape(twice)
    owners = [mutable_ids(each) for each in (value, stored, first, second)]
    for index, ids in enumerate(owners):
        for other in owners[index + 1:]:
            assert not ids & other


@given(plain_trees)
def test_plain_tree_round_trip_equals_deepcopy(value):
    check_round_trip(value)


@settings(max_examples=300)
@given(adversarial_values)
def test_adversarial_round_trip_equals_deepcopy(value):
    check_round_trip(value)


@pytest.mark.parametrize("name", sorted(EDGE_VALUES))
def test_edge_value_round_trip_equals_deepcopy(name):
    check_round_trip(EDGE_VALUES[name])
