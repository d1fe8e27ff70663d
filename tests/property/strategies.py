"""Shared hypothesis strategies for the SafeWeb property tests."""

from __future__ import annotations

import pickle
from collections import OrderedDict

from hypothesis import strategies as st

from repro.core.labels import CONFIDENTIALITY, INTEGRITY, Label, LabelSet
from repro.taint import LabeledBytes, LabeledFloat, LabeledInt, LabeledStr

_AUTHORITIES = ("ecric.org.uk", "otago.ac.nz", "ic.ac.uk")
_SEGMENTS = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789._-", min_size=1, max_size=8
).filter(lambda segment: segment not in (".", ".."))


@st.composite
def labels(draw, kind=None) -> Label:
    label_kind = kind or draw(st.sampled_from((CONFIDENTIALITY, INTEGRITY)))
    authority = draw(st.sampled_from(_AUTHORITIES))
    path = tuple(draw(st.lists(_SEGMENTS, max_size=3)))
    return Label(label_kind, authority, path)


@st.composite
def label_sets(draw, max_size: int = 5) -> LabelSet:
    return LabelSet(draw(st.lists(labels(), max_size=max_size)))


#: Attribute dictionaries as events carry them (string → string).
attribute_keys = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10
)
attribute_values = st.one_of(
    st.text(max_size=20),
    st.integers(-1000, 1000).map(str),
    st.floats(-100, 100, allow_nan=False).map(str),
)
attributes = st.dictionaries(attribute_keys, attribute_values, max_size=6)


# -- values a unit may put in its LabeledStore (test_store_copy.py) ----------


class TaggedDict(dict):
    """A ``dict`` subclass: not an exact container, so never copied structurally."""


class TaggedList(list):
    """A ``list`` subclass."""


class Opaque:
    """An arbitrary object; equality is by attributes (see ``shape``)."""

    def __init__(self, payload):
        self.payload = payload


_plain_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True),
    st.text(max_size=8),
    st.binary(max_size=8),
)
_plain_keys = st.one_of(st.text(max_size=4), st.integers(-5, 5), st.booleans(), st.none())


def _trees(leaves, containers):
    return st.recursive(leaves, containers, max_leaves=20)


def _plain_containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_plain_keys, children, max_size=4),
    )


#: Trees of exact ``dict``/``list``/``tuple`` over exact plain leaves and keys —
#: what ``LabeledStore`` copies structurally (JSON trees plus tuples and bytes).
plain_trees = _trees(_plain_leaves, _plain_containers)

_odd_leaves = st.one_of(
    st.builds(LabeledStr, st.text(max_size=6), labels=label_sets(2)),
    st.builds(LabeledInt, st.integers(-99, 99), labels=label_sets(2)),
    st.builds(LabeledFloat, st.floats(-9, 9), labels=label_sets(2)),
    st.builds(LabeledBytes, st.binary(max_size=6), labels=label_sets(2)),
    st.sets(st.integers(-9, 9), max_size=3),
    st.frozensets(st.text(max_size=3), max_size=3),
    st.binary(max_size=6).map(bytearray),
    st.builds(Opaque, _plain_leaves),
)
_odd_keys = st.one_of(
    st.tuples(st.integers(-3, 3), st.text(max_size=2)),
    st.frozensets(st.integers(-3, 3), max_size=2),
    st.builds(LabeledStr, st.text(max_size=3), labels=label_sets(2)),
)


def _odd_containers(children):
    return st.one_of(
        _plain_containers(children),
        st.lists(children, max_size=3).map(TaggedList),
        st.dictionaries(st.text(max_size=3), children, max_size=3).map(TaggedDict),
        st.dictionaries(_odd_keys, children, max_size=3),
        st.builds(Opaque, children),
    )


class CountsCopies:
    """Copies itself its own way: a copy made by pickling, not by
    ``deepcopy``, shows in ``copies``."""

    def __init__(self, copies=0):
        self.copies = copies

    def __deepcopy__(self, memo):
        return CountsCopies(self.copies + 1)


def module_level_function():
    """A module-level function: ``deepcopy`` keeps it, a pickler saves it by name."""


def _list_tuple_cycle():
    """A list and a tuple that contain each other."""
    items = ["x"]
    pair = (1, items)
    items.append(pair)
    return pair


#: Values where a pickle-based copy and ``deepcopy`` could disagree, by name:
#: a ``PickleBuffer`` (``deepcopy`` refuses it, protocol 5 saves it), a
#: ``bytearray`` (``marshal`` makes it ``bytes``), float and int edges
#: inside a container (a bare scalar is never pickled), the atoms
#: ``deepcopy`` returns as they are, a container subclass, a cycle through a
#: tuple, non-string dict keys, and an object with its own ``__deepcopy__``.
EDGE_VALUES = {
    "pickle_buffer": pickle.PickleBuffer(b"ab"),
    "bytearray": bytearray(b"ab"),
    "float_edges": [float("nan"), -0.0, float("inf"), float("-inf")],
    "big_ints": [2**64, -(2**100)],
    "complex": complex(-0.0, float("nan")),
    "type": int,
    "class": OrderedDict,
    "module_function": module_level_function,
    "builtin_function": len,
    "lambda": lambda: 0,
    "ellipsis": Ellipsis,
    "range": range(3),
    "ordered_dict": OrderedDict(b=[1], a=(2,)),
    "list_tuple_cycle": _list_tuple_cycle(),
    "odd_keys": {True: [1], None: [2], (1, "a"): [3], (): [4]},
    "own_deepcopy": [CountsCopies()],
}
_edge_leaves = st.one_of(
    st.sampled_from(tuple(EDGE_VALUES.values())),
    st.sampled_from((float("nan"), -0.0, float("inf"), 2**64, -(2**100))),
    st.binary(max_size=4).map(pickle.PickleBuffer),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3).map(range),
)
_edge_keys = st.sampled_from((True, False, None, (), (1, "a"), (None, (True,))))


def _edge_containers(children):
    return st.one_of(
        _plain_containers(children),
        st.dictionaries(st.text(max_size=3), children, max_size=3).map(OrderedDict),
        st.dictionaries(_edge_keys, children, max_size=3),
    )


@st.composite
def _aliased(draw, trees):
    """One list referenced twice, a list that contains itself, or a list
    and a tuple that contain each other."""
    shared = draw(st.lists(trees, max_size=3))
    shape = draw(st.sampled_from(("twice", "self", "tuple")))
    if shape == "twice":
        return {"first": shared, "nested": [draw(trees), shared]}
    if shape == "self":
        shared.append(shared)
        return (draw(trees), shared)
    pair = (draw(trees), shared)
    shared.append(pair)
    return draw(st.sampled_from((pair, shared)))


#: Everything else a jailed unit might store: the shapes only ``deepcopy``
#: copies faithfully, alone or buried inside an otherwise plain tree.
_odd_trees = _trees(st.one_of(_plain_leaves, _odd_leaves), _odd_containers)
_edge_trees = _trees(st.one_of(_plain_leaves, _edge_leaves), _edge_containers)
adversarial_values = st.one_of(
    _odd_trees,
    _edge_trees,
    _aliased(plain_trees),
    _aliased(_odd_trees),
    _aliased(_edge_trees),
)
