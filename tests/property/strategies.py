"""Shared hypothesis strategies for the SafeWeb property tests."""

from __future__ import annotations

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


@st.composite
def _aliased(draw, trees):
    """One list referenced twice, or a list that contains itself."""
    shared = draw(st.lists(trees, max_size=3))
    if draw(st.booleans()):
        return {"first": shared, "nested": [draw(trees), shared]}
    shared.append(shared)
    return (draw(trees), shared)


#: Everything else a jailed unit might store: the shapes only ``deepcopy``
#: copies faithfully, alone or buried inside an otherwise plain tree.
_odd_trees = _trees(st.one_of(_plain_leaves, _odd_leaves), _odd_containers)
adversarial_values = st.one_of(_odd_trees, _aliased(plain_trees), _aliased(_odd_trees))
