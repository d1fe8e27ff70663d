"""Property suite for the stored-write path (paper §4.4 hand-off).

The write path does each piece of its work once and in place — the label
split takes plain leaves and simple keys inline, ``with_labels``
dispatches exact scalars by type, a commit maps one shared document into
every view and leaves a per-key index alone when its keys did not move.
Each shortcut is held here to the slow, obvious version of the same job,
spelled out in this file:

(a) ``encode_document`` against a two-pass strip-then-collect, and the
    stored revision's combined ``labels`` against the union of the
    document's leaf label sets;
(b) ``with_labels`` against the ``isinstance`` ladder it replaced, kept
    verbatim;
(c) every view index after a random write history against the index a
    fresh database builds from the final revisions alone.
"""

from typing import Any, Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labels import EMPTY_LABELS, LabelSet, conf_label, int_label
from repro.exceptions import DocumentConflict, DocumentNotFound
from repro.storage import Database
from repro.taint import is_user_tainted, json_codec, labels_of
from repro.taint.labeled import _CONTAINER_TYPES, is_labeled, strip_labels, with_labels
from repro.taint.number import LabeledFloat, LabeledInt
from repro.taint.string import LabeledBytes, LabeledStr

L_PATIENT = conf_label("ecric.org.uk", "patient", "9")
L_MDT = conf_label("ecric.org.uk", "mdt", "3")
L_TRUSTED = int_label("ecric.org.uk", "mdt")

_label_sets = st.sampled_from(
    (
        EMPTY_LABELS,
        LabelSet([L_PATIENT]),
        LabelSet([L_MDT]),
        LabelSet([L_TRUSTED]),
        LabelSet([L_PATIENT, L_MDT]),
        LabelSet([L_MDT, L_TRUSTED]),
    )
)


def shape(value: Any) -> Any:
    """*value* with every type, label set and taint bit spelled out, so
    ``1``/``1.0``/``True`` and a labelled/plain pair never compare equal."""
    if isinstance(value, dict):
        return ("dict", [(shape(key), shape(item)) for key, item in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [shape(item) for item in value])
    if isinstance(value, (set, frozenset)):
        return (type(value).__name__, sorted((shape(item) for item in value), key=repr))
    labels = sorted(labels_of(value).to_uris())
    return (type(value).__name__, repr(strip_labels(value)), labels, is_user_tainted(value))


# -- (a) the label split -------------------------------------------------------

_text = st.text(alphabet="ab~/0 é", max_size=4)
_plain_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-9, 9), st.floats(-9, 9, allow_nan=False), _text
)
_labelled_scalars = st.one_of(
    st.builds(LabeledStr, _text, _label_sets, st.booleans()),
    st.builds(LabeledInt, st.integers(-9, 9), _label_sets),
    st.builds(LabeledFloat, st.floats(-9, 9, allow_nan=False), _label_sets),
)
_storable_leaves = st.one_of(_plain_scalars, _labelled_scalars)
_str_keys = st.one_of(_text, st.builds(LabeledStr, _text, _label_sets))


def _storable_containers(children):
    return st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_str_keys, children, max_size=4),
    )


def _any_containers(children):
    hashable = st.one_of(_plain_scalars, _labelled_scalars)
    return st.one_of(
        _storable_containers(children),
        st.dictionaries(st.one_of(st.integers(-3, 3), st.booleans(), st.none()), children, max_size=3),
        st.sets(hashable, max_size=3),
        st.frozensets(hashable, max_size=3),
    )


_any_leaves = st.one_of(
    _storable_leaves, st.binary(max_size=3), st.builds(LabeledBytes, st.binary(max_size=3), _label_sets)
)
#: Anything ``encode_document`` accepts, storable or not.
documents = st.recursive(_any_leaves, _any_containers, max_leaves=16)
#: Bodies the store accepts: JSON values under string keys.
storable_bodies = st.dictionaries(
    _str_keys, st.recursive(_storable_leaves, _storable_containers, max_leaves=10), max_size=6
)


def two_pass_encode(document: Any):
    """Strip, then walk again for the labels: the reference."""
    sidecar: Dict[str, List[str]] = {}
    _collect(document, "", sidecar)
    return strip_labels(document), sidecar


def _collect(value: Any, pointer: str, sidecar: Dict[str, List[str]]) -> None:
    if is_labeled(value):
        if labels_of(value):
            sidecar[pointer] = labels_of(value).to_uris()
    elif isinstance(value, dict):
        for key, item in value.items():
            token = str(key).replace("~", "~0").replace("/", "~1")
            _collect(item, pointer + "/" + token, sidecar)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _collect(item, pointer + "/" + str(index), sidecar)
    # Sets have no stable pointers: stripped, never recorded.


def leaf_label_sets(value: Any) -> List[LabelSet]:
    if is_labeled(value):
        return [labels_of(value)]
    if isinstance(value, dict):
        return [labels for item in value.values() for labels in leaf_label_sets(item)]
    if isinstance(value, (list, tuple)):
        return [labels for item in value for labels in leaf_label_sets(item)]
    return []


@settings(max_examples=300, deadline=None)
@given(documents)
def test_encode_document_equals_strip_then_collect(document):
    plain, sidecar = json_codec.encode_document(document)
    expected_plain, expected_sidecar = two_pass_encode(document)
    assert shape(plain) == shape(expected_plain)
    assert list(sidecar.items()) == list(expected_sidecar.items())


@settings(max_examples=200, deadline=None)
@given(storable_bodies)
def test_a_stored_revision_carries_the_union_of_its_leaf_label_sets(body):
    database = Database("app")
    body = {key: item for key, item in body.items() if key not in ("_id", "_rev")}
    database.upsert({"_id": "doc", **body})
    stored = database.raw_document("doc")
    expected_plain, expected_sidecar = two_pass_encode(body)
    assert shape(stored.body) == shape(expected_plain)
    assert list(stored.sidecar.items()) == list(expected_sidecar.items())
    union = EMPTY_LABELS
    for labels in leaf_label_sets(body):
        union = union.union(labels)
    assert stored.labels == union


# -- (b) with_labels -----------------------------------------------------------


def ladder_with_labels(value: Any, labels: LabelSet, user_taint: "bool | None" = None) -> Any:
    """``with_labels`` as it stood before the exact-type dispatch, verbatim
    (recursing into itself, so containers take the old path at every depth)."""
    if user_taint is None:
        user_taint = is_user_tainted(value)
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, str):
        return LabeledStr(value, labels=labels, user_taint=user_taint)
    if isinstance(value, bytes):
        return LabeledBytes(value, labels=labels, user_taint=user_taint)
    if isinstance(value, int):
        return LabeledInt(value, labels=labels, user_taint=user_taint)
    if isinstance(value, float):
        return LabeledFloat(value, labels=labels, user_taint=user_taint)
    if isinstance(value, dict):
        return {
            k: ladder_with_labels(v, labels_of(v).union(labels), is_user_tainted(v) or user_taint)
            for k, v in value.items()
        }
    if isinstance(value, _CONTAINER_TYPES):
        rebuilt = (
            ladder_with_labels(item, labels_of(item).union(labels), is_user_tainted(item) or user_taint)
            for item in value
        )
        return type(value)(rebuilt)
    raise TypeError(f"cannot attach labels to {type(value).__name__} values")


class Name(str):
    """A ``str`` subclass that is not a labelled type."""


_wrappable = st.one_of(
    _any_leaves,
    _text.map(Name),
    st.builds(LabeledStr, _text, _label_sets, st.just(True)),
    documents,
)


@settings(max_examples=300, deadline=None)
@given(_wrappable, _label_sets, st.sampled_from((None, True, False)))
def test_with_labels_equals_the_isinstance_ladder(value, labels, user_taint):
    assert shape(with_labels(value, labels, user_taint)) == shape(
        ladder_with_labels(value, labels, user_taint)
    )


@pytest.mark.parametrize("user_taint", [None, True, False])
@pytest.mark.parametrize(
    "value", ["s", b"b", 3, 2.5, Name("n"), LabeledStr("t", [L_MDT], True), LabeledInt(4, [L_MDT])]
)
def test_every_scalar_type_under_every_taint_argument(value, user_taint):
    labels = LabelSet([L_PATIENT, L_TRUSTED])
    wrapped = with_labels(value, labels, user_taint)
    assert shape(wrapped) == shape(ladder_with_labels(value, labels, user_taint))
    assert labels_of(wrapped) is labels
    assert is_user_tainted(wrapped) is (is_user_tainted(value) if user_taint is None else user_taint)


@pytest.mark.parametrize("value", [None, True, False])
def test_bool_and_none_pass_through(value):
    assert with_labels(value, LabelSet([L_PATIENT]), True) is value


def test_an_unlabelable_value_is_still_refused():
    with pytest.raises(TypeError, match="cannot attach labels to object"):
        with_labels(object(), LabelSet([L_PATIENT]))


# -- (c) view upkeep -----------------------------------------------------------

DOC_IDS = ("alpha", "beta", "gamma", "delta")

_keys = st.one_of(
    st.sampled_from(("a", "b", 1, 1.0, True, None, 2)),
    st.lists(st.integers(0, 1), max_size=2),  # unhashable when emitted as a key
    st.sampled_from(("a", 1)).map(lambda value: with_labels(value, LabelSet([L_MDT]))),
)
_view_fields = st.fixed_dictionaries(
    {},
    optional={
        "k": _keys,
        "tags": st.lists(st.sampled_from(("a", "b", 1)), max_size=3),
        "n": st.integers(0, 2),
    },
)


def _wide(doc):
    yield doc["k"], None, None


VIEWS = {
    "by_k": lambda doc: [(doc["k"], None)] if "k" in doc else [],
    "tags": lambda doc: [(tag, doc["_id"]) for tag in doc.get("tags", ())],
    "pair": lambda doc: [((doc.get("k"), doc.get("n")), None)] if not isinstance(doc.get("k"), list) else [(doc["k"], 1)],
    "constant": lambda doc: [("every", doc.get("n"))],
    "fragile": lambda doc: [(doc["k"], None)],
    "divides": lambda doc: [(6 // doc["n"], None)],
    "wide": _wide,
    # Equal keys, one hashable and one not: only the per-key index differs.
    "setish": lambda doc: [((frozenset if doc.get("n") else set)(doc.get("tags", ())), None)],
}

_history = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(("put", "upsert")), st.sampled_from(DOC_IDS), _view_fields),
        st.tuples(st.just("delete"), st.sampled_from(DOC_IDS), st.none()),
        st.tuples(
            st.just("replicate"),
            st.lists(st.tuples(st.sampled_from(DOC_IDS), _view_fields, st.booleans()), min_size=1, max_size=3),
            st.none(),
        ),
    ),
    max_size=20,
)


def _apply(database: Database, operation, counter: List[int]) -> None:
    kind, target, fields = operation
    try:
        if kind == "upsert":
            database.upsert({"_id": target, **fields})
        elif kind == "put":
            current = database.get_or_none(target)
            revision = {} if current is None else {"_rev": current["_rev"]}
            database.put({"_id": target, **revision, **fields})
        elif kind == "delete":
            current = database.get_or_none(target)
            database.delete(target, current["_rev"] if current is not None else "1-bogus")
        else:
            entries = []
            for doc_id, entry_fields, deleted in target:
                counter[0] += 1
                plain, sidecar = json_codec.encode_document(entry_fields)
                entries.append(
                    (doc_id, f"{counter[0]}-replicated", None if deleted else plain, {} if deleted else sidecar, deleted)
                )
            database.replication_put_batch(entries)
    except (DocumentConflict, DocumentNotFound):
        pass


def _index_state(database: Database) -> dict:
    return {
        name: (
            {doc_id: shape(rows) for doc_id, rows in view.rows.items()},
            {key: set(docs) for key, docs in view.by_key.items()},
            set(view.unhashable_docs),
        )
        for name, view in database._views.items()
    }


@settings(max_examples=300, deadline=None)
@given(_history)
def test_incremental_view_upkeep_equals_indexing_the_final_documents(history):
    incremental = Database("app")
    for name, map_function in VIEWS.items():
        incremental.define_view(name, map_function)
    counter = [0]
    for operation in history:
        _apply(incremental, operation, counter)

    fresh = Database("app")
    finals = [incremental.raw_document(doc_id) for doc_id in DOC_IDS]
    fresh.load_recovered(enumerate((stored for stored in finals if stored is not None), start=1))
    for name, map_function in VIEWS.items():
        fresh.define_view(name, map_function)

    assert _index_state(incremental) == _index_state(fresh)
    for name in VIEWS:
        assert [shape((row.doc_id, row.key, row.value)) for row in incremental.view(name)] == [
            shape((row.doc_id, row.key, row.value)) for row in fresh.view(name)
        ]
        for key in ("a", 1, [0, 1], ("a", 1)):
            assert incremental.view(name, key=key) == fresh.view(name, key=key)
