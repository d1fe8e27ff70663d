"""Property suite: the sharded, incrementally-indexed store is
observation-equivalent to the seed sequential store.

:class:`~tests.reference.store.ReferenceDatabase` is the seed
implementation kept as the executable specification. Random operation
histories (puts, MVCC updates, conflicting puts, deletes of live and
missing documents, labeled and plain field values) are applied to the
reference and to :class:`~repro.storage.docstore.ShardedDatabase` at
several shard counts; every observable — document reads, label
round-trips, view rows (with and without ``include_docs``, each leaf with
its labels), changes feed, ``update_seq`` — must match exactly. The
reference being the seed, it shared the seed's bugs until PR 23
corrected both sides' view relabelling; what keeps that honest is
``tests/unit/storage/test_read_path.py``, which pins literal labels. Batched replication of the
same histories must converge the target to the same observations.

The production store decodes a revision's labeled form once and shares
it between readers, where the reference decodes on every read; the same
histories therefore also check (``_assert_read_path``) that every
document read equals a fresh decode of the stored revision — value,
per-leaf labels and user taint — and that results are caller-owned.
It likewise computes whatever a reader derives from a revision once
(``ViewRow.form``: its JSON text, a template partial's rendered
fragment), where the reference's documents are encoded and rendered per
read: ``_assert_derived_forms`` holds every form of every row to the
same derivation over the reference's rows, and every join of a view
result's JSON fragments to ``json_codec.dumps`` over them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labels import LabelSet, conf_label, int_label
from repro.exceptions import DocumentConflict, DocumentNotFound
from repro.storage import Replicator, ShardedDatabase
from repro.taint import is_user_tainted, json_codec, label, labels_of, with_labels
from repro.web.templates import TemplateRegistry
from tests.reference.store import ReferenceDatabase

L_PATIENT = conf_label("ecric.org.uk", "patient", "9")
L_MDT = conf_label("ecric.org.uk", "mdt", "3")
L_TRUSTED = int_label("ecric.org.uk", "mdt")

DOC_IDS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")

_scalars = st.one_of(
    st.text(alphabet="abcxyz/~0 ", max_size=6),
    st.integers(-9, 9),
)
_labeled_scalars = st.tuples(
    _scalars, st.sampled_from(((L_PATIENT,), (L_MDT,), (L_TRUSTED,), (L_MDT, L_TRUSTED)))
).map(lambda pair: label(pair[0], *pair[1]))
_values = st.one_of(
    _scalars,
    _labeled_scalars,
    st.lists(_scalars, max_size=3),
    # Nested containers with labeled and plain subtrees side by side,
    # and user-tainted input (storage keeps labels, drops taint).
    st.fixed_dictionaries(
        {"plain": st.lists(_scalars, max_size=2), "inner": st.lists(_labeled_scalars, max_size=2)}
    ),
    st.lists(st.fixed_dictionaries({"note": _labeled_scalars}), max_size=2),
    _scalars.map(lambda value: with_labels(value, LabelSet([L_MDT]), user_taint=True)),
)
_fields = st.dictionaries(
    st.sampled_from(("k", "name", "mdt", "tags", "extra")), _values, max_size=4
)

_operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(DOC_IDS), _fields),
        st.tuples(st.just("fresh_put"), st.sampled_from(DOC_IDS), _fields),
        st.tuples(st.just("upsert"), st.sampled_from(DOC_IDS), _fields),
        st.tuples(st.just("delete"), st.sampled_from(DOC_IDS), st.none()),
    ),
    max_size=24,
)

VIEWS = {
    "by_k": lambda doc: [(doc["k"], None)] if "k" in doc else [],
    "names": lambda doc: [(doc["name"], doc.get("mdt"))] if "name" in doc else [],
    "tags": lambda doc: [(tag, doc["_id"]) for tag in doc["tags"]]
    if isinstance(doc.get("tags"), list)
    else [],
    "fragile": lambda doc: [(doc["required"], None)],
    # Fails with whatever the fields provoke — KeyError, TypeError (an int
    # has no len), ZeroDivisionError, ValueError (a too-wide emission) —
    # and always "emits nothing", in both stores.
    "ratio": lambda doc: [(doc["_id"], 6 // len(doc["tags"]))] if doc.get("k") != 0 else [(1, 2, 3)],
    # Two views over different fields of the same documents, keyed by
    # ``_id``: whenever the fields strip equal, only the labels tell the
    # rows apart — and "pairs" holds both emissions in one view.
    "id_name": lambda doc: [(doc["_id"], doc.get("name"))],
    "id_mdt": lambda doc: [(doc["_id"], doc.get("mdt"))],
    "pairs": lambda doc: [(doc["_id"], doc.get("name")), (doc["_id"], doc.get("mdt"))],
    # A map that answers differently for labelled input: its rows cannot
    # be paired and must carry the document's confidentiality.
    "label_count": lambda doc: [(doc["_id"], len(labels_of(doc.get("k"))))],
}


_TEMPLATES = TemplateRegistry()
_TEMPLATES.register(
    "row",
    '<li id="<%= item["_id"] %>"><%= item.get("name", "") %>: <%== item.get("k", "") %>'
    '<% for tag in (item["tags"] if isinstance(item.get("tags"), list) else ()) %> [<%= tag %>]<% end %> <%= item.get("extra") %></li>',
)

#: The derived forms checked on every row: the labelled JSON text and a
#: template partial's render (escaped and raw interpolations, a loop).
FORMS = (json_codec.dumps, _TEMPLATES.get("row").render_item)


def _define_views(database) -> None:
    for name, map_function in VIEWS.items():
        database.define_view(name, map_function)


def _apply(database, operation):
    """Apply one operation, returning the exception type it raised (if any).

    ``put`` adopts the store's own current revision (exercising the MVCC
    update path); ``fresh_put`` presents no revision (a conflict when the
    document is live); ``upsert`` never conflicts (the reference predates
    it and takes the equivalent get-then-put); ``delete`` uses the live
    revision or a bogus one.
    """
    kind, doc_id, fields = operation
    try:
        if kind == "upsert" and hasattr(database, "upsert"):
            database.upsert({"_id": doc_id, **fields})
        elif kind in ("put", "upsert"):
            document = {"_id": doc_id, **fields}
            current = database.get_or_none(doc_id)
            if current is not None:
                document["_rev"] = current["_rev"]
            database.put(document)
        elif kind == "fresh_put":
            database.put({"_id": doc_id, **fields})
        else:
            current = database.get_or_none(doc_id)
            rev = current["_rev"] if current is not None else "1-bogus"
            database.delete(doc_id, rev)
    except (DocumentConflict, DocumentNotFound) as error:
        return type(error)
    return None


def _labeled_form(value):
    """A comparison key capturing the plain value, its labels and taint.

    Needed because ``LabeledStr("x", …) == "x"``: plain equality alone
    would let a row that dropped (or invented) labels slip through.
    """
    if isinstance(value, dict):
        return {k: _labeled_form(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_labeled_form(item) for item in value]
    return (value, labels_of(value), is_user_tainted(value))


def _view_observation(database, name, **kwargs):
    """View rows in comparable form: the label-per-leaf observable, on
    plain rows as much as on ``include_docs`` ones. No query may raise —
    a map that reads ``_id`` ("tags", "id_name") is served for labelled
    documents exactly as it was indexed."""
    return [
        (row.doc_id, _labeled_form(row.key), _labeled_form(row.value))
        for row in database.view(name, **kwargs)
    ]


def _observe(database):
    """Every observable surface of a store, in comparable form."""
    observation = {
        "update_seq": database.update_seq,
        "len": len(database),
        "changes": database.changes(),
        "changes_mid": database.changes(since=max(0, database.update_seq // 2)),
        "docs": {
            doc_id: _labeled_form(database.get_or_none(doc_id)) for doc_id in DOC_IDS
        },
        "contains": {doc_id: doc_id in database for doc_id in DOC_IDS},
        # Order differs by design (seed: by id; production: by creation).
        "all_docs_content": sorted(
            (_labeled_form(doc) for doc in database.all_docs()),
            key=lambda doc: doc["_id"],
        ),
    }
    for name in VIEWS:
        for key in (None, "x", 1, "alpha"):
            observation[f"view:{name}:{key!r}"] = _view_observation(
                database, name, key=key
            )
        observation[f"view_docs:{name}"] = _view_observation(
            database, name, include_docs=True
        )
    return observation


def _containers(value):
    """Every dict and list inside *value*, itself included."""
    if isinstance(value, dict):
        yield value
        for item in value.values():
            yield from _containers(item)
    elif isinstance(value, list):
        yield value
        for item in value:
            yield from _containers(item)


def _read_documents(database):
    """Every document every read surface returns, as returned."""
    documents = [database.get(doc_id) for doc_id in DOC_IDS if doc_id in database]
    documents += database.all_docs()
    for name in VIEWS:
        documents += [row.value for row in database.view(name, include_docs=True)]
    return documents


def _assert_read_path(database):
    """Reads equal a fresh decode of the stored revision and are owned.

    Called after histories whose updates were preceded by reads, so a
    labeled form left over from an earlier revision would show here.
    """
    expected = {}
    for doc_id in DOC_IDS:
        raw = database.raw_document(doc_id)
        if raw is not None and not raw.deleted:
            fresh = json_codec.decode_document(raw.body, raw.sidecar)
            expected[doc_id] = _labeled_form({**fresh, "_id": doc_id, "_rev": raw.rev})

    first, second = _read_documents(database), _read_documents(database)
    assert {doc["_id"] for doc in first} == set(expected)
    for document in first + second:
        assert _labeled_form(document) == expected[document["_id"]]
    containers = [c for document in first + second for c in _containers(document)]
    assert len({id(container) for container in containers}) == len(containers)

    for container in containers:  # scribble over everything handed out
        if isinstance(container, dict):
            container["scribbled"] = label("evil", L_PATIENT)
        else:
            container.append("evil")
    for document in _read_documents(database):
        assert _labeled_form(document) == expected[document["_id"]]


def _derive_everything(database):
    """Materialise every form of every revision a view can reach."""
    for name in VIEWS:
        for row in database.view(name, include_docs=True):
            for derive in FORMS:
                assert row.form(derive) is not None


def _assert_same_encoding(actual, expected):
    """Bytes, label set (interned identity) and taint — ``==`` alone
    would compare the text and nothing else."""
    assert type(actual) is type(expected)
    assert str.__eq__(actual, expected)
    assert labels_of(actual) is labels_of(expected)
    assert is_user_tainted(actual) == is_user_tainted(expected)


def _assert_derived_forms(database, reference):
    """Per-revision forms equal a derive-per-read of the reference.

    For every ``view(include_docs=True)`` result and every ``f`` in
    :data:`FORMS`: each ``row.form(f)`` is ``f`` of the reference's
    document for that row — text, label set and taint — ``row.json`` is
    the ``dumps`` form, and the join of the result's JSON fragments is
    ``dumps`` of the reference's list.
    """
    for name in VIEWS:
        for key in (None, "x", 1):
            rows = database.view(name, key=key, include_docs=True)
            oracle = [row.value for row in reference.view(name, key=key, include_docs=True)]
            assert [row.doc_id for row in rows] == [document["_id"] for document in oracle]
            for row, document in zip(rows, oracle):
                for derive in FORMS:
                    _assert_same_encoding(row.form(derive), derive(document))
                    _assert_same_encoding(row.form(derive), derive(row.value))
                assert row.json is row.form(json_codec.dumps)
            _assert_same_encoding(
                json_codec.join_array([row.json for row in rows]), json_codec.dumps(oracle)
            )


@settings(max_examples=60, deadline=None)
@given(operations=_operations, shards=st.sampled_from((1, 2, 3, 5)))
def test_sharded_store_equals_seed_reference(operations, shards):
    reference = ReferenceDatabase("ref")
    sharded = ShardedDatabase("new", shards=shards)
    _define_views(reference)
    _define_views(sharded)

    for operation in operations:
        assert _apply(reference, operation) == _apply(sharded, operation)
        _derive_everything(sharded)  # every form of every revision exists before the next write

    assert _observe(reference) == _observe(sharded)
    _assert_derived_forms(sharded, reference)
    _assert_read_path(sharded)
    assert _observe(reference) == _observe(sharded)  # ... which changed nothing
    _assert_derived_forms(sharded, reference)  # ... scribbled-on documents included


@settings(max_examples=60, deadline=None)
@given(operations=_operations, shards=st.sampled_from((1, 3)))
def test_views_defined_after_writes_match(operations, shards):
    reference = ReferenceDatabase("ref")
    sharded = ShardedDatabase("new", shards=shards)

    for operation in operations:
        assert _apply(reference, operation) == _apply(sharded, operation)

    # Late view definition must index the existing documents identically.
    _define_views(reference)
    _define_views(sharded)
    assert _observe(reference) == _observe(sharded)
    _assert_read_path(sharded)
    _assert_derived_forms(sharded, reference)


@settings(max_examples=40, deadline=None)
@given(
    operations=_operations,
    shards=st.sampled_from((1, 4)),
    batch_size=st.sampled_from((1, 3, 100)),
)
def test_batched_replication_converges_to_reference(operations, shards, batch_size):
    reference = ReferenceDatabase("ref")
    source = ShardedDatabase("src", shards=shards)
    target = ShardedDatabase("dst", shards=shards, read_only=True)
    _define_views(reference)
    _define_views(source)
    _define_views(target)

    replicator = Replicator(source, target, batch_size=batch_size)
    for index, operation in enumerate(operations):
        assert _apply(reference, operation) == _apply(source, operation)
        if index % 5 == 4:
            replicator.replicate()  # interleaved incremental passes
            _read_documents(target)  # ... each read before the next lands
            _derive_everything(target)  # ... and derived: a stale fragment would show
    replicator.replicate()

    _assert_read_path(source)
    _assert_read_path(target)
    _assert_derived_forms(source, reference)
    _assert_derived_forms(target, reference)
    observed_reference = _observe(reference)
    observed_target = _observe(target)
    # The replica sees the deduplicated feed: every *surviving* document,
    # label and view row matches the reference (sequence numbering on the
    # target reflects arrival, so feeds are compared by content).
    for surface in ("docs", "contains", "len", "all_docs_content"):
        assert observed_target[surface] == observed_reference[surface]
    for name in observed_reference:
        if name.startswith(("view:", "view_docs:")):
            assert observed_target[name] == observed_reference[name]
    assert {
        (change.doc_id, change.rev, change.deleted)
        for change in observed_target["changes"]
    } == {
        (change.doc_id, change.rev, change.deleted)
        for change in observed_reference["changes"]
    }
