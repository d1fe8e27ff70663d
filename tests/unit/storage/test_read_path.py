"""The docstore read path: a revision's labeled form is materialised
once and shared, so every reader must get documents it owns, from one
consistent snapshot, carrying the labels of the *current* revision —
and the revision's derived forms (``ViewRow.form``, ``ViewRow.json``)
are the store's own, whatever a reader does to its copy. Plain view rows
carry the labels of the fields their own view emitted them from, and the
changes feed holds one entry per document."""

import sys
import threading

import pytest

from repro.core.labels import LabelSet, conf_label, int_label
from repro.storage import Database, Replicator, ShardedDatabase, ViewRow
from repro.storage.recovery import close_durable, open_durable_database
from repro.taint import is_user_tainted, json_codec, label, labels_of
from repro.web.templates import TemplateRegistry
from tests.reference.store import ReferenceDatabase

PATIENT = conf_label("ecric.org.uk", "patient", "1")
MDT = conf_label("ecric.org.uk", "mdt", "1")
OTHER_MDT = conf_label("ecric.org.uk", "mdt", "2")
TRUSTED = int_label("ecric.org.uk", "mdt")


def _by_kind(doc):
    return [(doc["kind"], None)] if "kind" in doc else []


@pytest.fixture(params=["database", "sharded", "durable"])
def store(request, tmp_path):
    """(database, reopen) for each store flavour; *reopen* returns the
    store as a later reader would find it (a recovered instance for the
    durable flavour, the same object otherwise)."""
    if request.param == "database":
        database = Database("app")
        yield database, lambda: database
    elif request.param == "sharded":
        database = ShardedDatabase("app", shards=4)
        yield database, lambda: database
    else:
        opened = [open_durable_database(tmp_path, "app", shards=2)]

        def reopen():
            close_durable(opened.pop())
            opened.append(open_durable_database(tmp_path, "app", shards=2))
            opened[0].define_view("by_kind", _by_kind)
            return opened[0]

        yield opened[0], reopen
        close_durable(opened.pop())


def _vandalise(document):
    """Mutate every container of a read result in place."""
    document["tags"].append("evil")
    document["nested"]["inner"].append("evil")
    document["nested"]["added"] = "evil"
    document["visits"][0]["note"] = "evil"
    document["visits"].append({"note": "evil"})
    document["name"] = "evil"
    document["injected"] = "evil"


class TestReadIsolation:
    """Results are the caller's at every depth: mutating one never
    rewrites the stored revision (no rev bump, no feed entry, no WAL
    record would otherwise cover it)."""

    DOCUMENT = {
        "_id": "a",
        "kind": "record",
        "name": label("alice", PATIENT),
        "tags": ["x"],
        "nested": {"inner": [1]},
        "visits": [{"note": label("seen", PATIENT)}],
    }

    def _check_intact(self, database, rev):
        document = database.get("a")
        assert document == {**self.DOCUMENT, "_rev": rev}
        assert labels_of(document["name"]) == LabelSet([PATIENT])
        assert labels_of(document["visits"][0]["note"]) == LabelSet([PATIENT])
        assert labels_of(document["tags"]) == LabelSet()
        raw = database.raw_document("a")
        assert raw.body["tags"] == ["x"] and raw.body["nested"] == {"inner": [1]}

    def test_unlabeled_document_from_the_issue(self, store):
        database, reopen = store
        database.put({"_id": "plain", "tags": ["x"]})
        database.get("plain")["tags"].append("evil")
        assert database.get("plain")["tags"] == ["x"]
        assert reopen().get("plain")["tags"] == ["x"]

    @pytest.mark.parametrize(
        "read",
        [
            lambda db: db.get("a"),
            lambda db: db.get_or_none("a"),
            lambda db: db.all_docs()[0],
            lambda db: db.view("by_kind", include_docs=True)[0].value,
            lambda db: db.view("by_kind", key="record", include_docs=True)[0].value,
        ],
        ids=["get", "get_or_none", "all_docs", "view", "view_key"],
    )
    def test_mutating_a_result_never_reaches_the_store(self, store, read):
        database, reopen = store
        database.define_view("by_kind", _by_kind)
        rev = database.put(dict(self.DOCUMENT))["rev"]
        seq = database.update_seq
        _vandalise(read(database))
        _vandalise(read(database))  # the second read is served from the shared form
        self._check_intact(database, rev)
        assert database.update_seq == seq and len(database.changes()) == 1
        self._check_intact(reopen(), rev)

    def test_repeated_reads_share_no_container(self, store):
        database, _reopen = store
        database.put(dict(self.DOCUMENT))
        first, second = database.get("a"), database.get("a")
        assert first == second
        for path in (
            lambda d: d,
            lambda d: d["tags"],
            lambda d: d["nested"],
            lambda d: d["nested"]["inner"],
            lambda d: d["visits"],
            lambda d: d["visits"][0],
        ):
            assert path(first) is not path(second)

    def test_labeled_view_rows_survive_a_vandalised_document(self, store):
        database, _reopen = store
        database.define_view("notes", lambda doc: [(doc["kind"], doc["visits"])])
        database.put(dict(self.DOCUMENT))
        _vandalise(database.get("a"))
        (row,) = database.view("notes")
        assert row.value == [{"note": "seen"}]
        assert labels_of(row.value) == LabelSet([PATIENT])
        _vandalise(database.get("a"))
        assert database.view("notes")[0].value == [{"note": "seen"}]


class TestIncludeDocsSnapshot:
    """``view(include_docs=True)`` resolves each row from the revision
    that emitted it. A write landing between the match and the resolve —
    interposed here on the matching step itself — used to fail the whole
    query (delete) or pair a key with a document that no longer emits it
    (update)."""

    @staticmethod
    def _interpose(database, write):
        matching_rows = database._matching_rows

        def matching_rows_then_write(*args, **kwargs):
            rows = matching_rows(*args, **kwargs)
            write()
            return rows

        database._matching_rows = matching_rows_then_write

    @pytest.fixture()
    def database(self):
        database = Database("app")
        database.define_view("by_kind", _by_kind)
        database.put({"_id": "r1", "kind": "record", "name": label("alice", PATIENT)})
        database.put({"_id": "r2", "kind": "record", "name": label("bob", PATIENT)})
        return database

    def test_concurrent_delete_cannot_fail_the_query(self, database):
        rev = database.get("r1")["_rev"]
        self._interpose(database, lambda: database.delete("r1", rev))
        rows = database.view("by_kind", key="record", include_docs=True)
        assert [(row.doc_id, row.value["name"]) for row in rows] == [
            ("r1", "alice"), ("r2", "bob"),
        ]
        assert labels_of(rows[0].value["name"]) == LabelSet([PATIENT])

    def test_concurrent_update_cannot_mismatch_key_and_document(self, database):
        self._interpose(database, lambda: database.upsert({"_id": "r1", "kind": "metric"}))
        rows = database.view("by_kind", key="record", include_docs=True)
        assert all(row.value["kind"] == row.key == "record" for row in rows)
        assert [row.doc_id for row in rows] == ["r1", "r2"]


class TestRelabelledIdenticalBody:
    """Security shape of "decode once per revision": a rewrite that
    changes *only* the labels is a new revision, and must never be
    served with the labels materialised for the previous one."""

    BODY = {"_id": "metric", "kind": "metric", "value": "0.93"}

    @staticmethod
    def _labels(document):
        return labels_of(document["value"])

    def _reads(self, database):
        return [
            database.get("metric"),
            database.all_docs()[0],
            database.view("by_kind", include_docs=True)[0].value,
        ]

    def test_upsert_replication_and_reopen(self, tmp_path):
        source = open_durable_database(tmp_path / "src", "app", shards=2)
        replica = ShardedDatabase("dmz", shards=4, read_only=True)
        replicator = Replicator(source, replica)
        for database in (source, replica):
            database.define_view("by_kind", _by_kind)

        source.upsert({**self.BODY, "value": label("0.93", MDT)})
        replicator.replicate()
        for database in (source, replica):  # materialise revision 1 everywhere
            assert [self._labels(doc) for doc in self._reads(database)] == [LabelSet([MDT])] * 3

        source.upsert({**self.BODY, "value": label("0.93", MDT, OTHER_MDT)})
        replicator.replicate()
        stricter = LabelSet([MDT, OTHER_MDT])
        for database in (source, replica):
            assert [self._labels(doc) for doc in self._reads(database)] == [stricter] * 3
            assert database.document_labels("metric") == stricter
            assert database.raw_document("metric").body == {"kind": "metric", "value": "0.93"}

        close_durable(source)
        recovered = open_durable_database(tmp_path / "src", "app", shards=2)
        try:
            recovered.define_view("by_kind", _by_kind)
            assert [self._labels(doc) for doc in self._reads(recovered)] == [stricter] * 3
        finally:
            close_durable(recovered)


def _assert_same_encoding(actual, expected):
    assert type(actual) is type(expected)
    assert str.__eq__(actual, expected)
    assert labels_of(actual) is labels_of(expected)
    assert is_user_tainted(actual) is is_user_tainted(expected) is False


_TEMPLATES = TemplateRegistry()
_TEMPLATES.register(
    "row", '<p id="<%= item["_id"] %>"><%= item.get("name", "") %> <%= item.get("value", "") %></p>'
)


@pytest.fixture(params=["json", "partial"])
def derive(request):
    """A derived form: the labelled JSON text or a template partial's render."""
    return json_codec.dumps if request.param == "json" else _TEMPLATES.get("row").render_item


class TestDerivedForms:
    """``view(include_docs=True)`` rows expose the revision's derived
    forms: ``derive`` of the document the store resolved, computed once
    and owned by the store. ``row.json`` is the ``json_codec.dumps`` one."""

    DOCUMENT = TestReadIsolation.DOCUMENT

    def test_form_is_derive_of_the_document_and_survives_vandalism(self, store, derive):
        database, reopen = store
        database.define_view("by_kind", _by_kind)
        database.put(dict(self.DOCUMENT))
        for reader in (database, reopen()):
            expected = derive(reader.get("a"))
            assert labels_of(expected) == LabelSet([PATIENT])
            for query in ({}, {"key": "record"}):
                (row,) = reader.view("by_kind", include_docs=True, **query)
                _assert_same_encoding(row.form(derive), expected)
                _vandalise(row.value)  # the caller's copy, not the form's source
                _assert_same_encoding(row.form(derive), expected)
                (again,) = reader.view("by_kind", include_docs=True, **query)
                _vandalise(again.value)  # ... in either order
                assert again.form(derive) is row.form(derive)  # derived once per revision
                assert again.value["name"] == "evil" and reader.get("a")["name"] == "alice"

    def test_json_is_the_dumps_form_and_joins_to_dumps_of_the_list(self, store):
        database, _reopen = store
        database.define_view("by_kind", _by_kind)
        database.put(dict(self.DOCUMENT))
        (row,) = database.view("by_kind", include_docs=True)
        assert row.json is row.form(json_codec.dumps)
        _assert_same_encoding(
            json_codec.join_array([row.json]), json_codec.dumps([database.get("a")])
        )

    def test_relabelled_identical_body_is_served_with_the_new_labels(self, store, derive):
        """Confidentiality *and* integrity: a form's labels are the
        §4.1 fold (integrity intersects), not the revision's sidecar
        union, so neither can stand in for the other."""
        database, reopen = store
        database.define_view("by_kind", _by_kind)
        body = {"_id": "m", "kind": "metric"}

        def fragment(reader):
            (row,) = reader.view("by_kind", key="metric", include_docs=True)
            _assert_same_encoding(row.form(derive), derive(row.value))
            return row.form(derive)

        database.upsert({**body, "value": label("0.93", MDT, TRUSTED)})
        first = fragment(database)
        assert labels_of(first) == LabelSet([MDT])  # plain keys / markup endorse nothing
        assert database.raw_document("m").labels == LabelSet([MDT, TRUSTED])

        database.upsert({**body, "value": label("0.93", MDT, OTHER_MDT)})
        for reader in (database, reopen()):
            second = fragment(reader)
            assert labels_of(second) == LabelSet([MDT, OTHER_MDT])

        database = reopen()
        database.upsert({**body, "value": "0.93"})  # ... and declassified again
        assert labels_of(fragment(database)) == LabelSet()

    def test_row_resolves_value_and_forms_from_the_revision_it_matched(self, store, derive):
        """A row outlives the write that supersedes its revision: what it
        resolves afterwards — lazily — is still what the query matched."""
        database, _reopen = store
        database.define_view("by_kind", _by_kind)
        database.put({"_id": "a", "kind": "record", "name": label("alice", PATIENT)})
        database.put({"_id": "b", "kind": "record", "name": label("bob", PATIENT)})
        updated, deleted = database.view("by_kind", key="record", include_docs=True)
        matched = [derive(database.get(doc_id)) for doc_id in ("a", "b")]

        database.upsert({"_id": "a", "kind": "record", "name": label("mallory", MDT)})
        database.delete("b", database.get("b")["_rev"])

        assert (updated.value["name"], deleted.value["name"]) == ("alice", "bob")
        assert labels_of(updated.value["name"]) == LabelSet([PATIENT])
        for row, expected in zip((updated, deleted), matched):
            _assert_same_encoding(row.form(derive), expected)
        (current,) = database.view("by_kind", key="record", include_docs=True)
        assert current.value["name"] == "mallory"
        assert labels_of(current.form(derive)) == LabelSet([MDT])

    def test_row_without_a_document_has_neither_value_copy_nor_form(self, store, derive):
        database, _reopen = store
        database.define_view("by_kind", _by_kind)
        database.put(dict(self.DOCUMENT))
        (row,) = database.view("by_kind")
        assert row.value is None  # the emitted value, not a document
        assert row.form(derive) is None and row.json is None
        with pytest.raises(TypeError):
            json_codec.join_array([row.json])

    def test_forms_do_not_take_part_in_row_equality(self, store, derive):
        database, _reopen = store
        database.define_view("by_kind", _by_kind)
        database.put(dict(self.DOCUMENT))
        (row,) = database.view("by_kind", include_docs=True)
        assert row.form(derive) is not None
        assert row == ViewRow(row.doc_id, row.key, database.get("a"))
        assert row != ViewRow(row.doc_id, row.key, {**database.get("a"), "name": "mallory"})

    def test_threads_racing_the_first_derivation_get_equal_forms(self, derive):
        database = Database("app")
        database.define_view("by_kind", _by_kind)
        for index in range(40):
            database.put({**self.DOCUMENT, "_id": f"doc-{index:02d}"})
        expected = [derive(document) for document in database.all_docs()]
        rows = database.view("by_kind", include_docs=True)  # nothing derived yet
        barrier = threading.Barrier(8)
        results, errors = [], []

        def derive_all():
            try:
                barrier.wait(timeout=10)
                results.append([row.form(derive) for row in rows])
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=derive_all) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(thread.is_alive() for thread in threads)
        assert len(results) == 8
        for fragments in results:
            for fragment, reference in zip(fragments, expected):
                _assert_same_encoding(fragment, reference)
        # One store won per revision: later readers share it.
        settled = [row.form(derive) for row in database.view("by_kind", include_docs=True)]
        assert all(a is b for a, b in zip(settled, [row.form(derive) for row in rows]))


@pytest.fixture(params=["database", "sharded", "reference"])
def labelled_store(request):
    """The production store, its sharded form and the executable spec:
    the spec is in the list because it used to share every bug below."""
    if request.param == "database":
        return Database("app")
    if request.param == "sharded":
        return ShardedDatabase("app", shards=4)
    return ReferenceDatabase("app")


def _row_labels(rows):
    return [(row.doc_id, row.key, labels_of(row.key), row.value, labels_of(row.value)) for row in rows]


class TestViewRowsAreLabelledByTheirOwnView:
    """A plain ``view()`` row carries the labels of the fields *its* view
    emitted it from: no other view is consulted, equal-stripped emissions
    keep their own labels, and a row the view cannot vouch for carries
    the whole document's confidentiality rather than none."""

    def test_another_view_with_the_same_stripped_row_cannot_unlabel_it(self, labelled_store):
        labelled_store.define_view("public", lambda doc: [(doc["kind"], doc["ward"])])
        labelled_store.define_view("secret", lambda doc: [(doc["kind"], doc["diagnosis_code"])])
        labelled_store.put(
            {"_id": "p", "kind": "k", "ward": "7", "diagnosis_code": label("7", PATIENT)}
        )
        assert _row_labels(labelled_store.view("secret")) == [
            ("p", "k", LabelSet(), "7", LabelSet([PATIENT]))
        ]
        assert _row_labels(labelled_store.view("public")) == [
            ("p", "k", LabelSet(), "7", LabelSet())
        ]
        # ... in either definition order.
        labelled_store.define_view("public", lambda doc: [(doc["kind"], doc["ward"])])
        assert labels_of(labelled_store.view("secret", key="k")[0].value) == LabelSet([PATIENT])
        (row,) = labelled_store.view("secret", include_docs=True)
        assert labels_of(row.value["diagnosis_code"]) == LabelSet([PATIENT])

    def test_equal_stripped_emissions_in_one_view_keep_their_own_labels(self, labelled_store):
        labelled_store.define_view(
            "codes", lambda doc: [("code", doc["first"]), ("other", 0), ("code", doc["second"])]
        )
        labelled_store.put(
            {"_id": "p", "first": label("v", PATIENT), "second": label("v", MDT, TRUSTED)}
        )
        assert _row_labels(labelled_store.view("codes", key="code")) == [
            ("p", "code", LabelSet(), "v", LabelSet([PATIENT])),
            ("p", "code", LabelSet(), "v", LabelSet([MDT, TRUSTED])),
        ]
        assert [labels_of(row.value) for row in labelled_store.view("codes")] == [
            LabelSet([PATIENT]), LabelSet(), LabelSet([MDT, TRUSTED]),
        ]

    def test_a_map_reading_the_id_serves_labelled_documents(self, labelled_store):
        labelled_store.define_view("names", lambda doc: [(doc["_id"], doc["name"])])
        labelled_store.put({"_id": "a", "name": label("alice", PATIENT)})
        labelled_store.put({"_id": "b", "name": "bob"})
        assert _row_labels(labelled_store.view("names")) == [
            ("a", "a", LabelSet(), "alice", LabelSet([PATIENT])),
            ("b", "b", LabelSet(), "bob", LabelSet()),
        ]

    def test_a_row_that_cannot_be_paired_carries_the_documents_confidentiality(
        self, labelled_store
    ):
        """A map that answers differently for labelled input: the index
        holds 0, the labelled emission says 1. Also one that fails
        outright (``KeyError``) on labelled input. Neither row may come back bare, and
        neither may claim an integrity nobody checked."""
        labelled_store.define_view(
            "counts", lambda doc: [(doc["kind"], len(labels_of(doc["name"])))]
        )
        labelled_store.define_view(
            "brittle",
            lambda doc: [(doc["kind"], {0: 0}[len(labels_of(doc["name"]))])],
        )
        labelled_store.put(
            {"_id": "p", "kind": "k", "name": label("alice", PATIENT), "mdt": label("3", MDT, TRUSTED)}
        )
        labelled_store.put({"_id": "q", "kind": "k", "name": "bob", "mdt": "3"})
        union = LabelSet([PATIENT, MDT])
        for view in ("counts", "brittle"):
            assert _row_labels(labelled_store.view(view)) == [
                ("p", "k", union, 0, union),
                ("q", "k", LabelSet(), 0, LabelSet()),
            ]

    def test_rows_follow_the_current_revision(self, labelled_store):
        """The labelled emissions live on the revision: a rewrite that
        changes only the labels is served with the new ones."""
        labelled_store.define_view("names", lambda doc: [(doc["_id"], doc["name"])])
        rev = labelled_store.put({"_id": "a", "name": label("alice", PATIENT)})["rev"]
        assert labels_of(labelled_store.view("names")[0].value) == LabelSet([PATIENT])
        rev = labelled_store.put({"_id": "a", "_rev": rev, "name": label("alice", MDT)})["rev"]
        assert labels_of(labelled_store.view("names")[0].value) == LabelSet([MDT])
        labelled_store.put({"_id": "a", "_rev": rev, "name": "alice"})
        assert labels_of(labelled_store.view("names")[0].value) == LabelSet()


class TestBoundedFeed:
    def test_feed_holds_one_entry_per_document_and_reads_like_the_reference(self):
        database, reference = Database("app"), ReferenceDatabase("ref")
        for index in range(20_000):
            document = {"_id": f"doc-{index * 7 % 100}", "n": index}
            database.upsert(document)
            current = reference.get_or_none(document["_id"])
            reference.put({**document, "_rev": current["_rev"]} if current else document)
        assert len(database._changes) <= 100
        assert database.update_seq == reference.update_seq == 20_000
        for since in (0, 1, 19_899, 19_900, 19_901, 19_950, 19_999, 20_000, 20_001):
            assert database.changes(since=since) == reference.changes(since=since)
        # Every distinct answer lies in the last 100 sequences.
        for since in range(19_890, 20_001):
            assert database.changes(since=since) == reference.changes(since=since)
