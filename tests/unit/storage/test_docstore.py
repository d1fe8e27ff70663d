"""Unit tests for the CouchDB-like document store."""

import pytest

from repro.core.labels import LabelSet, conf_label
from repro.exceptions import DocumentConflict, DocumentNotFound, ReadOnlyError, SafeWebError
from repro.storage import Database
from repro.taint import label, labels_of

PATIENT = conf_label("ecric.org.uk", "patient", "1")
MDT = conf_label("ecric.org.uk", "mdt", "1")


@pytest.fixture()
def db() -> Database:
    return Database("app")


class TestCrud:
    def test_put_and_get(self, db):
        outcome = db.put({"_id": "r1", "name": "alice"})
        assert outcome["id"] == "r1"
        assert outcome["rev"].startswith("1-")
        document = db.get("r1")
        assert document["name"] == "alice"
        assert document["_rev"] == outcome["rev"]

    def test_put_requires_id(self, db):
        with pytest.raises(SafeWebError):
            db.put({"name": "alice"})

    def test_update_requires_current_rev(self, db):
        outcome = db.put({"_id": "r1", "n": 1})
        with pytest.raises(DocumentConflict):
            db.put({"_id": "r1", "n": 2})  # no _rev
        db.put({"_id": "r1", "_rev": outcome["rev"], "n": 2})
        assert db.get("r1")["n"] == 2
        assert db.get("r1")["_rev"].startswith("2-")

    def test_stale_rev_conflicts(self, db):
        first = db.put({"_id": "r1", "n": 1})
        db.put({"_id": "r1", "_rev": first["rev"], "n": 2})
        with pytest.raises(DocumentConflict) as info:
            db.put({"_id": "r1", "_rev": first["rev"], "n": 3})
        assert info.value.doc_id == "r1"
        assert info.value.current_rev.startswith("2-")

    def test_rev_on_new_document_rejected(self, db):
        with pytest.raises(DocumentConflict):
            db.put({"_id": "new", "_rev": "1-abc", "n": 1})

    def test_get_missing(self, db):
        with pytest.raises(DocumentNotFound):
            db.get("nope")
        assert db.get_or_none("nope") is None

    def test_delete(self, db):
        outcome = db.put({"_id": "r1", "n": 1})
        db.delete("r1", outcome["rev"])
        assert "r1" not in db
        with pytest.raises(DocumentNotFound):
            db.get("r1")

    def test_delete_wrong_rev(self, db):
        db.put({"_id": "r1", "n": 1})
        with pytest.raises(DocumentConflict):
            db.delete("r1", "1-bogus")

    def test_recreate_after_delete(self, db):
        outcome = db.put({"_id": "r1", "n": 1})
        db.delete("r1", outcome["rev"])
        db.put({"_id": "r1", "n": 2})
        assert db.get("r1")["n"] == 2

    def test_len_and_ids_insertion_order(self, db):
        db.put({"_id": "b", "n": 1})
        db.put({"_id": "a", "n": 2})
        assert len(db) == 2
        # Stable insertion (sequence) order, not lexicographic.
        assert db.all_doc_ids() == ["b", "a"]
        assert [d["_id"] for d in db.all_docs()] == ["b", "a"]

    def test_ids_order_stable_across_updates_and_recreation(self, db):
        first = db.put({"_id": "b", "n": 1})
        db.put({"_id": "a", "n": 2})
        db.put({"_id": "b", "_rev": first["rev"], "n": 3})
        # Updates keep the document's slot…
        assert db.all_doc_ids() == ["b", "a"]
        updated = db.get("b")["_rev"]
        db.delete("b", updated)
        db.put({"_id": "b", "n": 4})
        # …but recreating a deleted id appends it.
        assert db.all_doc_ids() == ["a", "b"]

    def test_non_json_value_rejected(self, db):
        with pytest.raises(TypeError):
            db.put({"_id": "r1", "bad": object()})


class TestLabelPersistence:
    def test_labels_survive_round_trip(self, db):
        db.put({"_id": "r1", "name": label("alice", PATIENT), "mdt": label("1", MDT)})
        document = db.get("r1")
        assert labels_of(document["name"]) == LabelSet([PATIENT])
        assert labels_of(document["mdt"]) == LabelSet([MDT])

    def test_nested_labels_survive(self, db):
        db.put({"_id": "r1", "metrics": {"complete": label(37, MDT)}})
        assert labels_of(db.get("r1")["metrics"]["complete"]) == LabelSet([MDT])

    def test_unlabelled_fields_stay_plain(self, db):
        db.put({"_id": "r1", "public": "yes", "secret": label("x", PATIENT)})
        document = db.get("r1")
        assert labels_of(document["public"]) == LabelSet()

    def test_document_labels_helper(self, db):
        db.put({"_id": "r1", "a": label("x", PATIENT), "b": label("y", MDT)})
        assert db.document_labels("r1") == LabelSet([PATIENT, MDT])

    def test_labeled_id_is_stripped_for_storage(self, db):
        db.put({"_id": label("r1", PATIENT), "n": 1})
        assert db.get("r1")["_id"] == "r1"


def _fails_after_emitting(doc):
    yield "ok", 1
    raise RuntimeError("half-way through the emissions")


class TestViews:
    def test_define_and_query(self, db):
        db.define_view("by_mdt", lambda doc: [(doc["mdt"], None)] if "mdt" in doc else [])
        db.put({"_id": "r1", "mdt": "1"})
        db.put({"_id": "r2", "mdt": "2"})
        db.put({"_id": "r3", "mdt": "1"})
        rows = db.view("by_mdt", key="1")
        assert sorted(row.doc_id for row in rows) == ["r1", "r3"]

    def test_view_defined_after_documents(self, db):
        db.put({"_id": "r1", "mdt": "1"})
        db.define_view("by_mdt", lambda doc: [(doc["mdt"], None)])
        assert len(db.view("by_mdt")) == 1

    def test_view_updates_on_change(self, db):
        db.define_view("by_mdt", lambda doc: [(doc["mdt"], None)])
        outcome = db.put({"_id": "r1", "mdt": "1"})
        db.put({"_id": "r1", "_rev": outcome["rev"], "mdt": "2"})
        assert db.view("by_mdt", key="1") == []
        assert len(db.view("by_mdt", key="2")) == 1

    def test_view_removes_deleted(self, db):
        db.define_view("by_mdt", lambda doc: [(doc["mdt"], None)])
        outcome = db.put({"_id": "r1", "mdt": "1"})
        db.delete("r1", outcome["rev"])
        assert db.view("by_mdt") == []

    def test_include_docs_relabels(self, db):
        db.define_view("by_mdt", lambda doc: [(doc["mdt"], None)])
        db.put({"_id": "r1", "mdt": "1", "name": label("alice", PATIENT)})
        rows = db.view("by_mdt", key="1", include_docs=True)
        assert labels_of(rows[0].value["name"]) == LabelSet([PATIENT])

    def test_failing_map_emits_nothing(self, db):
        db.define_view("fragile", lambda doc: [(doc["required"], None)])
        db.put({"_id": "r1", "other": 1})
        assert db.view("fragile") == []

    @pytest.mark.parametrize(
        "broken_map",
        [lambda doc: [(1 / 0, None)], lambda doc: [(1, 2, 3)], _fails_after_emitting],
        ids=["zero-division", "wide-emission", "fails-after-emitting"],
    )
    def test_a_map_that_raises_anything_never_half_commits_a_write(self, tmp_path, broken_map):
        """Whatever a map raises it "emits nothing"; the write that
        triggered the indexing is whole: acknowledged, indexed by every
        other view (defined before or after), announced, and durable."""
        from repro.storage.recovery import close_durable, flush_durable, open_durable_database

        live = open_durable_database(str(tmp_path / "db"), "app")
        live.define_view("broken", broken_map)
        live.define_view("by_n", lambda doc: [(doc["n"], None)])
        seen = []
        live.add_change_listener(seen.extend)

        first = live.put({"_id": "r1", "n": 1, "name": label("alice", PATIENT)})
        second = live.upsert({"_id": "r1", "n": 2, "name": label("alice", PATIENT)})
        live.replication_put("r2", "1-abc", {"n": 2}, {})
        live.define_view("later", lambda doc: [(doc["_id"], doc["n"])])
        live.define_view("broken_later", broken_map)

        assert first["rev"].startswith("1-") and second["rev"].startswith("2-")
        assert [(c.doc_id, c.rev) for c in seen] == [
            ("r1", first["rev"]), ("r1", second["rev"]), ("r2", "1-abc"),
        ]
        assert live.view("broken") == [] and live.view("broken_later") == []
        assert [row.doc_id for row in live.view("by_n", key=2)] == ["r1", "r2"]
        assert [(row.key, row.value) for row in live.view("later")] == [("r1", 2), ("r2", 2)]
        # The map runs again over the labelled document to label plain rows;
        # failing there, the row keeps the document's confidentiality.
        live.define_view("shy", lambda doc: [(doc["n"], 1 // (not labels_of(doc.get("name"))))])
        assert [(row.key, labels_of(row.value)) for row in live.view("shy")] == [
            (2, LabelSet([PATIENT])), (2, LabelSet()),
        ]

        flush_durable(live)
        close_durable(live)
        reopened = open_durable_database(str(tmp_path / "db"), "app")
        assert reopened.all_docs() == live.all_docs()
        assert reopened.changes() == live.changes()
        reopened.define_view("broken", broken_map)
        reopened.define_view("by_n", lambda doc: [(doc["n"], None)])
        assert reopened.view("broken") == [] and reopened.view("by_n") == live.view("by_n")
        close_durable(reopened)

    def test_unknown_view(self, db):
        with pytest.raises(DocumentNotFound):
            db.view("nope")

    def test_multi_emission(self, db):
        db.define_view("tags", lambda doc: [(tag, doc["_id"]) for tag in doc.get("tags", [])])
        db.put({"_id": "r1", "tags": ["a", "b"]})
        assert len(db.view("tags")) == 2


class TestChangesFeed:
    def test_sequence_grows(self, db):
        assert db.update_seq == 0
        db.put({"_id": "r1", "n": 1})
        db.put({"_id": "r2", "n": 2})
        assert db.update_seq == 2

    def test_changes_since(self, db):
        db.put({"_id": "r1", "n": 1})
        seq = db.update_seq
        db.put({"_id": "r2", "n": 2})
        changes = db.changes(since=seq)
        assert [c.doc_id for c in changes] == ["r2"]

    def test_changes_deduplicated_to_latest(self, db):
        outcome = db.put({"_id": "r1", "n": 1})
        db.put({"_id": "r1", "_rev": outcome["rev"], "n": 2})
        changes = db.changes()
        assert len(changes) == 1
        assert changes[0].rev.startswith("2-")

    def test_deletions_appear(self, db):
        outcome = db.put({"_id": "r1", "n": 1})
        db.delete("r1", outcome["rev"])
        changes = db.changes()
        assert changes[-1].deleted


class TestReadOnly:
    def test_writes_rejected(self):
        replica = Database("dmz", read_only=True)
        with pytest.raises(ReadOnlyError):
            replica.put({"_id": "r1"})
        with pytest.raises(ReadOnlyError):
            replica.delete("r1", "1-x")

    def test_replication_put_still_allowed(self):
        replica = Database("dmz", read_only=True)
        replica.replication_put("r1", "1-abc", {"n": 1}, {})
        assert replica.get("r1")["n"] == 1


class TestChangeListenerContract:
    def test_upsert_notifies_after_lock_released(self, db):
        """Listeners run with the store lock free (they may hand off to
        other threads that read the database)."""
        import threading

        probe_results = []

        def listener(changes):
            def probe():
                acquired = db._lock.acquire(timeout=1)
                probe_results.append(acquired)
                if acquired:
                    db._lock.release()

            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()

        db.add_change_listener(listener)
        db.upsert({"_id": "r1", "n": 1})
        db.upsert({"_id": "r1", "n": 2})
        assert probe_results == [True, True]
