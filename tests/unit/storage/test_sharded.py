"""Unit tests for :class:`ShardedDatabase` and the new view machinery."""

import threading

import pytest

from repro.core.labels import LabelSet, conf_label
from repro.exceptions import (
    DocumentConflict,
    DocumentNotFound,
    ReadOnlyError,
    SafeWebError,
)
from repro.storage import Database, ShardedDatabase
from repro.storage.docstore import make_database
from repro.taint import label, labels_of

PATIENT = conf_label("ecric.org.uk", "patient", "1")
MDT = conf_label("ecric.org.uk", "mdt", "1")


@pytest.fixture()
def db() -> ShardedDatabase:
    return ShardedDatabase("app", shards=4)


class TestRouting:
    def test_routing_is_deterministic(self, db):
        for doc_id in (f"r{i}" for i in range(50)):
            assert db.shard_for(doc_id) is db.shard_for(doc_id)

    def test_documents_spread_over_shards(self, db):
        for i in range(64):
            db.put({"_id": f"r{i}", "n": i})
        populated = [shard for shard in db.shards if len(shard) > 0]
        assert len(populated) > 1
        assert sum(len(shard) for shard in db.shards) == 64

    def test_single_shard_allowed(self):
        db = ShardedDatabase("one", shards=1)
        db.put({"_id": "r1", "n": 1})
        assert db.get("r1")["n"] == 1

    def test_zero_shards_rejected(self):
        with pytest.raises(SafeWebError):
            ShardedDatabase("none", shards=0)


class TestCrud:
    def test_put_get_roundtrip(self, db):
        outcome = db.put({"_id": "r1", "name": "alice"})
        assert outcome["rev"].startswith("1-")
        assert db.get("r1")["name"] == "alice"
        assert "r1" in db
        assert len(db) == 1

    def test_mvcc_enforced_per_shard(self, db):
        outcome = db.put({"_id": "r1", "n": 1})
        with pytest.raises(DocumentConflict):
            db.put({"_id": "r1", "n": 2})
        db.put({"_id": "r1", "_rev": outcome["rev"], "n": 2})
        assert db.get("r1")["n"] == 2

    def test_delete(self, db):
        outcome = db.put({"_id": "r1", "n": 1})
        db.delete("r1", outcome["rev"])
        assert "r1" not in db
        with pytest.raises(DocumentNotFound):
            db.get("r1")

    def test_labels_survive_round_trip(self, db):
        db.put({"_id": "r1", "name": label("alice", PATIENT)})
        assert labels_of(db.get("r1")["name"]) == LabelSet([PATIENT])

    def test_upsert_needs_no_rev(self, db):
        db.upsert({"_id": "r1", "n": 1})
        db.upsert({"_id": "r1", "n": 2})
        assert db.get("r1")["n"] == 2
        assert db.get("r1")["_rev"].startswith("2-")

    def test_upsert_after_delete_recreates(self, db):
        outcome = db.upsert({"_id": "r1", "n": 1})
        db.delete("r1", outcome["rev"])
        db.upsert({"_id": "r1", "n": 3})
        assert db.get("r1")["n"] == 3

    def test_document_labels(self, db):
        db.put({"_id": "r1", "a": label("x", PATIENT)})
        assert db.document_labels("r1") == LabelSet([PATIENT])


class TestOrderingAndChanges:
    def test_all_doc_ids_in_global_insertion_order(self, db):
        ids = [f"r{i}" for i in range(20)]
        for doc_id in ids:
            db.put({"_id": doc_id, "n": 1})
        assert db.all_doc_ids() == ids
        assert [d["_id"] for d in db.all_docs()] == ids

    def test_update_keeps_slot_recreate_appends(self, db):
        first = db.put({"_id": "a", "n": 1})
        db.put({"_id": "b", "n": 2})
        db.put({"_id": "a", "_rev": first["rev"], "n": 3})
        assert db.all_doc_ids() == ["a", "b"]
        db.delete("a", db.get("a")["_rev"])
        db.put({"_id": "a", "n": 4})
        assert db.all_doc_ids() == ["b", "a"]

    def test_update_seq_counts_every_write(self, db):
        for i in range(7):
            db.put({"_id": f"r{i}", "n": i})
        assert db.update_seq == 7
        db.delete("r0", db.get("r0")["_rev"])
        assert db.update_seq == 8

    def test_merged_changes_strictly_increasing_and_deduplicated(self, db):
        outcome = db.put({"_id": "r1", "n": 1})
        for i in range(2, 9):
            db.put({"_id": f"r{i}", "n": i})
        db.put({"_id": "r1", "_rev": outcome["rev"], "n": 99})
        changes = db.changes()
        seqs = [change.seq for change in changes]
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))
        assert len(changes) == 8  # r1 deduplicated to its latest write
        assert changes[-1].doc_id == "r1"

    def test_changes_since(self, db):
        db.put({"_id": "r1", "n": 1})
        seq = db.update_seq
        db.put({"_id": "r2", "n": 2})
        assert [c.doc_id for c in db.changes(since=seq)] == ["r2"]

    def test_change_listeners_fire_once_per_write(self, db):
        batches = []
        db.add_change_listener(batches.append)
        db.put({"_id": "r1", "n": 1})
        db.delete("r1", db.changes()[-1].rev)
        assert len(batches) == 2


class TestViews:
    def test_key_query_matches_unsharded(self, db):
        plain = Database("flat")
        for target in (db, plain):
            target.define_view("by_mdt", lambda doc: [(doc["mdt"], None)])
        for i in range(24):
            doc = {"_id": f"r{i}", "mdt": str(i % 3)}
            db.put(dict(doc))
            plain.put(dict(doc))
        assert db.view("by_mdt", key="1") == plain.view("by_mdt", key="1")
        assert db.view("by_mdt") == plain.view("by_mdt")

    def test_rows_sorted_by_doc_id(self, db):
        db.define_view("all", lambda doc: [(doc.get("k"), None)])
        for doc_id in ("z9", "a1", "m5", "b2"):
            db.put({"_id": doc_id, "k": "x"})
        assert [row.doc_id for row in db.view("all")] == ["a1", "b2", "m5", "z9"]

    def test_include_docs_relabels(self, db):
        db.define_view("by_mdt", lambda doc: [(doc["mdt"], None)])
        db.put({"_id": "r1", "mdt": "1", "name": label("alice", PATIENT)})
        rows = db.view("by_mdt", key="1", include_docs=True)
        assert labels_of(rows[0].value["name"]) == LabelSet([PATIENT])

    def test_labeled_rows_keep_labels(self, db):
        db.define_view("names", lambda doc: [(doc["name"], None)])
        db.put({"_id": "r1", "name": label("alice", PATIENT)})
        rows = db.view("names")
        assert rows[0].key == "alice"
        assert labels_of(rows[0].key) == LabelSet([PATIENT])

    def test_view_updates_and_tombstones(self, db):
        db.define_view("by_mdt", lambda doc: [(doc["mdt"], None)])
        outcome = db.put({"_id": "r1", "mdt": "1"})
        db.put({"_id": "r1", "_rev": outcome["rev"], "mdt": "2"})
        assert db.view("by_mdt", key="1") == []
        assert len(db.view("by_mdt", key="2")) == 1
        db.delete("r1", db.get("r1")["_rev"])
        assert db.view("by_mdt") == []

    def test_unhashable_keys_still_match(self, db):
        db.define_view("tags", lambda doc: [(doc["tags"], None)])
        db.put({"_id": "r1", "tags": ["a", "b"]})
        assert len(db.view("tags", key=["a", "b"])) == 1
        assert db.view("tags", key=["z"]) == []

    def test_unknown_view(self, db):
        with pytest.raises(DocumentNotFound):
            db.view("nope")

    def test_keyed_rows_gathered_from_every_shard(self, db):
        db.define_view("by_mdt", lambda doc: [(doc["mdt"], 1)])
        for i in range(30):
            db.put({"_id": f"r{i}", "mdt": str(i % 3)})
        rows = db.view("by_mdt", key="1")
        assert len(rows) == 10 and len(db.view("by_mdt")) == 30
        assert len({db.shard_for(row.doc_id).name for row in rows}) > 1

    def test_every_key_and_clearance_matches_unsharded(self, db):
        plain = Database("flat")
        for target in (db, plain):
            target.define_view("by_mdt", lambda doc: [(doc["mdt"], 1)])
        for i in range(17):
            note = label("secret", PATIENT) if i % 5 == 0 else "open"
            doc = {"_id": f"r{i}", "mdt": str(i % 4), "note": note}
            db.put(dict(doc))
            plain.put(dict(doc))
        for key in (None, "0", "1", "2", "3", "missing"):
            for clearance in (None, LabelSet(), LabelSet([PATIENT])):
                assert db.view("by_mdt", key=key, clearance=clearance) == plain.view(
                    "by_mdt", key=key, clearance=clearance
                )

    def test_view_on_empty_store(self, db):
        db.define_view("by_mdt", lambda doc: [(doc["mdt"], 1)])
        assert db.view("by_mdt") == []
        assert db.view("by_mdt", key="1", include_docs=True) == []

    def test_view_defined_after_writes_indexes_every_shard(self, db):
        for i in range(12):
            db.put({"_id": f"r{i}", "mdt": str(i % 2)})
        db.define_view("by_mdt", lambda doc: [(doc["mdt"], None)])
        assert [row.doc_id for row in db.view("by_mdt", key="0")] == sorted(
            f"r{i}" for i in range(0, 12, 2)
        )

    def test_views_are_map_only(self, db):
        db.define_view("by_mdt", lambda doc: [(doc["mdt"], 1)])
        with pytest.raises(TypeError):
            db.view("by_mdt", reduce=True)


class TestClearanceFiltering:
    def test_rows_filtered_by_reader_clearance(self, db):
        db.define_view("by_type", lambda doc: [(doc["type"], None)])
        db.put({"_id": "pub", "type": "t", "note": "open"})
        db.put({"_id": "pat", "type": "t", "note": label("secret", PATIENT)})
        db.put({"_id": "mdt", "type": "t", "note": label("team", MDT)})

        everyone = db.view("by_type", key="t", clearance=LabelSet())
        assert [row.doc_id for row in everyone] == ["pub"]
        patient_reader = db.view("by_type", key="t", clearance=LabelSet([PATIENT]))
        assert [row.doc_id for row in patient_reader] == ["pat", "pub"]
        full = db.view("by_type", key="t", clearance=LabelSet([PATIENT, MDT]))
        assert [row.doc_id for row in full] == ["mdt", "pat", "pub"]

    def test_clearance_composes_with_include_docs(self, db):
        db.define_view("by_type", lambda doc: [(doc["type"], None)])
        db.put({"_id": "pub", "type": "t", "note": "open"})
        db.put({"_id": "pat", "type": "t", "note": label("secret", PATIENT)})
        rows = db.view("by_type", key="t", include_docs=True, clearance=LabelSet())
        assert [row.doc_id for row in rows] == ["pub"]
        assert rows[0].value["note"] == "open"

    def test_no_clearance_returns_everything(self, db):
        db.define_view("by_type", lambda doc: [(doc["type"], None)])
        db.put({"_id": "pat", "type": "t", "note": label("secret", PATIENT)})
        assert len(db.view("by_type", key="t")) == 1


class TestReadOnly:
    def test_writes_rejected_on_every_shard(self):
        replica = ShardedDatabase("dmz", shards=3, read_only=True)
        with pytest.raises(ReadOnlyError):
            replica.put({"_id": "r1"})
        with pytest.raises(ReadOnlyError):
            replica.upsert({"_id": "r1"})
        with pytest.raises(ReadOnlyError):
            replica.delete("r1", "1-x")

    def test_replication_put_still_allowed(self):
        replica = ShardedDatabase("dmz", shards=3, read_only=True)
        replica.replication_put("r1", "1-abc", {"n": 1}, {})
        assert replica.get("r1")["n"] == 1

    def test_replication_put_batch(self):
        replica = ShardedDatabase("dmz", shards=3, read_only=True)
        applied = replica.replication_put_batch(
            [(f"r{i}", "1-abc", {"n": i}, {}, False) for i in range(9)]
        )
        assert applied == 9
        assert len(replica) == 9


class TestConcurrency:
    def test_parallel_writers_on_distinct_docs(self, db):
        errors = []

        def writer(start):
            try:
                for i in range(start, start + 50):
                    db.put({"_id": f"w{i}", "n": i})
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(base,)) for base in (0, 50, 100, 150)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(db) == 200
        seqs = [change.seq for change in db.changes()]
        assert len(seqs) == 200
        assert len(set(seqs)) == 200


class TestMakeDatabaseSharding:
    def test_create_sharded(self):
        assert isinstance(make_database("app", shards=4), ShardedDatabase)

    def test_default_is_plain(self):
        assert isinstance(make_database("app"), Database)
