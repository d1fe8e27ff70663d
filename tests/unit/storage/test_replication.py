"""Unit tests for push replication (requirement S1)."""

import threading

import pytest

from repro.core.labels import LabelSet, conf_label
from repro.exceptions import ReplicationError
from repro.storage import Database, Replicator, replicate
from repro.taint import label, labels_of

PATIENT = conf_label("ecric.org.uk", "patient", "1")


@pytest.fixture()
def source() -> Database:
    return Database("intranet")


@pytest.fixture()
def target() -> Database:
    return Database("dmz", read_only=True)


class TestOneShot:
    def test_copies_documents(self, source, target):
        source.put({"_id": "r1", "n": 1})
        source.put({"_id": "r2", "n": 2})
        result = replicate(source, target)
        assert result.docs_written == 2
        assert target.get("r1")["n"] == 1
        assert target.get("r2")["n"] == 2

    def test_labels_replicate(self, source, target):
        source.put({"_id": "r1", "name": label("alice", PATIENT)})
        replicate(source, target)
        assert labels_of(target.get("r1")["name"]) == LabelSet([PATIENT])

    def test_revs_preserved(self, source, target):
        outcome = source.put({"_id": "r1", "n": 1})
        replicate(source, target)
        assert target.get("r1")["_rev"] == outcome["rev"]

    def test_deletions_replicate(self, source, target):
        outcome = source.put({"_id": "r1", "n": 1})
        replicate(source, target)
        source.delete("r1", outcome["rev"])
        result = replicate(source, target)
        assert result.deletions == 1
        assert "r1" not in target

    def test_self_replication_rejected(self, source):
        with pytest.raises(ReplicationError):
            replicate(source, source)


class TestCheckpointing:
    def test_incremental(self, source, target):
        replicator = Replicator(source, target)
        source.put({"_id": "r1", "n": 1})
        first = replicator.replicate()
        assert first.docs_written == 1
        second = replicator.replicate()
        assert second.docs_written == 0
        source.put({"_id": "r2", "n": 2})
        third = replicator.replicate()
        assert third.docs_written == 1
        assert replicator.checkpoint == source.update_seq

    def test_update_replicates_once(self, source, target):
        replicator = Replicator(source, target)
        outcome = source.put({"_id": "r1", "n": 1})
        replicator.replicate()
        source.put({"_id": "r1", "_rev": outcome["rev"], "n": 2})
        result = replicator.replicate()
        assert result.docs_written == 1
        assert target.get("r1")["n"] == 2

    def test_views_on_target_updated(self, source, target):
        target.define_view("by_mdt", lambda doc: [(doc["mdt"], None)])
        source.put({"_id": "r1", "mdt": "1"})
        replicate(source, target)
        assert len(target.view("by_mdt", key="1")) == 1


class TestPassesBesideWriters:
    def test_passes_beside_a_writer_converge(self, source, target):
        replicator = Replicator(source, target, batch_size=7)
        written = threading.Event()

        def writer():
            for i in range(200):
                source.put({"_id": f"r{i:03d}", "n": i})
            written.set()

        thread = threading.Thread(target=writer)
        thread.start()
        while not written.is_set():
            replicator.replicate()
        thread.join()
        replicator.replicate()
        assert len(target) == 200
        assert replicator.checkpoint == source.update_seq
        assert not replicator.replicate().changed

    def test_concurrent_passes_ship_each_document_once(self, source, target):
        for i in range(50):
            source.put({"_id": f"r{i}", "n": i})
        replicator = Replicator(source, target, batch_size=3)
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(replicator.replicate()))
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(result.docs_written for result in results) == 50
        assert len(target) == 50

    def test_each_pass_starts_where_the_last_ended(self, source, target):
        replicator = Replicator(source, target)
        source.put({"_id": "r1", "n": 1})
        first = replicator.replicate()
        source.put({"_id": "r2", "n": 2})
        source.put({"_id": "r3", "n": 3})
        second = replicator.replicate()
        idle = replicator.replicate()
        assert (first.start_seq, first.end_seq) == (0, 1)
        assert (second.start_seq, second.end_seq) == (1, 3)
        assert (idle.start_seq, idle.end_seq, idle.batches) == (3, 3, 0)
        assert not idle.changed
