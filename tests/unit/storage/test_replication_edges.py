"""Replication edge cases: conflicts, read-only targets, partial batches,
checkpoint resume and tombstone propagation through views."""

import pytest

from repro.core.labels import LabelSet, conf_label
from repro.exceptions import ReadOnlyError, ReplicationError
from repro.storage import Database, Replicator, ShardedDatabase, replicate
from repro.taint import label, labels_of

PATIENT = conf_label("ecric.org.uk", "patient", "1")


class TestConflictingRevs:
    def test_source_revision_wins_over_diverged_target(self):
        source = Database("intranet")
        target = Database("dmz")
        source.put({"_id": "r1", "n": 1})
        replicate(source, target)
        # The target diverges on its own (it is not read-only here), so
        # the replicated and local histories now conflict.
        target.put({"_id": "r1", "_rev": target.get("r1")["_rev"], "n": 99})
        outcome = source.put({"_id": "r1", "_rev": source.get("r1")["_rev"], "n": 2})
        result = replicate(source, target)
        # Push replication ships revisions verbatim: the source's wins.
        assert result.docs_written >= 1
        assert target.get("r1")["_rev"] == outcome["rev"]
        assert target.get("r1")["n"] == 2

    def test_replicated_tombstone_beats_target_update(self):
        source = Database("intranet")
        target = Database("dmz")
        outcome = source.put({"_id": "r1", "n": 1})
        replicate(source, target)
        target.put({"_id": "r1", "_rev": target.get("r1")["_rev"], "n": 99})
        source.delete("r1", outcome["rev"])
        replicate(source, target)
        assert "r1" not in target

    def test_self_replication_rejected(self):
        db = Database("only")
        with pytest.raises(ReplicationError):
            replicate(db, db)


class TestReadOnlyTargetMidBatch:
    def test_client_writes_rejected_while_batches_apply(self):
        source = Database("intranet")
        target = Database("dmz", read_only=True)
        attempts = []

        # A client tries to write into the replica after every replicated
        # batch lands; the S1 guard must hold mid-replication too.
        def hostile_writer(changes):
            try:
                target.put({"_id": "attacker", "owned": True})
            except ReadOnlyError as error:
                attempts.append(error)

        target.add_change_listener(hostile_writer)
        for i in range(7):
            source.put({"_id": f"r{i}", "n": i})
        result = Replicator(source, target, batch_size=2).replicate()
        assert result.docs_written == 7
        assert result.batches == 4
        assert len(attempts) == 4  # one rejected write per applied batch
        assert "attacker" not in target
        assert len(target) == 7


class TestCheckpointResume:
    def test_partial_batch_failure_resumes_without_loss(self):
        source = Database("intranet")
        target = Database("dmz", read_only=True)
        for i in range(10):
            source.put({"_id": f"r{i}", "n": i})

        replicator = Replicator(source, target, batch_size=3)
        original = target.replication_put_batch
        calls = {"n": 0}

        def failing_batch(entries):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("target crashed mid-pass")
            return original(entries)

        target.replication_put_batch = failing_batch
        with pytest.raises(RuntimeError):
            replicator.replicate()
        # Only the first batch completed; the checkpoint did not advance
        # past it, so nothing from the failed batch is marked shipped.
        assert replicator.checkpoint == 3
        assert len(target) == 3

        target.replication_put_batch = original
        result = replicator.replicate()
        assert result.docs_written == 7
        assert len(target) == 10
        assert replicator.checkpoint == source.update_seq
        # And a further pass is a no-op.
        assert not replicator.replicate().changed

    def test_checkpoint_only_advances_on_batch_boundaries(self):
        source = Database("intranet")
        target = Database("dmz", read_only=True)
        for i in range(5):
            source.put({"_id": f"r{i}", "n": i})
        replicator = Replicator(source, target, batch_size=2)
        result = replicator.replicate()
        assert result.batches == 3
        assert result.start_seq == 0
        assert result.end_seq == source.update_seq

    def test_per_shard_checkpoints(self):
        source = ShardedDatabase("intranet", shards=4)
        target = ShardedDatabase("dmz", shards=4, read_only=True)
        for i in range(32):
            source.put({"_id": f"r{i}", "n": i})
        replicator = Replicator(source, target, batch_size=4)
        result = replicator.replicate()
        assert result.docs_written == 32
        checkpoints = replicator.shard_checkpoints
        assert set(checkpoints) == {shard.name for shard in source.shards}
        assert max(checkpoints.values()) == source.update_seq
        assert not replicator.replicate().changed
        # Incremental: one more write moves only its shard's checkpoint.
        source.put({"_id": "r32", "n": 32})
        incremental = replicator.replicate()
        assert incremental.docs_written == 1
        assert incremental.batches == 1

    def test_mixed_shapes_fall_back_to_merged_feed(self):
        sharded = ShardedDatabase("intranet", shards=3)
        flat = Database("dmz", read_only=True)
        for i in range(9):
            sharded.put({"_id": f"r{i}", "n": i})
        replicator = Replicator(sharded, flat, batch_size=4)
        assert replicator.replicate().docs_written == 9
        assert len(flat) == 9
        assert replicator.shard_checkpoints == {"": sharded.update_seq}

        # …and the reverse direction routes through the target's hashing.
        back = ShardedDatabase("restore", shards=5)
        replicate(flat, back)
        assert back.all_doc_ids() == flat.all_doc_ids()


class TestTombstonesThroughViews:
    def _views(self, database):
        database.define_view("by_mdt", lambda doc: [(doc["mdt"], None)])

    @pytest.mark.parametrize("shards", [1, 4])
    def test_delete_removes_target_view_rows(self, shards):
        source = ShardedDatabase("intranet", shards=shards)
        target = ShardedDatabase("dmz", shards=shards, read_only=True)
        self._views(source)
        self._views(target)
        outcome = source.put({"_id": "r1", "mdt": "1", "name": label("alice", PATIENT)})
        replicator = Replicator(source, target)
        replicator.replicate()
        rows = target.view("by_mdt", key="1", include_docs=True)
        assert labels_of(rows[0].value["name"]) == LabelSet([PATIENT])

        source.delete("r1", outcome["rev"])
        result = replicator.replicate()
        assert result.deletions == 1
        assert target.view("by_mdt", key="1") == []
        assert "r1" not in target
        assert target.changes()[-1].deleted

    def test_tombstone_recreate_cycle(self):
        source = Database("intranet")
        target = Database("dmz", read_only=True)
        self._views(source)
        self._views(target)
        replicator = Replicator(source, target)
        outcome = source.put({"_id": "r1", "mdt": "1"})
        replicator.replicate()
        source.delete("r1", outcome["rev"])
        source.put({"_id": "r1", "mdt": "2"})
        replicator.replicate()
        # Dedup to the latest change per doc: the recreate wins.
        assert target.view("by_mdt", key="1") == []
        assert len(target.view("by_mdt", key="2")) == 1

