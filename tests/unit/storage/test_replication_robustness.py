"""Replication robustness: a failed pass loses nothing and the next pass
heals; checkpoints persisted by the durability subsystem are resumed by a
fresh replicator and clamped to a source that recovery rolled back."""

import pytest

from repro.exceptions import ReplicationError
from repro.storage.docstore import make_database
from repro.storage.recovery import CheckpointStore
from repro.storage.replication import Replicator


class _FlakyTarget:
    """Wraps a real database; the first *failures* batch-puts raise."""

    def __init__(self, database, failures):
        self._database = database
        self._remaining = failures

    def __getattr__(self, name):
        return getattr(self._database, name)

    def replication_put_batch(self, entries):
        if self._remaining > 0:
            self._remaining -= 1
            raise ReplicationError("injected transient failure")
        return self._database.replication_put_batch(entries)


def test_failed_passes_keep_the_checkpoint_and_the_next_pass_heals():
    source = make_database("src")
    target_db = make_database("dst", read_only=True)
    replicator = Replicator(source, _FlakyTarget(target_db, failures=2))
    source.put({"_id": "doc-1", "value": 1})
    for _attempt in range(2):
        with pytest.raises(ReplicationError):
            replicator.replicate()
        assert replicator.checkpoint == 0
        assert target_db.get_or_none("doc-1") is None

    # Writes made while the target was failing ship with the backlog.
    source.put({"_id": "doc-2", "value": 2})
    result = replicator.replicate()
    assert result.docs_written == 2 and result.start_seq == 0
    assert sorted(target_db.all_doc_ids()) == ["doc-1", "doc-2"]
    assert replicator.checkpoint == source.update_seq


def test_failed_pass_persists_no_checkpoint(tmp_path):
    store = CheckpointStore(str(tmp_path / "ckpt.json"))
    source = make_database("src")
    target_db = make_database("dst", read_only=True)
    for index in range(4):
        source.put({"_id": f"doc-{index}", "value": index})
    flaky = Replicator(source, _FlakyTarget(target_db, failures=1), checkpoint_store=store)
    with pytest.raises(ReplicationError):
        flaky.replicate()
    assert store.load() == {}

    # A restarted replicator starts from zero and ships everything.
    result = Replicator(source, target_db, checkpoint_store=store).replicate()
    assert result.docs_written == 4
    assert store.load() == {"": 4}


def test_persisted_checkpoints_are_the_per_shard_checkpoints(tmp_path):
    store = CheckpointStore(str(tmp_path / "ckpt.json"))
    source = make_database("src", shards=2)
    target = make_database("dst", shards=2, read_only=True)
    for index in range(6):
        source.put({"_id": f"doc-{index}", "value": index})
    replicator = Replicator(source, target, checkpoint_store=store)
    replicator.replicate()
    assert store.load() == replicator.shard_checkpoints
    assert set(store.load()) == {shard.name for shard in source.shards}


def test_replicator_resumes_from_persisted_checkpoint(tmp_path):
    store = CheckpointStore(str(tmp_path / "ckpt.json"))
    source = make_database("src", shards=2)
    target = make_database("dst", shards=2, read_only=True)
    for index in range(10):
        source.put({"_id": f"doc-{index}", "value": index})
    Replicator(source, target, batch_size=3, checkpoint_store=store).replicate()

    # A fresh replicator (fresh process) resumes: nothing re-ships.
    resumed = Replicator(source, target, batch_size=3, checkpoint_store=store)
    result = resumed.replicate()
    assert result.docs_written == 0 and result.batches == 0


def test_persisted_checkpoint_clamps_to_a_rolled_back_source(tmp_path):
    """A recovered source may have rolled back un-fsynced sequences; a
    stale high checkpoint must re-ship, not skip, the re-issued seqs."""
    store = CheckpointStore(str(tmp_path / "ckpt.json"))
    source = make_database("src")
    target = make_database("dst", read_only=True)
    for index in range(5):
        source.put({"_id": f"doc-{index}", "value": index})
    Replicator(source, target, checkpoint_store=store).replicate()
    assert store.load() == {"": 5}

    # "Recovery" rolls the source back to sequence 3: the recovered
    # store holds a prefix of the original history.
    rolled_back = make_database("src2")
    for index in range(3):
        rolled_back.put({"_id": f"doc-{index}", "value": index})
    # The replicator is constructed at startup, before new traffic —
    # the clamp captures the recovered watermark (3, not the stale 5).
    replicator = Replicator(rolled_back, target, checkpoint_store=store)
    assert replicator.shard_checkpoints == {"": 3}

    # A post-recovery write re-issues sequence 4; it must ship.
    rolled_back.put({"_id": "fresh-1", "value": "post-recovery"})
    replicator.replicate()
    assert target.get_or_none("fresh-1") is not None
