"""CouchDB-style push replication, batched and checkpointed per shard
(paper §5.1, Figure 4).

The MDT deployment runs two application database instances: one in the
Intranet written by the storage unit, and a **read-only** replica in the
DMZ read by the web frontend. The Intranet instance is push-replicated
to the DMZ — the only data flow crossing the firewall, and it flows
strictly outward (requirement S1).

Replication drains the source's changes feed in configurable batches
(:attr:`Replicator.batch_size`): each batch reads its stored documents
under one source lock (:meth:`~repro.storage.docstore.Database.raw_documents`)
and applies them under one target lock
(:meth:`~repro.storage.docstore.Database.replication_put_batch`). What
crosses the wire is the stored form — the plain body plus the label
sidecar collected by the single-pass
:func:`repro.taint.json_codec.encode_document` at original write time —
so confidentiality labels survive into the replica with no
re-serialisation on the replication path.

Checkpoints advance only after a batch fully applies, so a failure
mid-pass resumes from the last complete batch. When source and target
are :class:`~repro.storage.docstore.ShardedDatabase` instances with the
same shard count, each shard pair replicates through its own
checkpoint (documents hash to the same shard index on both sides).

A pass runs when its caller asks: the deployment replicates once per
pipeline pass through
:class:`~repro.mdt.deployment.FirewalledReplicator`, which re-validates
the firewall direction before every pass.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.exceptions import ReplicationError
from repro.storage.docstore import Change, Database, DocumentDatabase

#: Default number of changes shipped per lock-acquisition batch.
DEFAULT_BATCH_SIZE = 100


@dataclass
class ReplicationResult:
    """Summary of one replication pass."""

    docs_written: int = 0
    deletions: int = 0
    start_seq: int = 0
    end_seq: int = 0
    batches: int = 0

    @property
    def changed(self) -> bool:
        return self.docs_written + self.deletions > 0


def _shard_pairs(
    source: DocumentDatabase, target: DocumentDatabase
) -> List[Tuple[str, DocumentDatabase, DocumentDatabase]]:
    """(checkpoint key, feed source, put target) triples for a pair.

    Same-shape sharded stores replicate shard-to-shard (one checkpoint
    each); anything else falls back to the merged feed with a single
    checkpoint, routed through the target's own ``replication_put_batch``.
    """
    source_shards = getattr(source, "shards", None)
    target_shards = getattr(target, "shards", None)
    if source_shards and target_shards and len(source_shards) == len(target_shards):
        return [
            (source_shard.name, source_shard, target_shard)
            for source_shard, target_shard in zip(source_shards, target_shards)
        ]
    return [("", source, target)]


class Replicator:
    """Push replication from *source* to *target* with checkpointing.

    The target may be (and for the DMZ, is) a read-only database: the
    replicator writes through
    :meth:`~repro.storage.docstore.Database.replication_put_batch`, the
    single sanctioned ingress, preserving "read-only to everyone else".
    """

    def __init__(
        self,
        source: DocumentDatabase,
        target: DocumentDatabase,
        batch_size: int = DEFAULT_BATCH_SIZE,
        checkpoint_store=None,
    ):
        if batch_size < 1:
            raise ReplicationError("batch_size must be at least 1")
        self.source = source
        self.target = target
        self.batch_size = batch_size
        self._lock = threading.Lock()
        #: checkpoint key (shard name, or "" for unsharded) -> last
        #: fully-applied sequence. Only complete batches advance these.
        self._checkpoints: Dict[str, int] = {}
        #: Optional :class:`repro.storage.recovery.CheckpointStore`:
        #: checkpoints are re-persisted after every completed batch, so
        #: a restarted replicator resumes per completed batch. Each
        #: loaded checkpoint is clamped to its feed's *current* sequence:
        #: a recovered source may have rolled back un-fsynced tail
        #: sequences, and a persisted checkpoint past the recovered
        #: watermark would silently skip the re-issued sequences.
        #: Clamping re-ships instead — replicated revisions apply
        #: verbatim, so re-shipping converges while skipping loses
        #: documents. (Construct the replicator before new traffic, as
        #: the deployment does, so the clamp sees the recovered seq.)
        self._checkpoint_store = checkpoint_store
        if checkpoint_store is not None:
            loaded = dict(checkpoint_store.load())
            for key, feed, _sink in _shard_pairs(source, target):
                if key in loaded:
                    loaded[key] = min(loaded[key], feed.update_seq)
            self._checkpoints = loaded

    def replicate(self) -> ReplicationResult:
        """One push pass; returns what moved (and in how many batches)."""
        if self.source is self.target:
            raise ReplicationError("source and target are the same database")
        with self._lock:
            result = ReplicationResult(start_seq=self._global_checkpoint())
            for key, feed, sink in _shard_pairs(self.source, self.target):
                self._drain_feed(key, feed, sink, result)
            result.end_seq = self._global_checkpoint()
            return result

    def _drain_feed(
        self,
        key: str,
        feed: DocumentDatabase,
        sink: DocumentDatabase,
        result: ReplicationResult,
    ) -> None:
        checkpoint = self._checkpoints.get(key, 0)
        changes = feed.changes(since=checkpoint)
        for start in range(0, len(changes), self.batch_size):
            batch = changes[start : start + self.batch_size]
            self._ship_batch(feed, sink, batch, result)
            # The checkpoint moves only after the whole batch applied:
            # a failure above leaves it at the previous batch boundary,
            # so the next pass resumes without losing documents.
            self._checkpoints[key] = batch[-1].seq
            if self._checkpoint_store is not None:
                self._checkpoint_store.save(self._checkpoints)
            result.batches += 1

    @staticmethod
    def _ship_batch(
        feed: DocumentDatabase,
        sink: DocumentDatabase,
        batch: List[Change],
        result: ReplicationResult,
    ) -> None:
        stored_docs = feed.raw_documents([change.doc_id for change in batch])
        entries = []
        written = deletions = 0
        for stored in stored_docs:
            if stored is None:
                continue
            # The stored form ships as-is; the target copies it and
            # assigns its own ordering (see ``_coerce_entry``).
            entries.append(stored)
            if stored.deleted:
                deletions += 1
            else:
                written += 1
        if entries:
            sink.replication_put_batch(entries)
        result.docs_written += written
        result.deletions += deletions

    def _global_checkpoint(self) -> int:
        return max(self._checkpoints.values(), default=0)

    @property
    def checkpoint(self) -> int:
        """The highest fully-applied source sequence (max across shards)."""
        with self._lock:
            return self._global_checkpoint()

    @property
    def shard_checkpoints(self) -> Dict[str, int]:
        """Per-feed checkpoints (shard name -> seq; ``""`` when unsharded)."""
        with self._lock:
            return dict(self._checkpoints)


def replicate(
    source: DocumentDatabase,
    target: DocumentDatabase,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> ReplicationResult:
    """One-shot push replication (fresh checkpoint: copies everything)."""
    return Replicator(source, target, batch_size=batch_size).replicate()
