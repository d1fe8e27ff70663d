"""Crash recovery: rebuild a (sharded) document store from its data
directory, and persist replication checkpoints alongside it.

:func:`open_durable_database` is the one entry point — it creates *or*
recovers, so application startup is a single call:

    db = open_durable_database("var/app_db", "mdt_app", shards=8)

Layout of a durable store's directory::

    data_dir/
      meta.json            # {"name", "shards"} — shape guard on reopen
      shard-0/
        wal.log            # CRC-framed commit records (repro.storage.wal),
                           # compacted in place by an atomic rename
      shard-1/ ...

Recovery per shard: read the log, truncate any torn tail, then replay
its records through :meth:`~repro.storage.docstore.Database.load_recovered`
— documents, revisions, label sidecars, tombstones and the changes feed
all come back. The shared
:class:`~repro.storage.docstore.SequenceAllocator` is advanced to the
highest sequence any shard recovered, so new writes continue the
store-wide order. View indexes are rebuilt by the application's own
``define_view`` calls over the recovered documents (view definitions
are code, not data).

What recovery guarantees (proven by
``tests/property/test_crash_recovery.py`` across every instrumented
crash point): the recovered store is observation-equivalent to the
in-memory reference replaying a **prefix** of the submitted write
history, and every write covered by a completed fsync is inside that
prefix.

:class:`CheckpointStore` gives :class:`~repro.storage.replication.Replicator`
the same treatment: per-batch checkpoints persisted atomically, so a
restarted replicator resumes from the last *completed* batch. Because a
recovered source may have rolled back un-synced tail sequences, the
replicator clamps each persisted checkpoint to the source's current
``update_seq`` — re-shipping a batch is convergent (revisions apply
verbatim), silently skipping re-issued sequences would lose documents.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Dict, List, Tuple

from repro.exceptions import WalError
from repro.storage.docstore import Database, DocumentDatabase, make_database
from repro.storage.faults import NULL_FAULTS, FaultInjector
from repro.storage.wal import (
    DEFAULT_FSYNC_BATCH,
    DEFAULT_SNAPSHOT_EVERY,
    ShardDurability,
    replace_file,
)

_META_FILE = "meta.json"


def _shards_of(database: DocumentDatabase) -> Tuple[Database, ...]:
    shards = getattr(database, "shards", None)
    return shards if shards is not None else (database,)


def _check_meta(directory: str, name: str, shards: int, faults: FaultInjector) -> None:
    """Write the shape descriptor on first open; refuse a mismatched reopen.

    Documents hash to shards by CRC-32 mod N — reopening N-sharded data
    as M-sharded would scatter recovered documents onto the wrong
    shards' WALs and quietly corrupt the store.
    """
    path = os.path.join(directory, _META_FILE)
    if os.path.exists(path):
        with open(path, "rb") as handle:
            try:
                meta = json.loads(handle.read())
            except ValueError:
                raise WalError(f"unreadable durability metadata at {path}") from None
        if meta.get("shards") != shards:
            raise WalError(
                f"data directory {directory!r} holds {meta.get('shards')} shard(s); "
                f"refusing to reopen with shards={shards}"
            )
        return
    replace_file(faults, path, json.dumps({"name": name, "shards": shards}).encode())


def open_durable_database(
    directory,
    name: str,
    shards: int = 1,
    read_only: bool = False,
    fsync_batch: int = DEFAULT_FSYNC_BATCH,
    snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
    faults: FaultInjector = NULL_FAULTS,
) -> DocumentDatabase:
    """Create or recover a durable document store rooted at *directory*.

    Returns the same :class:`~repro.storage.docstore.Database` /
    :class:`~repro.storage.docstore.ShardedDatabase` types the in-memory
    :func:`~repro.storage.docstore.make_database` yields — everything
    downstream (views, replication, models, the portal) is unchanged;
    only the write path gains WAL logging and fsync points.
    """
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    _check_meta(directory, name, shards, faults)
    database = make_database(name, read_only=read_only, shards=shards)
    last_seq = 0
    torn_shards: List[str] = []
    for index, shard in enumerate(_shards_of(database)):
        durability = ShardDurability(
            os.path.join(directory, f"shard-{index}"),
            fsync_batch=fsync_batch,
            snapshot_every=snapshot_every,
            faults=faults,
        )
        recovered = durability.recover()
        shard.load_recovered(recovered.entries)
        shard.attach_durability(durability)
        last_seq = max(last_seq, recovered.last_seq)
        if recovered.torn:
            torn_shards.append(shard.name)
    database._sequence.advance_to(last_seq)
    #: Shard names whose WAL had a torn/corrupt tail discarded at this
    #: recovery — diagnostic only; the surviving prefix is intact.
    database.recovered_torn_shards = tuple(torn_shards)
    return database


def flush_durable(database: DocumentDatabase) -> None:
    """Force a group-commit fsync on every shard (tests, clean shutdown)."""
    for shard in _shards_of(database):
        if shard.durability is not None:
            shard.durability.sync()


def snapshot_durable(database: DocumentDatabase) -> None:
    """Force a compaction of every shard's log."""
    for shard in _shards_of(database):
        if shard.durability is not None:
            shard.durability.snapshot(shard)


def close_durable(database: DocumentDatabase) -> None:
    """Release every shard's WAL file handle. Does not fsync pending
    records — call :func:`flush_durable` first for a clean shutdown (an
    unclean close is exactly a process crash, and recovery covers it)."""
    for shard in _shards_of(database):
        if shard.durability is not None:
            shard.durability.close()


class CheckpointStore:
    """Atomically persisted replication checkpoints.

    One JSON file (a CRC-32 line in hex, then the body), replaced via
    rename after every completed batch. ``load`` returns ``{}`` for a
    missing or unreadable file — the replicator then restarts from
    sequence zero, which re-ships documents but never loses one.
    """

    def __init__(self, path, faults: FaultInjector = NULL_FAULTS):
        self._path = os.fspath(path)
        self._faults = faults

    @property
    def path(self) -> str:
        return self._path

    def load(self) -> Dict[str, int]:
        if not os.path.exists(self._path):
            return {}
        with open(self._path, "rb") as handle:
            raw = handle.read()
        newline = raw.find(b"\n")
        if newline < 0:
            return {}
        body = raw[newline + 1 :]
        try:
            if int(raw[:newline], 16) != zlib.crc32(body):
                return {}
            payload = json.loads(body)
        except ValueError:
            return {}
        checkpoints = payload.get("checkpoints", {})
        return {str(key): int(value) for key, value in checkpoints.items()}

    def save(self, checkpoints: Dict[str, int]) -> None:
        body = json.dumps({"checkpoints": checkpoints}, separators=(",", ":")).encode()
        self._faults.hit("checkpoint.before")
        replace_file(self._faults, self._path, b"%08x\n" % zlib.crc32(body) + body)
        self._faults.hit("checkpoint.after")
