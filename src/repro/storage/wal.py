"""Per-shard write-ahead log, compacted in place.

Durability for the sharded document store (ROADMAP item 4) is one
on-disk artefact per shard, ``wal.log`` in the shard's data directory:
a header followed by CRC-framed records, one per committed revision,
carrying exactly the single-pass labeled document encoding the store
already holds in memory: the plain body plus the RFC 6901 label sidecar
produced by :func:`repro.taint.json_codec.encode_document` at original
write time, the assigned store-wide sequence, the MVCC revision and the
insertion-order slot. Nothing is re-serialised on the way down — the
LWeb position (PAPERS.md) that labels must persist *with* the data they
guard falls out of reusing the stored form.

**A snapshot is a compacted log.** Every *snapshot_every* records the
shard rewrites its log as one record per document (the changes feed:
each document's latest revision, tombstones included, in sequence
order): ``wal.log.tmp`` is written and fsynced, then renamed over
``wal.log`` (:func:`replace_file`) and the append handle reopened — one
format, one reader, and the rename is the single commit point: before
it the old log is authoritative, after it the new one, and both replay
to the same store. That bounds log length and recovery time.

**Group-commit fsync batching.** Appends land in the OS page cache
immediately; ``fsync`` runs every *fsync_batch* records (``1`` = every
write) and always at a replication batch boundary — the batch-put path
(:meth:`repro.storage.docstore.Database.replication_put_batch`) is one
group commit. The acknowledgement contract this buys is spelled out in
``docs/DURABILITY.md``: recovery yields a *prefix* of the submitted
write history, and every write covered by a completed fsync is in it.

**Failure posture.** Any append, fsync or compaction error poisons the
writer (:class:`~repro.exceptions.WalError` on further use): once the
log tail is suspect, acknowledging more writes could leave a gap inside
the recovered prefix, which is the one inexcusable outcome.

Every instrumented instant calls into a
:class:`~repro.storage.faults.FaultInjector` (default: no-op), which is
how the crash-recovery property suite stops the world mid-append,
between fsyncs, or on either side of a compaction's rename.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.exceptions import WalError
from repro.storage.docstore import _sidecar_labels, _StoredDocument
from repro.storage.faults import NULL_FAULTS, FaultInjector, SimulatedCrash

#: WAL file header; bump the digit on any framing change.
WAL_HEADER = b"SWAL1\n"

#: Frame prefix: payload length, CRC-32 of the payload.
_FRAME = struct.Struct("<II")

#: Default number of appended records between fsyncs (1 = sync every write).
DEFAULT_FSYNC_BATCH = 8

#: Default number of WAL records between compactions.
DEFAULT_SNAPSHOT_EVERY = 1024


def _frame(payload: bytes) -> bytes:
    """*payload* as it lies in the log: length, CRC-32, bytes."""
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def replace_file(
    faults: FaultInjector, path: str, data: bytes, fsynced_point: Optional[str] = None
) -> None:
    """Make *data* the whole content of *path*, atomically.

    ``path + ".tmp"`` is fully written and fsynced *before* it is renamed
    over *path*, so a reader finds either the previous complete file or
    the new complete file, never a partial one. *fsynced_point* names a
    crash point to hit between the fsync and the rename.
    """
    tmp = path + ".tmp"
    handle = faults.open(tmp, "wb")
    try:
        handle.write(data)
        handle.fsync()
    finally:
        handle.close()
    if fsynced_point is not None:
        faults.hit(fsynced_point)
    faults.replace(tmp, path)


def encode_commit(seq: int, stored: _StoredDocument) -> bytes:
    """One WAL record: the stored form of one committed revision.

    JSON keeps the record human-greppable and reuses the storable-JSON
    guarantee ``put`` already enforced on the body. Object keys must be
    strings (a JSON round-trip would coerce others; the store's own
    canonical dump enforces this for every storable document).
    """
    return json.dumps(
        [
            "c",
            seq,
            stored.doc_id,
            stored.rev,
            stored.body,
            stored.sidecar,
            1 if stored.deleted else 0,
            stored.order,
        ],
        separators=(",", ":"),
    ).encode()


def decode_commit(record: List) -> Tuple[int, _StoredDocument]:
    """Inverse of :func:`encode_commit`; recomputes the interned label
    union from the sidecar (cheap — labels hash-cons)."""
    kind, seq, doc_id, rev, body, sidecar, deleted, order = record
    if kind != "c":
        raise WalError(f"unknown WAL record kind {kind!r}")
    sidecar = {pointer: list(uris) for pointer, uris in sidecar.items()}
    return seq, _StoredDocument(
        doc_id,
        rev,
        body,
        sidecar,
        deleted=bool(deleted),
        order=order,
        labels=_sidecar_labels(sidecar),
    )


def read_wal(path: str) -> Tuple[List[List], int, bool]:
    """Read every intact record; tolerate a torn tail.

    Returns ``(records, valid_length, torn)`` where *valid_length* is
    the byte offset of the last intact record boundary — the writer
    truncates to it before reuse — and *torn* reports whether trailing
    bytes (a partial or corrupt final record) were discarded. A missing
    file or an unrecognisable header reads as empty.
    """
    if not os.path.exists(path):
        return [], 0, False
    with open(path, "rb") as handle:
        data = handle.read()
    if data[: len(WAL_HEADER)] != WAL_HEADER:
        # Torn header (power loss during creation): nothing recoverable.
        return [], 0, len(data) > 0
    offset = len(WAL_HEADER)
    records: List[List] = []
    while offset + _FRAME.size <= len(data):
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > len(data):
            break  # partial payload: torn tail
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            break  # corrupt record: distrust everything after it
        try:
            records.append(json.loads(payload))
        except ValueError:
            break
        offset = end
    return records, offset, offset < len(data)


class WalWriter:
    """Appends CRC-framed records with group-commit fsync batching.

    Thread contract: ``append`` runs under the owning shard's lock (the
    commit choke point), ``sync``/``maybe_sync`` may run from any thread
    after the lock is released — an internal lock keeps the counters and
    the file coherent, and any thread's fsync covers every prior append.
    """

    def __init__(
        self,
        path: str,
        fsync_batch: int = DEFAULT_FSYNC_BATCH,
        faults: FaultInjector = NULL_FAULTS,
        valid_length: Optional[int] = None,
    ):
        if fsync_batch < 1:
            raise WalError("fsync_batch must be at least 1")
        self._lock = threading.RLock()
        self._faults = faults
        self._fsync_batch = fsync_batch
        self._failed = False
        self._path = path
        self._file = faults.open(path, "ab")
        if self._file.written == 0:
            self._file.write(WAL_HEADER)
            self._file.fsync()
        elif valid_length is not None and valid_length < self._file.written:
            # Drop the torn tail a recovery reported before appending
            # after it — a new record must start at a frame boundary.
            self._file.truncate_to(max(valid_length, 0))
        #: Records appended / covered by a completed fsync, this process.
        self.appended = 0
        self.durable = 0

    def append(self, payload: bytes) -> None:
        with self._lock:
            self._guard()
            try:
                self._faults.hit("wal.append.before")
                frame = _frame(payload)
                torn_keep = self._faults.take_torn_keep(len(frame))
                if torn_keep is not None:
                    # A simulated mid-append crash: part of the frame
                    # reaches the file, then the process dies.
                    self._file.write(frame[:torn_keep])
                    self._file.flush()
                    raise SimulatedCrash("wal.append.torn")
                self._file.write(frame)
                self.appended += 1
                self._faults.hit("wal.append.after")
            except BaseException:
                self._failed = True
                raise

    def maybe_sync(self) -> None:
        """Group commit: fsync once *fsync_batch* records are pending."""
        with self._lock:
            if self.appended - self.durable >= self._fsync_batch:
                self.sync()

    def sync(self) -> None:
        """Fsync everything appended so far (no-op when already durable)."""
        with self._lock:
            self._guard()
            if self.durable == self.appended:
                return
            try:
                self._faults.hit("wal.sync.before")
                self._file.fsync()
                self._faults.hit("wal.sync.after")
            except BaseException:
                self._failed = True
                raise
            self.durable = self.appended

    def compact(self, payloads: Iterable[bytes]) -> None:
        """Replace the whole log by header + one frame per payload.

        The caller holds the shard lock and passes every record a replay
        needs, pending ones included: the new log is fsynced before the
        rename, so landing it is also a group commit. The append handle
        is closed first and reopened on the new file; a failure anywhere
        leaves a complete log on disk (old or new) and a poisoned writer.
        """
        with self._lock:
            self._guard()
            try:
                self._faults.hit("compact.begin")
                self._file.close()
                replace_file(
                    self._faults,
                    self._path,
                    WAL_HEADER + b"".join(map(_frame, payloads)),
                    "compact.fsynced",
                )
                self._file = self._faults.open(self._path, "ab")
                self._faults.hit("compact.renamed")
            except BaseException:
                self._failed = True
                raise
            self.durable = self.appended

    @property
    def pending(self) -> int:
        with self._lock:
            return self.appended - self.durable

    @property
    def failed(self) -> bool:
        return self._failed

    def _guard(self) -> None:
        if self._failed:
            raise WalError(
                "write-ahead log entered the failed state (an earlier append "
                "or fsync raised); reopen the store to recover"
            )

    def close(self) -> None:
        self._file.close()


@dataclass
class RecoveredShard:
    """What one shard's durability directory yielded at recovery."""

    #: ``(seq, stored_document)`` in log order, which ascends by sequence
    #: (later records override earlier ones for the same document).
    entries: List[Tuple[int, _StoredDocument]]
    #: Highest sequence recovered (0 for an empty log).
    last_seq: int
    #: A torn or corrupt WAL tail was discarded.
    torn: bool


class ShardDurability:
    """WAL manager for one :class:`~repro.storage.docstore.Database`.

    Attached via
    :meth:`~repro.storage.docstore.Database.attach_durability`; the
    store calls :meth:`log_commit` from its commit choke point (under
    the shard lock), :meth:`commit_point` after each single-document
    write and :meth:`batch_point` after each replication batch.
    """

    def __init__(
        self,
        directory: str,
        fsync_batch: int = DEFAULT_FSYNC_BATCH,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        faults: FaultInjector = NULL_FAULTS,
    ):
        if snapshot_every < 1:
            raise WalError("snapshot_every must be at least 1")
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._wal_path = os.path.join(self.directory, "wal.log")
        self._faults = faults
        self._fsync_batch = fsync_batch
        self._snapshot_every = snapshot_every
        self._writer: Optional[WalWriter] = None
        self._records_since_snapshot = 0

    # -- recovery --------------------------------------------------------------

    def recover(self) -> RecoveredShard:
        """Replay the WAL; open the writer for reuse.

        A torn tail is measured here and truncated away by the writer
        before any new append. A directory written by a build that kept
        compacted state in a second file is refused: its log alone is
        missing every document compacted out of it.
        """
        if os.path.exists(os.path.join(self.directory, "snapshot.json")):
            raise WalError(
                f"shard directory {self.directory!r} holds a snapshot.json from an "
                "older on-disk format; refusing to open it without those documents"
            )
        records, valid_length, torn = read_wal(self._wal_path)
        entries = [decode_commit(record) for record in records]
        self._writer = WalWriter(
            self._wal_path,
            fsync_batch=self._fsync_batch,
            faults=self._faults,
            valid_length=valid_length,
        )
        # Only records a compaction would drop count towards the next one
        # — reopening an already-compact log must not rewrite it.
        self._records_since_snapshot = len(entries) - len(
            {stored.doc_id for _seq, stored in entries}
        )
        last_seq = entries[-1][0] if entries else 0
        return RecoveredShard(entries, last_seq, torn)

    # -- the write path --------------------------------------------------------

    def log_commit(self, stored: _StoredDocument, seq: int) -> None:
        """Append one committed revision (called under the shard lock)."""
        self._require_writer().append(encode_commit(seq, stored))
        self._records_since_snapshot += 1

    def commit_point(self, database) -> None:
        """After a single-document write: batched fsync, maybe compact."""
        self._require_writer().maybe_sync()
        self._maybe_snapshot(database)

    def batch_point(self, database) -> None:
        """After a replication batch: group-commit fsync, maybe compact."""
        self._require_writer().sync()
        self._maybe_snapshot(database)

    def sync(self) -> None:
        self._require_writer().sync()

    def _maybe_snapshot(self, database) -> None:
        if self._records_since_snapshot >= self._snapshot_every:
            self.snapshot(database)

    def snapshot(self, database) -> None:
        """Compact: rewrite the log as the shard's changes feed — every
        document (tombstones included, so MVCC conflict detection and
        replication of deletes survive a restart) at its latest change.

        Runs entirely under the shard lock so no commit can slip between
        the state written and the handle swap — a record appended to the
        old log in that window would be gone with it, losing an
        acknowledged write.
        """
        with database._lock:
            documents = database._documents
            self._require_writer().compact(
                encode_commit(change.seq, documents[change.doc_id])
                for change in database._changes.values()
            )
            self._records_since_snapshot = 0

    # -- introspection ---------------------------------------------------------

    @property
    def writer(self) -> Optional[WalWriter]:
        return self._writer

    def _require_writer(self) -> WalWriter:
        if self._writer is None:
            raise WalError("ShardDurability used before recover()")
        return self._writer

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
