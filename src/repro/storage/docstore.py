"""A CouchDB-like document store with label persistence, sharding and
incremental views.

The MDT application stores processed records *with their security labels*
in the application database (paper §5.1). Documents here are plain JSON
values plus a label sidecar produced by
:func:`repro.taint.json_codec.encode_document`; reads re-attach labels so
the web frontend transparently receives labeled values (§4.4, step 2).
The labeled form is decoded once per stored revision and every reader is
handed its own copy of it; whatever else a reader derives from the
document and its labels (its JSON text, a rendered fragment) is likewise
computed once per revision (see :meth:`_StoredDocument.form`).

Implemented CouchDB behaviours the reproduction relies on:

* ``_id`` / ``_rev`` optimistic concurrency (MVCC): writes must present
  the current revision or fail with :class:`DocumentConflict`;
* map views — Python callables instead of JavaScript — maintained as
  **incremental secondary indexes**: map output is stored per (view,
  document), invalidated tombstone-style when the document is updated
  or deleted, and queried through a per-key index instead of a full
  scan;
* a monotonic changes feed with batch reads and change listeners, which
  replication consumes;
* a read-only mode for the DMZ replica (security requirement S1);
* :class:`ShardedDatabase` — N :class:`Database` shards behind the same
  API, hash-partitioned by document id, sharing one store-wide sequence
  so the merged changes feed and document ordering stay globally
  monotonic.

Enforcement semantics (which rows a reader sees, which labels they
carry, how ``update_seq`` advances) are pinned byte-identical to the
seed implementation, kept as the executable specification in
``tests/reference/store.py`` and enforced by
``tests/property/test_sharded_store.py``.
"""

from __future__ import annotations

import hashlib
import json
import threading
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.labels import EMPTY_LABELS, LabelSet
from repro.exceptions import DocumentConflict, DocumentNotFound, ReadOnlyError, SafeWebError
from repro.taint import json_codec
from repro.taint.labeled import labels_of, strip_labels, with_labels
from repro.taint.string import LabeledStr

#: A map view callable: receives the (plain) document, yields
#: ``(key, value)`` pairs — the analogue of CouchDB's ``emit``.
MapFunction = Callable[[Dict[str, Any]], Iterable]


class SequenceAllocator:
    """Thread-safe monotonic sequence source.

    A standalone :class:`Database` owns a private allocator (seed
    semantics: ``update_seq`` counts that database's writes). A
    :class:`ShardedDatabase` passes one shared allocator to every shard,
    so sequence numbers are unique and monotonic *across* shards and the
    merged changes feed needs no per-shard tie-breaking.
    """

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def next(self) -> int:
        with self._lock:
            self._value += 1
            return self._value

    def reserve(self, count: int) -> int:
        """Allocate *count* consecutive sequences; returns the first.

        Batch writers (replication) take one block per batch instead of
        one lock round-trip per document. Blocks from different shards
        interleave at batch granularity — still unique, still monotonic
        within every shard's feed.
        """
        with self._lock:
            start = self._value + 1
            self._value += count
            return start

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def advance_to(self, value: int) -> None:
        """Raise the high-water mark to at least *value* (never lowers).

        Crash recovery calls this after replaying every shard's WAL so
        post-recovery writes continue the store-wide sequence instead of
        re-issuing sequences the changes feed (and any replication
        checkpoint) has already seen.
        """
        with self._lock:
            if value > self._value:
                self._value = value


@dataclass
class _StoredDocument:
    doc_id: str
    rev: str
    body: Any  # plain JSON value (no labels)
    sidecar: Dict[str, List[str]]
    deleted: bool = False
    #: Store-wide sequence at which this id was (last) created; orders
    #: :meth:`Database.all_doc_ids`. Preserved across updates, renewed
    #: when a deleted id is recreated.
    order: int = 0
    #: Union of every label set in the sidecar — the document's combined
    #: confidentiality, precomputed for clearance-filtered view reads.
    labels: LabelSet = EMPTY_LABELS
    #: ``decode_document(body, sidecar)``, set by the first labeled read.
    #: A revision's body and sidecar never change and every write
    #: installs a fresh :class:`_StoredDocument`, so the decoded form
    #: lives and dies with its revision and needs no invalidation.
    _labeled: Any = field(default=None, init=False, repr=False, compare=False)
    #: ``derive -> derive(self.document())`` for every derived form a
    #: reader has asked for (see :meth:`form`); lives and dies with the
    #: revision exactly like ``_labeled``. Allocated by the first reader:
    #: writes, replication and recovery build revisions without it.
    _forms: Optional[Dict[Any, Any]] = field(default=None, init=False, repr=False, compare=False)

    def labeled(self) -> Any:
        """The body with labels re-attached, decoded once per revision.

        Shared by every reader of this revision: hand out
        :meth:`document` (or another copy), never this object. Two
        threads racing the first read both decode equal values and one
        attribute store wins, so no lock is needed.
        """
        labeled = self._labeled
        if labeled is None:
            labeled = self._labeled = json_codec.decode_document(self.body, self.sidecar)
        return labeled

    def document(self) -> Dict[str, Any]:
        """A labeled document the caller owns, with ``_id`` and ``_rev``.

        Containers are fresh at every depth; the immutable plain and
        labeled leaves are shared with the stored revision.
        """
        result = json_codec.copy_containers(self.labeled())
        result["_id"] = self.doc_id
        result["_rev"] = self.rev
        return result

    def form(self, derive: Callable[[Dict[str, Any]], Any]) -> Any:
        """``derive(self.document())``, computed once per revision.

        The one memo for whatever a reader derives from document +
        labels — its labelled JSON text (``json_codec.dumps``), a
        rendered template fragment — keyed by the *derive* callable
        itself. The store never looks inside a form: *derive* must
        return something safe to share between readers (an immutable
        labelled string), carrying whatever labels it folded from the
        document, which need not be :attr:`labels` (``dumps`` intersects
        integrity where the sidecar union keeps it). Nothing invalidates
        a form: a write installs a new revision with none, and the old
        one takes its forms with it. The first-read race is benign for
        the same reason as :meth:`labeled`'s — equal values, one store
        wins.
        """
        forms = self._forms
        if forms is None:
            forms = self._forms = {}
        derived = forms.get(derive)
        if derived is None:
            derived = forms[derive] = derive(self.document())
        return derived


@dataclass(frozen=True)
class Change:
    """One entry of the changes feed."""

    seq: int
    doc_id: str
    rev: str
    deleted: bool


#: Placeholder for a :attr:`ViewRow.value` not yet resolved from its revision.
_UNRESOLVED: Any = object()


class ViewRow:
    """One row of a view query result: ``ViewRow(doc_id, key, value)``.

    Rows compare (and hash) by those three fields. An ``include_docs``
    row also holds the stored revision it matched, from which
    :attr:`value` and every :meth:`form` resolve on first use — a caller
    that reads neither pays for neither.
    """

    __slots__ = ("doc_id", "key", "_value", "_revision")

    def __init__(
        self, doc_id: str, key: Any, value: Any, _revision: Optional[_StoredDocument] = None
    ) -> None:
        self.doc_id = doc_id
        self.key = key
        self._value = value
        self._revision = _revision

    @property
    def value(self) -> Any:
        """The emitted value or, on an ``include_docs`` row, the matched
        revision's :meth:`~_StoredDocument.document` — copied out on
        first access and the caller's own from then on."""
        value = self._value
        if value is _UNRESOLVED:
            value = self._value = self._revision.document()
        return value

    def form(self, derive: Callable[[Dict[str, Any]], Any]) -> Any:
        """The matched revision's :meth:`~_StoredDocument.form` — what
        ``derive`` returns for the document the store resolved for this
        row, whatever the caller has since done to its own
        :attr:`value`; the store's, shared, never to be mutated.
        ``None`` on a row without a document."""
        revision = self._revision
        return None if revision is None else revision.form(derive)

    @property
    def json(self) -> Optional[LabeledStr]:
        """The document as labelled JSON text: ``form(json_codec.dumps)``."""
        return self.form(json_codec.dumps)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ViewRow:
            return NotImplemented
        return (self.doc_id, self.key, self.value) == (other.doc_id, other.key, other.value)

    def __hash__(self) -> int:
        return hash((self.doc_id, self.key, self.value))

    def __repr__(self) -> str:
        return f"ViewRow(doc_id={self.doc_id!r}, key={self.key!r}, value={self.value!r})"


class _ViewIndex:
    """Incremental secondary index for one view.

    ``rows`` holds the stripped map output per document (the tombstone
    unit: a document update or delete drops its entry and re-emits).
    ``by_key`` maps each hashable emitted key to the documents that
    emitted it, so exact-key queries touch only matching documents;
    documents with unhashable emitted keys land in ``unhashable_docs``
    and are scanned (equality may still hold where hashing cannot).
    The index itself holds nothing labelled: a labelled document's
    labelled emissions are a per-revision form (see
    :meth:`labelled_emissions`).
    """

    __slots__ = ("map_function", "rows", "by_key", "unhashable_docs")

    def __init__(self, map_function: MapFunction):
        self.map_function = map_function
        self.rows: Dict[str, List[Tuple[Any, Any]]] = {}
        self.by_key: Dict[Any, Set[str]] = {}
        self.unhashable_docs: Set[str] = set()

    def labelled_emissions(self, document: Dict[str, Any]) -> List[Tuple[Any, Any]]:
        """This view's map output over a *labelled* document — the derive
        callable for :meth:`_StoredDocument.form`, so it is computed once
        per (view, revision) and dies with either. The map sees what it
        saw at index time (body plus ``_id``, no ``_rev``) and fails the
        same way: an error emits nothing, which leaves every row of the
        document unpaired (see :meth:`Database._labelled_rows`)."""
        del document["_rev"]
        try:
            return [(key, value) for key, value in self.map_function(document)]
        except Exception:
            return []


def _next_rev(current: Optional[str], canonical_body: str) -> str:
    """Next MVCC revision from the canonical JSON text of the body.

    Callers pass the already-serialised body so validation and digesting
    share a single ``json.dumps`` per write.
    """
    generation = 0
    if current:
        generation = int(current.split("-", 1)[0])
    digest = hashlib.md5(canonical_body.encode()).hexdigest()[:16]
    return f"{generation + 1}-{digest}"


def _sidecar_labels(sidecar: Dict[str, List[str]]) -> LabelSet:
    """The union of every label set in a sidecar (interned, cheap); a run of
    equal URI lists — one event-level set stamped on every field — parses once."""
    combined = EMPTY_LABELS
    previous = None
    for uris in sidecar.values():
        if uris != previous:
            combined = combined.union(LabelSet.from_uris(uris))
            previous = uris
    return combined


def _coerce_entry(entry) -> _StoredDocument:
    """A fresh target-side :class:`_StoredDocument` from a batch entry.

    Accepts the replicator's source documents (copied, never aliased:
    the target assigns its own ``order``) or plain 5-tuples from
    wire-level callers. A source without precomputed labels (the
    reference store) gets its sidecar folded here.
    """
    if isinstance(entry, _StoredDocument):
        labels = entry.labels
        if entry.sidecar and not labels:
            labels = _sidecar_labels(entry.sidecar)
        return _StoredDocument(
            entry.doc_id, entry.rev, entry.body, dict(entry.sidecar),
            entry.deleted, labels=labels,
        )
    doc_id, rev, body, sidecar, deleted = entry
    return _StoredDocument(
        doc_id, rev, body, dict(sidecar), deleted, labels=_sidecar_labels(sidecar)
    )


def _in_creation_order(documents: List[_StoredDocument]) -> List[_StoredDocument]:
    """Sort by the store-wide sequence each id was (last) created at —
    unique across shards, so the merge needs no tie-break."""
    return sorted(documents, key=lambda doc: doc.order)


def _is_hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _same_key_slots(previous: Sequence[Tuple[Any, Any]], emissions: Sequence[Tuple[Any, Any]]) -> bool:
    """Do two emission lists occupy the same ``by_key`` slots — equal keys,
    pairwise, every one hashable?"""
    try:
        return len(previous) == len(emissions) and all(
            old == new and hash(old) == hash(new) for (old, _), (new, _) in zip(previous, emissions)
        )
    except TypeError:
        return False


def _map_input(stored: _StoredDocument) -> Any:
    """What a map function is shown for *stored*: the plain body plus ``_id``,
    built once per commit for every view — a map must not mutate it."""
    body = stored.body
    return {**body, "_id": stored.doc_id} if isinstance(body, dict) else body


class Database:
    """One named database (or one shard of a :class:`ShardedDatabase`).

    Thread-safe behind a single re-entrant lock; a sharded store gives
    each shard its own instance so writes to different shards never
    contend.
    """

    def __init__(
        self,
        name: str,
        read_only: bool = False,
        sequence: Optional[SequenceAllocator] = None,
    ):
        self.name = name
        self.read_only = read_only
        self._lock = threading.RLock()
        self._sequence = sequence if sequence is not None else SequenceAllocator()
        self._documents: Dict[str, _StoredDocument] = {}
        self._seq = 0  # last sequence recorded by *this* database
        #: The changes feed: each document's latest change, in ascending
        #: sequence order (an update re-inserts its entry at the end), so
        #: it grows with ids, not writes.
        self._changes: Dict[str, Change] = {}
        self._views: Dict[str, _ViewIndex] = {}
        self._listeners: List[Callable[[List[Change]], None]] = []
        #: Optional :class:`repro.storage.wal.ShardDurability`; when set,
        #: every commit is WAL-logged before the write is acknowledged.
        self._durability = None

    # -- writes ----------------------------------------------------------------

    def put(self, document: Dict[str, Any]) -> Dict[str, Any]:
        """Insert or update a document; returns ``{"id":…, "rev":…}``.

        The document may contain labeled values anywhere; labels are
        split into the sidecar before the plain body is stored, and the
        presented ``_rev`` must match the stored revision (MVCC).
        """
        result, change = self._put(document, adopt=False)
        self._durable_point()
        self._notify([change])
        return result

    def _put(self, document: Dict[str, Any], adopt: bool) -> Tuple[Dict[str, Any], Change]:
        """The write itself, without listener notification (see callers). With *adopt*
        the current revision, if any, stands in for the presented one, under the lock."""
        self._guard_writable()
        if "_id" not in document:
            raise SafeWebError("document requires an _id")
        doc_id = strip_labels(str(document["_id"]))
        body = dict(document)
        del body["_id"]
        presented_rev = body.pop("_rev", None)
        plain, sidecar = json_codec.encode_document(body)
        # One serialisation doubles as eager storable-JSON validation and
        # the revision digest input (identical digests to the former
        # two-dump flow for every storable document).
        canonical = json.dumps(plain, sort_keys=True)

        with self._lock:
            existing = self._documents.get(doc_id)
            live = existing is not None and not existing.deleted
            if adopt:
                presented_rev = existing.rev if live else None
            if live:
                if presented_rev != existing.rev:
                    raise DocumentConflict(
                        f"revision mismatch for {doc_id!r}",
                        doc_id=doc_id,
                        current_rev=existing.rev,
                    )
                rev = _next_rev(existing.rev, canonical)
            else:
                if presented_rev is not None and existing is None:
                    raise DocumentConflict(
                        f"document {doc_id!r} does not exist", doc_id=doc_id
                    )
                rev = _next_rev(existing.rev if existing else None, canonical)
            stored = _StoredDocument(
                doc_id, rev, plain, sidecar, labels=_sidecar_labels(sidecar)
            )
            change = self._commit(stored, existing)
        return {"id": doc_id, "rev": rev}, change

    def upsert(self, document: Dict[str, Any]) -> Dict[str, Any]:
        """Insert-or-update without the caller tracking ``_rev``.

        Atomically adopts the current revision (if any) under the store
        lock, so the get-then-put race the seed's consumers worked
        around with retries cannot happen within one database;
        listeners still fire after the lock is released.
        """
        result, change = self._put(document, adopt=True)
        self._durable_point()
        self._notify([change])
        return result

    def delete(self, doc_id: str, rev: str) -> Dict[str, Any]:
        """Delete by id + current revision; leaves a tombstone in the feed."""
        self._guard_writable()
        with self._lock:
            existing = self._documents.get(doc_id)
            if existing is None or existing.deleted:
                raise DocumentNotFound(f"no document {doc_id!r}")
            if existing.rev != rev:
                raise DocumentConflict(
                    f"revision mismatch for {doc_id!r}", doc_id=doc_id, current_rev=existing.rev
                )
            tombstone_rev = _next_rev(existing.rev, json.dumps(None))
            stored = _StoredDocument(doc_id, tombstone_rev, None, {}, deleted=True)
            change = self._commit(stored, existing)
        self._durable_point()
        self._notify([change])
        return {"id": doc_id, "rev": tombstone_rev}

    def replication_put(
        self,
        doc_id: str,
        rev: str,
        body: Any,
        sidecar: Dict[str, List[str]],
        deleted: bool = False,
    ) -> None:
        """Write a replicated revision verbatim (bypasses MVCC, not
        read-only protection — the replica accepts pushes only through
        :class:`~repro.storage.replication.Replicator`, which flips the
        internal flag)."""
        self.replication_put_batch([(doc_id, rev, body, sidecar, deleted)])

    def replication_put_batch(self, entries: Iterable) -> int:
        """Apply a batch of replicated revisions under one lock acquisition.

        Each entry is either a ``(doc_id, rev, body, sidecar, deleted)``
        tuple or a source :class:`_StoredDocument` (the replicator ships
        the latter — bodies pre-stripped and sidecars pre-collected by
        the single-pass :func:`~repro.taint.json_codec.encode_document`
        at original write time, combined labels precomputed, so
        replication never re-serialises or re-folds). Returns the number
        of entries applied.
        """
        materialised = [_coerce_entry(entry) for entry in entries]
        changes: List[Change] = []
        with self._lock:
            seq = self._sequence.reserve(len(materialised)) if materialised else 0
            for stored in materialised:
                existing = self._documents.get(stored.doc_id)
                changes.append(self._commit(stored, existing, seq=seq))
                seq += 1
        self._durable_barrier()
        self._notify(changes)
        return len(changes)

    def _commit(
        self,
        stored: _StoredDocument,
        existing: Optional[_StoredDocument],
        seq: Optional[int] = None,
    ) -> Change:
        """Install a stored revision: ordering, changes feed, view upkeep.

        Must run under :attr:`_lock`. *seq* lets batch writers pass a
        pre-reserved sequence instead of taking the allocator lock per
        document.
        """
        if existing is not None and not existing.deleted:
            stored.order = existing.order  # updates keep their slot
        self._documents[stored.doc_id] = stored
        self._seq = self._sequence.next() if seq is None else seq
        if stored.order == 0:
            stored.order = self._seq  # creations (and recreations) append
        change = Change(self._seq, stored.doc_id, stored.rev, stored.deleted)
        self._record_change(change)
        if self._durability is not None:
            # Write-ahead under the same lock hold that installed the
            # revision: the log is strictly append-ordered with commits,
            # so recovery always yields a prefix of the commit history.
            self._durability.log_commit(stored, self._seq)
        document = _map_input(stored)
        for view in self._views.values():
            self._index_one(view, stored, document)
        return change

    # -- durability -----------------------------------------------------------

    def attach_durability(self, durability) -> None:
        """Attach a :class:`repro.storage.wal.ShardDurability`.

        Call after :meth:`load_recovered` and before serving writes —
        recovery loads must not be re-logged. Use
        :func:`repro.storage.recovery.open_durable_database` rather than
        wiring this by hand.
        """
        self._durability = durability

    @property
    def durability(self):
        return self._durability

    def _durable_point(self) -> None:
        """Single-document acknowledgement point: batched fsync + maybe
        compaction. Runs after the store lock is released; any thread's
        fsync covers every previously appended record."""
        durability = self._durability
        if durability is not None:
            durability.commit_point(self)

    def _durable_barrier(self) -> None:
        """Replication-batch acknowledgement point: one group-commit
        fsync per batch, whatever the configured ``fsync_batch``."""
        durability = self._durability
        if durability is not None:
            durability.batch_point(self)

    def load_recovered(self, entries: Iterable[Tuple[int, _StoredDocument]]) -> None:
        """Install recovered ``(seq, stored_document)`` entries.

        Entries must ascend by sequence (later entries override earlier
        ones for the same document — WAL replay order). Bypasses MVCC,
        read-only protection, WAL logging and listeners by design: this
        reconstructs state that was already acknowledged. Register views
        *after* loading; :meth:`define_view` indexes the recovered
        documents exactly as it indexes pre-existing ones.
        """
        with self._lock:
            for seq, stored in entries:
                self._documents[stored.doc_id] = stored
                self._record_change(Change(seq, stored.doc_id, stored.rev, stored.deleted))
                if seq > self._seq:
                    self._seq = seq

    def _guard_writable(self) -> None:
        if self.read_only:
            raise ReadOnlyError(
                f"database {self.name!r} is read-only (S1: DMZ replicas reject writes)"
            )

    # -- change listeners --------------------------------------------------------

    def add_change_listener(self, listener: Callable[[List[Change]], None]) -> None:
        """Call *listener* with each committed batch of changes.

        Listeners run on the writer's thread, after the store lock is
        released; the web tier's page cache uses one to invalidate its
        pages on every committed write.
        """
        self._listeners.append(listener)

    def _notify(self, changes: List[Change]) -> None:
        if not changes:
            return
        for listener in list(self._listeners):
            listener(changes)

    # -- reads ------------------------------------------------------------------

    def get(self, doc_id: str) -> Dict[str, Any]:
        """Fetch a document with labels re-attached.

        The result is the caller's own (see
        :meth:`_StoredDocument.document`): mutating it, at any depth,
        never reaches the stored revision.
        """
        with self._lock:
            stored = self._documents.get(doc_id)
        if stored is None or stored.deleted:
            raise DocumentNotFound(f"no document {doc_id!r}")
        return stored.document()

    def get_or_none(self, doc_id: str) -> Optional[Dict[str, Any]]:
        try:
            return self.get(doc_id)
        except DocumentNotFound:
            return None

    def __contains__(self, doc_id: str) -> bool:
        with self._lock:
            stored = self._documents.get(doc_id)
        return stored is not None and not stored.deleted

    def __len__(self) -> int:
        with self._lock:
            return sum(1 for doc in self._documents.values() if not doc.deleted)

    def all_doc_ids(self) -> List[str]:
        """Live document ids in **stable insertion (sequence) order**.

        Guarantee: ids appear in the order their documents were first
        created; updates keep a document's slot, and recreating a
        deleted id moves it to the end. Because the order key is the
        store-wide change sequence, the ordering is identical whether
        documents live in one :class:`Database` or are merged across
        :class:`ShardedDatabase` shards.

        On a replica the order reflects *replicated arrival*, which
        matches the source feed — with one caveat: a delete+recreate
        collapsed into a single deduplicated change ships as an update,
        so the replica keeps the document's existing slot even though
        the source moved it to the end.
        """
        return [doc.doc_id for doc in _in_creation_order(self._live())]

    def _live(self) -> List[_StoredDocument]:
        """The live revisions as of one lock hold, unordered."""
        with self._lock:
            return [doc for doc in self._documents.values() if not doc.deleted]

    def all_docs(self) -> List[Dict[str, Any]]:
        """Live documents, labels re-attached, in :meth:`all_doc_ids` order.

        One snapshot of the store: a concurrent delete cannot fail the
        call half-way. Documents are caller-owned, like :meth:`get`'s.
        """
        return [doc.document() for doc in _in_creation_order(self._live())]

    # -- views ---------------------------------------------------------------------

    def define_view(self, name: str, map_function: MapFunction) -> None:
        """Register a map view.

        *map_function* receives each (plain) document and yields
        ``(key, value)`` pairs — the Python analogue of a CouchDB design
        document's ``emit(key, value)``.

        The view is indexed immediately over existing documents and
        maintained incrementally on every subsequent write.
        """
        with self._lock:
            view = _ViewIndex(map_function)
            self._views[name] = view
            for stored in self._documents.values():
                self._index_one(view, stored, _map_input(stored))

    def view(
        self,
        name: str,
        key: Any = None,
        include_docs: bool = False,
        clearance: Optional[LabelSet] = None,
    ) -> List[ViewRow]:
        """Query a view.

        * ``key`` filters to rows whose emitted key equals *key* —
          served from the per-key index, falling back to a scan only
          for unhashable keys;
        * ``include_docs`` resolves each row's document (labels
          re-attached, exactly like :meth:`get`) from the revision that
          emitted the row, so a concurrent delete or update can neither
          fail the query nor pair a key with a document that no longer
          emits it;
        * ``clearance`` drops rows whose *document's* combined
          confidentiality labels do not flow to the given clearance
          label set, using the memoized lattice check — rows from
          unlabeled documents pass without allocating.

        Row order is stable: ascending document id, emissions in map
        order — identical to the seed store and across shard counts.

        Ownership: emitted keys and values belong to the store (the
        view index or, for a labelled document, the revision's labelled
        emissions; the seed store shared its index objects the same way)
        — treat them as read-only, or mutate a copy. A labelled
        document's rows carry the labels of the fields this view emitted
        them from (see :meth:`_labelled_rows`). Documents resolved by
        ``include_docs`` belong to the caller, like :meth:`get`'s, and
        are copied out when :attr:`ViewRow.value` is first read; each
        such row also exposes the stored revision's derived forms
        (:meth:`ViewRow.form`, :attr:`ViewRow.json`), which stay the
        store's.
        """
        with self._lock:
            view = self._views.get(name)
            if view is None:
                raise DocumentNotFound(f"no view {name!r} in database {self.name!r}")
            rows = self._matching_rows(view, key, clearance, labelled=not include_docs)
            if include_docs:
                return [
                    ViewRow(stored.doc_id, emitted_key, _UNRESOLVED, stored)
                    for stored, emitted_key, _emitted_value in rows
                ]
            return [
                ViewRow(stored.doc_id, emitted_key, emitted_value)
                for stored, emitted_key, emitted_value in rows
            ]

    def _matching_rows(
        self, view: _ViewIndex, key: Any, clearance: Optional[LabelSet], labelled: bool = False
    ) -> List[Tuple[_StoredDocument, Any, Any]]:
        """(revision, key, value) triples matching *key*, in row order.

        Each row carries the stored revision that emitted it, so callers
        resolve documents and labels from exactly what was matched. With
        *labelled*, a labelled document's rows carry their labels (see
        :meth:`_labelled_rows`); the index's stripped rows otherwise.
        Must run under :attr:`_lock`.
        """
        if key is None or not _is_hashable(key):
            candidates: Iterable[str] = view.rows
        else:
            matched = view.by_key.get(key)
            if matched is None and not view.unhashable_docs:
                return []
            candidates = (
                matched | view.unhashable_docs if matched is not None
                else view.unhashable_docs
            )
        rows: List[Tuple[_StoredDocument, Any, Any]] = []
        for doc_id in sorted(candidates):
            stored = self._documents[doc_id]
            if clearance is not None and not stored.labels.flows_to(clearance):
                continue
            emissions = view.rows[doc_id]
            if labelled and stored.sidecar:
                emissions = self._labelled_rows(view, stored, emissions)
            for emitted_key, emitted_value in emissions:
                # Labelled scalars compare by value, so the filter reads
                # the same on either form of the row.
                if key is not None and emitted_key != key:
                    continue
                rows.append((stored, emitted_key, emitted_value))
        return rows

    @staticmethod
    def _labelled_rows(
        view: _ViewIndex, stored: _StoredDocument, emissions: List[Tuple[Any, Any]]
    ) -> List[Tuple[Any, Any]]:
        """*emissions* (the index's stripped rows for *stored*) with labels.

        The view being served supplies them: its map output over the
        labelled document, one per-revision form, pairs with the index
        **by position** — the n-th row is the n-th labelled emission, so
        two emissions that strip equal keep their own labels and no
        other view is ever consulted. A row whose partner is missing or
        does not strip back to it (a map that behaves differently on
        labelled input) fails closed: key and value alike carry every
        confidentiality label in the document and none of its integrity
        labels (integrity is a claim; nobody checked it for this row).
        """
        labelled = stored.form(view.labelled_emissions)
        rows = []
        for position, stripped in enumerate(emissions):
            row = labelled[position] if position < len(labelled) else None
            if row is None or (strip_labels(row[0]), strip_labels(row[1])) != stripped:
                union = LabelSet(stored.labels.confidentiality)
                row = (with_labels(stripped[0], union), with_labels(stripped[1], union))
            rows.append(row)
        return rows

    def _index_one(self, view: _ViewIndex, stored: _StoredDocument, document: Any) -> None:
        """(Re-)index one revision into one view; tombstones invalidate.

        *document* is ``_map_input(stored)``. Must run under :attr:`_lock`.
        """
        doc_id = stored.doc_id
        emissions = []
        if not stored.deleted:
            try:
                for emitted_key, emitted_value in view.map_function(document):
                    emissions.append((strip_labels(emitted_key), strip_labels(emitted_value)))
            except Exception:
                # CouchDB semantics: a map function that fails on a document,
                # however it fails, emits nothing for it (the write stands).
                emissions = []
        previous = view.rows.get(doc_id, ())
        if emissions:
            view.rows[doc_id] = emissions
        elif previous:
            del view.rows[doc_id]
        else:
            return  # was not in this view, still is not
        if _same_key_slots(previous, emissions):
            return
        for emitted_key, _value in previous:
            if _is_hashable(emitted_key):
                docs = view.by_key.get(emitted_key)
                if docs is not None:
                    docs.discard(doc_id)
                    if not docs:
                        del view.by_key[emitted_key]
        view.unhashable_docs.discard(doc_id)
        for emitted_key, _value in emissions:
            if _is_hashable(emitted_key):
                view.by_key.setdefault(emitted_key, set()).add(doc_id)
            else:
                view.unhashable_docs.add(doc_id)

    # -- changes feed ------------------------------------------------------------------

    @property
    def update_seq(self) -> int:
        """The last sequence this database recorded (store-wide when sharded)."""
        with self._lock:
            return self._seq

    def _record_change(self, change: Change) -> None:
        """Make *change* its document's one feed entry, at the end."""
        self._changes.pop(change.doc_id, None)
        self._changes[change.doc_id] = change

    def changes(self, since: int = 0) -> List[Change]:
        """Changes after sequence *since*, deduplicated to the latest per doc."""
        recent: List[Change] = []
        with self._lock:
            for change in reversed(self._changes.values()):
                if change.seq <= since:
                    break
                recent.append(change)
        recent.reverse()
        return recent

    def raw_document(self, doc_id: str) -> Optional[_StoredDocument]:
        """The stored form (replication reads this to push body+sidecar)."""
        with self._lock:
            return self._documents.get(doc_id)

    def raw_documents(self, doc_ids: Sequence[str]) -> List[Optional[_StoredDocument]]:
        """Stored forms for a batch of ids under one lock acquisition."""
        with self._lock:
            return [self._documents.get(doc_id) for doc_id in doc_ids]

    # -- maintenance -------------------------------------------------------------

    def document_labels(self, doc_id: str) -> Any:
        """The combined label set of a stored document."""
        document = self.get(doc_id)
        return labels_of({k: v for k, v in document.items() if k not in ("_id", "_rev")})


class ShardedDatabase:
    """N :class:`Database` shards behind the single-database API.

    Document ids are hash-partitioned (CRC-32, stable across processes)
    over the shards; every shard draws sequence numbers from one shared
    :class:`SequenceAllocator`, so the merged changes feed is globally
    monotonic and :meth:`all_doc_ids` ordering matches a single
    database holding the same writes. Per-shard locks mean concurrent
    writers on different shards never contend.

    Reads merge shard results deterministically: view rows ascend by
    document id (emissions in map order), changes ascend by sequence,
    document ids ascend by insertion sequence — all byte-identical to
    the sequential seed store (see ``tests/property/test_sharded_store.py``).
    """

    def __init__(self, name: str, shards: int = 8, read_only: bool = False):
        if shards < 1:
            raise SafeWebError("a sharded database needs at least one shard")
        self.name = name
        self.read_only = read_only
        self._sequence = SequenceAllocator()
        self.shards: Tuple[Database, ...] = tuple(
            Database(f"{name}/shard-{index}", read_only=read_only, sequence=self._sequence)
            for index in range(shards)
        )

    def shard_for(self, doc_id: str) -> Database:
        """The shard owning *doc_id* (CRC-32 of the UTF-8 id, modulo N)."""
        return self.shards[zlib.crc32(doc_id.encode("utf-8")) % len(self.shards)]

    # -- writes ----------------------------------------------------------------

    def put(self, document: Dict[str, Any]) -> Dict[str, Any]:
        if "_id" not in document:
            raise SafeWebError("document requires an _id")
        return self.shard_for(strip_labels(str(document["_id"]))).put(document)

    def upsert(self, document: Dict[str, Any]) -> Dict[str, Any]:
        if "_id" not in document:
            raise SafeWebError("document requires an _id")
        return self.shard_for(strip_labels(str(document["_id"]))).upsert(document)

    def delete(self, doc_id: str, rev: str) -> Dict[str, Any]:
        return self.shard_for(doc_id).delete(doc_id, rev)

    def replication_put(
        self,
        doc_id: str,
        rev: str,
        body: Any,
        sidecar: Dict[str, List[str]],
        deleted: bool = False,
    ) -> None:
        self.shard_for(doc_id).replication_put(doc_id, rev, body, sidecar, deleted)

    def replication_put_batch(self, entries: Iterable) -> int:
        # Entries apply in feed order — consecutive same-shard runs share
        # a lock acquisition, but a run commits before the next shard's
        # begins, so documents are created here in the order the feed
        # presents them, whatever the shard count on either side (see
        # the all_doc_ids docstring for the replica-ordering caveat).
        applied = 0
        run: List[Any] = []
        current: Optional[Database] = None
        for entry in entries:
            doc_id = entry.doc_id if isinstance(entry, _StoredDocument) else entry[0]
            shard = self.shard_for(doc_id)
            if shard is not current and run:
                applied += current.replication_put_batch(run)
                run = []
            current = shard
            run.append(entry)
        if run:
            applied += current.replication_put_batch(run)
        return applied

    # -- change listeners --------------------------------------------------------

    def add_change_listener(self, listener: Callable[[List[Change]], None]) -> None:
        for shard in self.shards:
            shard.add_change_listener(listener)

    # -- reads ------------------------------------------------------------------

    def get(self, doc_id: str) -> Dict[str, Any]:
        return self.shard_for(doc_id).get(doc_id)

    def get_or_none(self, doc_id: str) -> Optional[Dict[str, Any]]:
        return self.shard_for(doc_id).get_or_none(doc_id)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self.shard_for(doc_id)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def all_doc_ids(self) -> List[str]:
        """Live ids in stable insertion order, merged across shards.

        The order key is the store-wide sequence each document was
        created at, so the result is identical to an unsharded database
        holding the same write history (see :meth:`Database.all_doc_ids`).
        """
        return [doc.doc_id for doc in _in_creation_order(self._live())]

    def _live(self) -> List[_StoredDocument]:
        return [doc for shard in self.shards for doc in shard._live()]

    def all_docs(self) -> List[Dict[str, Any]]:
        """Live documents, labels re-attached, in :meth:`all_doc_ids` order."""
        return [doc.document() for doc in _in_creation_order(self._live())]

    # -- views ---------------------------------------------------------------------

    def define_view(self, name: str, map_function: MapFunction) -> None:
        """Register a view on every shard (same incremental index per shard)."""
        for shard in self.shards:
            shard.define_view(name, map_function)

    def view(
        self,
        name: str,
        key: Any = None,
        include_docs: bool = False,
        clearance: Optional[LabelSet] = None,
    ) -> List[ViewRow]:
        """Query a view across all shards (see :meth:`Database.view`).

        Rows are merged in ascending document-id order (shards hold
        disjoint ids, so a k-way merge of per-shard sorted rows is
        exact).
        """
        shard_rows = [
            shard.view(name, key=key, include_docs=include_docs, clearance=clearance)
            for shard in self.shards
        ]
        merged: List[ViewRow] = []
        for rows in shard_rows:
            merged.extend(rows)
        merged.sort(key=_row_doc_id)
        return merged

    # -- changes feed ------------------------------------------------------------------

    @property
    def update_seq(self) -> int:
        """The store-wide sequence (total writes across every shard)."""
        return self._sequence.value

    def changes(self, since: int = 0) -> List[Change]:
        """Merged changes feed after *since*, ascending by global sequence.

        Shards hold disjoint documents and share the sequence allocator,
        so per-shard deduplicated feeds concatenate into one globally
        deduplicated, strictly increasing feed.
        """
        merged: List[Change] = []
        for shard in self.shards:
            merged.extend(shard.changes(since=since))
        merged.sort(key=lambda change: change.seq)
        return merged

    def raw_document(self, doc_id: str) -> Optional[_StoredDocument]:
        return self.shard_for(doc_id).raw_document(doc_id)

    def raw_documents(self, doc_ids: Sequence[str]) -> List[Optional[_StoredDocument]]:
        return [self.shard_for(doc_id).raw_document(doc_id) for doc_id in doc_ids]

    # -- maintenance -------------------------------------------------------------

    def document_labels(self, doc_id: str) -> Any:
        return self.shard_for(doc_id).document_labels(doc_id)


def _row_doc_id(row: ViewRow) -> str:
    return row.doc_id


#: Either database flavour — everything downstream (models, replication,
#: storage units, the portal) is written against this common surface.
DocumentDatabase = Union[Database, ShardedDatabase]


def make_database(name: str, read_only: bool = False, shards: int = 1) -> DocumentDatabase:
    """The one construction dispatch: ``shards > 1`` yields a
    :class:`ShardedDatabase`, else a plain :class:`Database`."""
    if shards > 1:
        return ShardedDatabase(name, shards=shards, read_only=read_only)
    return Database(name, read_only=read_only)

