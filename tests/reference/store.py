"""The seed document store, preserved as an executable specification.

:class:`ReferenceDatabase` is the original single-dict store this repo
seeded with: full-scan view reads, per-row relabeling of labeled view
rows at query time, doc-at-a-time replication input. The production
store (:mod:`repro.storage.docstore`) replaced it with sharding and
incremental indexes, but its *enforcement semantics* — which rows a
reader sees, which labels they carry, how ``update_seq`` advances —
are pinned to this implementation:

* ``tests/property/test_sharded_store.py`` drives random operation
  sequences through both stores and asserts identical results;
* ``tests/property/test_crash_recovery.py`` uses it the same way for
  durability: a store recovered after a simulated crash must be
  observation-equivalent to this class replaying a prefix of the
  acknowledged write history. The reference itself stays purely
  in-memory — it is the specification recovery is judged against,
  never a durable store.

Do not "improve" this module; it is deliberately the slow, obviously
correct version (the same role ``tests/reference/topics.py`` plays for
the topic trie). Correcting it is a different matter: the seed
relabelled a view row by searching *every* view for a matching stripped
emission, which handed rows another view's labels or none — a bug the
production store copied faithfully and no equivalence suite could see.
Rows are now labelled by the view that emitted them, here and there.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.labels import LabelSet, parse_label
from repro.exceptions import DocumentConflict, DocumentNotFound, ReadOnlyError, SafeWebError
from repro.storage.docstore import Change, ViewRow, _next_rev, _StoredDocument
from repro.taint import json_codec
from repro.taint.labeled import labels_of, strip_labels, with_labels


class ReferenceDatabase:
    """The seed :class:`~repro.storage.docstore.Database` (view relabelling
    corrected, see the module docstring)."""

    def __init__(self, name: str, read_only: bool = False):
        self.name = name
        self.read_only = read_only
        self._lock = threading.RLock()
        self._documents: Dict[str, _StoredDocument] = {}
        self._seq = 0
        self._changes: List[Change] = []
        # view name -> (map function, doc_id -> [(key, value)])
        self._views: Dict[str, Tuple[Callable, Dict[str, List[Tuple[Any, Any]]]]] = {}

    # -- writes ----------------------------------------------------------------

    def put(self, document: Dict[str, Any]) -> Dict[str, Any]:
        self._guard_writable()
        if "_id" not in document:
            raise SafeWebError("document requires an _id")
        doc_id = strip_labels(str(document["_id"]))
        presented_rev = document.get("_rev")
        body = {k: v for k, v in document.items() if k not in ("_id", "_rev")}
        plain, sidecar = json_codec.encode_document(body)
        canonical = json.dumps(plain, sort_keys=True)

        with self._lock:
            existing = self._documents.get(doc_id)
            if existing is not None and not existing.deleted:
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
            stored = _StoredDocument(doc_id, rev, plain, sidecar)
            self._documents[doc_id] = stored
            self._record_change(stored)
            self._index_document(stored)
        return {"id": doc_id, "rev": rev}

    def delete(self, doc_id: str, rev: str) -> Dict[str, Any]:
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
            self._documents[doc_id] = stored
            self._record_change(stored)
            self._index_document(stored)
        return {"id": doc_id, "rev": tombstone_rev}

    def replication_put(
        self,
        doc_id: str,
        rev: str,
        body: Any,
        sidecar: Dict[str, List[str]],
        deleted: bool = False,
    ) -> None:
        with self._lock:
            stored = _StoredDocument(doc_id, rev, body, dict(sidecar), deleted)
            self._documents[doc_id] = stored
            self._record_change(stored)
            self._index_document(stored)

    def _guard_writable(self) -> None:
        if self.read_only:
            raise ReadOnlyError(
                f"database {self.name!r} is read-only (S1: DMZ replicas reject writes)"
            )

    # -- reads ------------------------------------------------------------------

    def get(self, doc_id: str) -> Dict[str, Any]:
        with self._lock:
            stored = self._documents.get(doc_id)
        if stored is None or stored.deleted:
            raise DocumentNotFound(f"no document {doc_id!r}")
        body = json_codec.decode_document(stored.body, stored.sidecar)
        result = dict(body)
        result["_id"] = stored.doc_id
        result["_rev"] = stored.rev
        return result

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
        """Seed ordering: lexicographic by id (the production store
        switched to stable insertion order; see
        :meth:`repro.storage.docstore.Database.all_doc_ids`)."""
        with self._lock:
            return sorted(
                doc_id for doc_id, doc in self._documents.items() if not doc.deleted
            )

    def all_docs(self) -> List[Dict[str, Any]]:
        return [self.get(doc_id) for doc_id in self.all_doc_ids()]

    # -- views ---------------------------------------------------------------------

    def define_view(self, name: str, map_function: Callable[[Dict[str, Any]], Iterable]) -> None:
        with self._lock:
            index: Dict[str, List[Tuple[Any, Any]]] = {}
            self._views[name] = (map_function, index)
            for stored in self._documents.values():
                self._index_one(name, stored)

    def view(
        self,
        name: str,
        key: Any = None,
        include_docs: bool = False,
    ) -> List[ViewRow]:
        with self._lock:
            if name not in self._views:
                raise DocumentNotFound(f"no view {name!r} in database {self.name!r}")
            map_function, index = self._views[name]
            rows: List[ViewRow] = []
            for doc_id in sorted(index):
                emissions = index[doc_id]
                if not include_docs:
                    emissions = self._labelled_rows(map_function, doc_id, emissions)
                for emitted_key, emitted_value in emissions:
                    if key is not None and emitted_key != key:
                        continue
                    rows.append(ViewRow(doc_id, emitted_key, emitted_value))
        if include_docs:
            return [ViewRow(row.doc_id, row.key, self.get(row.doc_id)) for row in rows]
        return rows

    def _labelled_rows(
        self, map_function: Callable, doc_id: str, emissions: List[Tuple[Any, Any]]
    ) -> List[Tuple[Any, Any]]:
        """The rows *this view* indexed for a document, labels re-attached.

        The view's own map runs again over the labelled document (body
        plus ``_id``, what it saw at index time) and its n-th emission
        labels the n-th indexed row. A row whose partner is missing or
        strips to something else carries every confidentiality label in
        the document instead — never none.
        """
        stored = self._documents[doc_id]
        if not stored.sidecar:
            return emissions
        labeled = self.get(doc_id)
        del labeled["_rev"]
        try:
            candidates = [(k, v) for k, v in map_function(labeled)]
        except Exception:
            candidates = []
        union = LabelSet(
            uri for uris in stored.sidecar.values() for uri in uris if parse_label(uri).is_confidentiality
        )
        rows = []
        for position, (key, value) in enumerate(emissions):
            if position < len(candidates):
                labeled_key, labeled_value = candidates[position]
                if strip_labels(labeled_key) == key and strip_labels(labeled_value) == value:
                    rows.append((labeled_key, labeled_value))
                    continue
            rows.append((with_labels(key, union), with_labels(value, union)))
        return rows

    def _index_document(self, stored: _StoredDocument) -> None:
        for name in self._views:
            self._index_one(name, stored)

    def _index_one(self, name: str, stored: _StoredDocument) -> None:
        map_function, index = self._views[name]
        index.pop(stored.doc_id, None)
        if stored.deleted:
            return
        emissions = []
        document = dict(stored.body) if isinstance(stored.body, dict) else stored.body
        if isinstance(document, dict):
            document["_id"] = stored.doc_id
        try:
            for emitted in map_function(document):
                emitted_key, emitted_value = emitted
                emissions.append((strip_labels(emitted_key), strip_labels(emitted_value)))
        except Exception:
            # CouchDB semantics: a map function that fails on a document,
            # whatever it raises, emits nothing for it (the write stands).
            emissions = []
        if emissions:
            index[stored.doc_id] = emissions

    # -- changes feed ------------------------------------------------------------------

    def _record_change(self, stored: _StoredDocument) -> None:
        self._seq += 1
        self._changes.append(Change(self._seq, stored.doc_id, stored.rev, stored.deleted))

    @property
    def update_seq(self) -> int:
        with self._lock:
            return self._seq

    def changes(self, since: int = 0) -> List[Change]:
        with self._lock:
            recent = [change for change in self._changes if change.seq > since]
        latest: Dict[str, Change] = {}
        for change in recent:
            latest[change.doc_id] = change
        return sorted(latest.values(), key=lambda change: change.seq)

    def raw_document(self, doc_id: str) -> Optional[_StoredDocument]:
        with self._lock:
            return self._documents.get(doc_id)

    # -- maintenance -------------------------------------------------------------

    def document_labels(self, doc_id: str) -> Any:
        document = self.get(doc_id)
        return labels_of({k: v for k, v in document.items() if k not in ("_id", "_rev")})
