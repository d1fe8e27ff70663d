"""The unit-specific labelled key-value store (paper §4.3).

Stateful units keep state between callbacks through a key-value store
whose keys carry label sets:

* **reading** a key widens the ambient ``_LABELS`` of the running
  callback with the key's labels — state is as confidential as what was
  stored under it;
* **writing** a key stamps the current ambient labels onto it, with
  optional add/remove sets mirroring the publish call; removal requires
  the unit's declassification privilege.

Values are frozen on write and thawed into a fresh copy on every read
(:func:`_frozen`), so a jailed callback never holds a reference into state.
"""

from __future__ import annotations

import pickle
import threading
from copy import deepcopy
from io import BytesIO
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.audit import AuditLog, default_audit_log
from repro.core.labels import Label, LabelSet
from repro.core.principals import UnitPrincipal
from repro.events.context import combine_ambient, current_labels
from repro.exceptions import DeclassificationError, EndorsementError
from repro.taint.labeled import PLAIN_TYPES

_MISSING = object()


class _PlainPickler(pickle.Pickler):
    """The C pickler saves exact plain data itself and asks this hook about
    every other object, which it refuses."""

    def reducer_override(self, obj: Any) -> Any:
        raise pickle.PicklingError(f"{type(obj).__name__} is not plain data")


def _as_is(value: Any) -> Any:
    return value


def _frozen(value: Any) -> Tuple[Callable[[Any], Any], Any]:
    """``(thaw, frozen)`` with ``thaw(frozen)`` equal to ``copy.deepcopy(value)``.

    A plain scalar is kept as is; other plain data becomes pickle bytes that
    name no global, so ``pickle.loads`` imports nothing and raises no audit
    event in the jail. Anything else is kept and thawed by ``deepcopy``.
    Protocol 4: protocol 5 saves a ``PickleBuffer``, which ``deepcopy``
    refuses, as bytes.
    """
    if type(value) in PLAIN_TYPES:
        return _as_is, value
    buffer = BytesIO()
    try:
        _PlainPickler(buffer, 4).dump(value)
    except Exception:  # refused or failed: deepcopy decides, and raises its own error
        return deepcopy, deepcopy(value)
    return pickle.loads, buffer.getvalue()


class LabeledStore:
    """Per-unit key-value store with per-key label sets."""

    def __init__(self, principal: UnitPrincipal, audit: Optional[AuditLog] = None):
        self._principal = principal
        self._audit = audit if audit is not None else default_audit_log()
        self._lock = threading.Lock()
        #: key → ``(thaw, frozen, labels)``; see :func:`_frozen`.
        self._entries: Dict[str, Tuple[Callable[[Any], Any], Any, LabelSet]] = {}

    # -- reads -------------------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        """Read a value; the key's labels join the ambient label set."""
        with self._lock:
            entry = self._entries.get(key, _MISSING)
        if entry is _MISSING:
            return default
        thaw, frozen, labels = entry
        self._taint_ambient(labels)
        return thaw(frozen)

    def labels_for(self, key: str) -> LabelSet:
        """The labels on *key* without reading the value (no ambient widening)."""
        with self._lock:
            entry = self._entries.get(key, _MISSING)
        if entry is _MISSING:
            return LabelSet()
        return entry[2]

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- writes --------------------------------------------------------------

    def set(
        self,
        key: str,
        value: Any,
        add: Iterable[Label | str] = (),
        remove: Iterable[Label | str] = (),
    ) -> LabelSet:
        """Write a value; ambient labels (±add/remove) become the key's labels.

        Removing confidentiality labels requires declassification
        privilege; adding integrity labels requires endorsement — the
        same rules as the engine's publish call (§4.3).
        """
        labels = self._checked_labels(current_labels(), add, remove, operation="store.set")
        thaw, frozen = _frozen(value)
        entry = (thaw, frozen, labels)
        with self._lock:
            self._entries[key] = entry
        return labels

    def delete(self, key: str) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # -- internals ------------------------------------------------------------

    def _taint_ambient(self, labels: LabelSet) -> None:
        try:
            combine_ambient(labels)
        except RuntimeError:
            # Outside a callback (e.g. engine bootstrap); nothing to widen.
            pass

    def _checked_labels(
        self,
        base: LabelSet,
        add: Iterable[Label | str],
        remove: Iterable[Label | str],
        operation: str,
    ) -> LabelSet:
        """Apply ±add/remove to *base* with the engine's publish semantics.

        Declassification privilege is demanded only for the *effective*
        removals — labels actually present on the base set — and removal
        is applied before addition (difference-then-union), so a label
        listed in both ``add`` and ``remove`` survives, exactly as it
        does on the engine's publish path (§4.3). The seed demanded
        privilege for the full remove set (denying writes over labels
        the key never carried) and computed union-then-difference
        (stripping add∩remove), so the two enforcement points disagreed.
        """
        if not add and not remove:
            return base  # nothing to declassify or endorse
        add_set = LabelSet(add)
        remove_set = LabelSet(remove)
        privileges = self._principal.privileges
        effective_removals = base.intersection(remove_set)
        missing = privileges.missing_declassification(effective_removals)
        if missing:
            self._audit.denied(
                "store",
                operation,
                self._principal.name,
                labels=LabelSet(missing),
                detail="declassification denied",
            )
            raise DeclassificationError(
                f"unit {self._principal.name!r} lacks declassification for "
                f"{sorted(label.uri for label in missing)}"
            )
        if add_set.integrity and not privileges.can_endorse(add_set):
            self._audit.denied(
                "store",
                operation,
                self._principal.name,
                labels=LabelSet(add_set.integrity),
                detail="endorsement denied",
            )
            raise EndorsementError(
                f"unit {self._principal.name!r} lacks endorsement for "
                f"{sorted(label.uri for label in add_set.integrity)}"
            )
        return base.difference(remove_set).union(add_set)
