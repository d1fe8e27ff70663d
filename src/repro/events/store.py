"""The unit-specific labelled key-value store (paper §4.3).

Stateful units keep state between callbacks through a key-value store
whose keys carry label sets:

* **reading** a key widens the ambient ``_LABELS`` of the running
  callback with the key's labels — state is as confidential as what was
  stored under it;
* **writing** a key stamps the current ambient labels onto it, with
  optional add/remove sets mirroring the publish call; removal requires
  the unit's declassification privilege.

Values are copied on both paths (:func:`_private_copy`) so a jailed callback
can never retain a shared mutable reference that would bypass label tracking.
"""

from __future__ import annotations

import threading
from copy import deepcopy
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.audit import AuditLog, default_audit_log
from repro.core.labels import Label, LabelSet
from repro.core.principals import UnitPrincipal
from repro.events.context import combine_ambient, current_labels
from repro.exceptions import DeclassificationError, EndorsementError
from repro.taint.labeled import PLAIN_TYPES

_MISSING = object()


class _NotAPlainTree(Exception):
    """Raised by :func:`_copy_tree` where only ``deepcopy`` is faithful."""


def _copy_tree(node: Any, seen: set) -> Any:
    kind = type(node)
    mark = id(node)
    if kind not in (dict, list, tuple) or mark in seen:
        raise _NotAPlainTree
    seen.add(mark)
    if kind is dict:
        if not PLAIN_TYPES.issuperset(map(type, node)):
            raise _NotAPlainTree
        return {
            key: item if type(item) in PLAIN_TYPES else _copy_tree(item, seen)
            for key, item in node.items()
        }
    return kind([item if type(item) in PLAIN_TYPES else _copy_tree(item, seen) for item in node])


def _private_copy(value: Any) -> Any:
    """A copy of *value* equal to ``copy.deepcopy(value)`` on every input.

    A *tree* of exact ``dict``/``list``/``tuple`` over exact
    ``PLAIN_TYPES`` leaves and keys — what units store in practice — is
    rebuilt container by container with the immutable leaves shared.
    Anything else (a labelled scalar, which ``deepcopy`` reduces to plain
    so that the per-key labels govern; a ``set``; a container subclass; an
    arbitrary object; a container reached twice, whose aliasing or cycle
    ``deepcopy``'s memo preserves) takes ``copy.deepcopy`` of the whole
    value. Deliberately not ``json_codec.copy_containers``: that shares
    labelled leaves and passes non-JSON values through uncopied because
    the docstore validated JSON at write time; a jailed unit can put
    anything in here.
    """
    if type(value) in PLAIN_TYPES:
        return value
    try:
        return _copy_tree(value, set())
    except _NotAPlainTree:
        return deepcopy(value)


class LabeledStore:
    """Per-unit key-value store with per-key label sets."""

    def __init__(self, principal: UnitPrincipal, audit: Optional[AuditLog] = None):
        self._principal = principal
        self._audit = audit if audit is not None else default_audit_log()
        self._lock = threading.Lock()
        self._entries: Dict[str, Tuple[Any, LabelSet]] = {}

    # -- reads -------------------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        """Read a value; the key's labels join the ambient label set."""
        with self._lock:
            entry = self._entries.get(key, _MISSING)
        if entry is _MISSING:
            return default
        value, labels = entry
        self._taint_ambient(labels)
        return _private_copy(value)

    def labels_for(self, key: str) -> LabelSet:
        """The labels on *key* without reading the value (no ambient widening)."""
        with self._lock:
            entry = self._entries.get(key, _MISSING)
        if entry is _MISSING:
            return LabelSet()
        return entry[1]

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
        entry = (_private_copy(value), labels)
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
