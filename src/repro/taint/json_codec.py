"""JSON encoding/decoding that carries labels across the serialisation gap.

Two distinct needs in the middleware:

1. **Response bodies** (frontend): ``dumps`` serialises a labeled object
   graph and returns a :class:`LabeledStr` carrying the combination of
   every label inside — so the middleware's response-time check sees the
   full confidentiality of the JSON it is about to release (this is
   exactly what makes the §5.2 "omitted access check" injection fail
   safely: ``r.to_json`` stays labeled). A list of stored documents is
   instead the :func:`join_array` of the fragments the document store
   keeps per revision — the same text and labels, nothing re-encoded.

2. **Documents at rest** (application database): labels must survive a
   round trip through plain JSON storage. :func:`encode_document` splits
   a labeled document into a plain JSON document plus a sidecar map of
   RFC 6901 JSON pointers → label URIs; :func:`decode_document` re-labels
   on the way out. The document store uses this pair so the frontend
   transparently receives labeled values (§4.4 step 2).

Both directions are **single-pass**. ``dumps`` fuses the strip and the
label fold into one traversal of the object graph; ``encode_document``
collects the sidecar while stripping; ``decode_document`` compiles the
sidecar into a pointer trie and re-labels the whole document in one walk
instead of one full rebuild per pointer. The results are byte- and
label-identical to the original two-pass implementations (see
``tests/unit/taint/test_json_singlepass.py``).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence, Tuple

from repro.core.labels import EMPTY_LABELS, LabelSet
from repro.taint.labeled import (
    LABELS_ATTR,
    PLAIN_TYPES,
    labels_of,
    plain_scalar,
    strip_labels,
    with_labels,
)
from repro.taint.number import LabeledFloat, LabeledInt
from repro.taint.string import LabeledBytes, LabeledStr, derive


def _strip_collect(value: Any) -> Tuple[Any, LabelSet]:
    """One traversal returning (plain deep copy, combined label set).

    The label fold follows the same §4.1 container rule as
    :func:`~repro.taint.labeled.labels_of`: confidentiality unions over
    every key and value, integrity intersects — so the pair returned is
    exactly ``(strip_labels(value), labels_of(value))`` from one walk.
    """
    if type(value) in PLAIN_TYPES:
        return value, EMPTY_LABELS
    direct = getattr(value, LABELS_ATTR, None)
    if direct is not None:
        return plain_scalar(value), direct
    if isinstance(value, dict):
        labels = None
        plain: Dict[Any, Any] = {}
        for key, item in value.items():
            plain_key, key_labels = _strip_collect(key)
            plain_item, item_labels = _strip_collect(item)
            plain[plain_key] = plain_item
            labels = key_labels if labels is None else labels.combine(key_labels)
            labels = labels.combine(item_labels)
        return plain, (EMPTY_LABELS if labels is None else labels)
    if isinstance(value, (list, tuple, set, frozenset)):
        labels = None
        items = []
        for item in value:
            plain_item, item_labels = _strip_collect(item)
            items.append(plain_item)
            labels = item_labels if labels is None else labels.combine(item_labels)
        rebuilt = items if type(value) is list else type(value)(items)
        return rebuilt, (EMPTY_LABELS if labels is None else labels)
    return value, EMPTY_LABELS


def dumps(value: Any, **kwargs) -> LabeledStr:
    """``json.dumps`` returning a labeled string.

    The result carries the IFC combination of every label in *value*, so
    downstream checks treat the serialised form as confidential as its
    most confidential field. Strip and label fold share one traversal.
    """
    plain, labels = _strip_collect(value)
    text = json.dumps(plain, **kwargs)
    return LabeledStr(text, labels=labels, user_taint=False)


def join_array(fragments: Sequence[str]) -> LabeledStr:
    """The JSON array whose elements are the already-encoded *fragments*.

    Each fragment is the :func:`dumps` text of one element (the document
    store keeps one per stored revision). The result is byte-, label- and
    taint-identical to ``dumps([...])`` over the elements themselves —
    default separators, the same §4.1 list fold (the first element's
    labels, then ``combine``; an empty array carries none), never
    user-tainted — without walking or re-serialising any element.
    """
    labels = None
    for fragment in fragments:
        item_labels = labels_of(fragment)
        labels = item_labels if labels is None else labels.combine(item_labels)
    text = "[" + ", ".join(fragments) + "]"
    return LabeledStr(text, labels=EMPTY_LABELS if labels is None else labels, user_taint=False)


def loads(text: Any, **kwargs) -> Any:
    """``json.loads`` that spreads the labels (and taint) of *text* onto
    the decoded result."""
    from repro.taint.labeled import is_user_tainted

    value = json.loads(text, **kwargs)
    labels = labels_of(text)
    tainted = is_user_tainted(text)
    if labels or tainted:
        return with_labels(value, labels, user_taint=tainted)
    return value


# -- document sidecar encoding (RFC 6901 pointers) ---------------------------


def _escape_pointer_token(token: str) -> str:
    return token.replace("~", "~0").replace("/", "~1")


def _unescape_pointer_token(token: str) -> str:
    return token.replace("~1", "/").replace("~0", "~")


def encode_document(document: Any) -> Tuple[Any, Dict[str, List[str]]]:
    """Split a labeled document into (plain document, pointer → label URIs).

    Only leaves with non-empty label sets appear in the sidecar, keeping
    stored documents compact for mostly-public data. The strip and the
    sidecar collection run in a single traversal of the document.
    """
    sidecar: Dict[str, List[str]] = {}
    plain = _strip_with_pointers(document, "", sidecar)
    return plain, sidecar


def _strip_with_pointers(value: Any, pointer: str, sidecar: Dict[str, List[str]]) -> Any:
    if type(value) in PLAIN_TYPES:
        return value
    direct = getattr(value, LABELS_ATTR, None)
    if direct is not None:
        if direct:
            sidecar[pointer or ""] = direct.to_uris()
        return plain_scalar(value)
    if isinstance(value, dict):
        plain = {}
        for key, item in value.items():
            if type(key) is str and "~" not in key and "/" not in key:
                plain_key = token = key  # is its own stripped form and pointer token
            else:
                plain_key, token = strip_labels(key), _escape_pointer_token(str(key))
            if type(item) in PLAIN_TYPES:
                plain[plain_key] = item
                continue
            direct = getattr(item, LABELS_ATTR, None)
            if direct is None:
                plain[plain_key] = _strip_with_pointers(item, f"{pointer}/{token}", sidecar)
            else:
                if direct:
                    sidecar[f"{pointer}/{token}"] = direct.to_uris()
                plain[plain_key] = plain_scalar(item)
        return plain
    if isinstance(value, (list, tuple)):
        rebuilt = [
            _strip_with_pointers(item, f"{pointer}/{index}", sidecar)
            for index, item in enumerate(value)
        ]
        return rebuilt if type(value) is list else type(value)(rebuilt)
    if isinstance(value, (set, frozenset)):
        # Unordered: no stable pointers exist, so labels inside sets are
        # stripped without sidecar entries (matching the two-pass
        # behaviour; JSON cannot store sets anyway).
        return type(value)(strip_labels(item) for item in value)
    return value


#: Sentinel key marking "labels apply at this trie node"; tokens are
#: strings, so an object() can never collide.
_APPLY = object()


def decode_document(document: Any, sidecar: Dict[str, List[str]]) -> Any:
    """Re-attach labels recorded by :func:`encode_document`.

    The sidecar is compiled into a pointer trie and applied in a single
    walk: each container along any labeled path is copied exactly once,
    instead of once per pointer as the naive fold did. Stale pointers
    (fields removed since encoding) are skipped, like before.
    """
    if not sidecar:
        return document
    trie: Dict[Any, Any] = {}
    for pointer, uris in sidecar.items():
        node = trie
        for token in _parse_pointer(pointer):
            node = node.setdefault(token, {})
        node[_APPLY] = LabelSet.from_uris(uris)
    return _apply_trie(document, trie)


def _parse_pointer(pointer: str) -> List[str]:
    if pointer == "":
        return []
    if not pointer.startswith("/"):
        raise ValueError(f"malformed JSON pointer {pointer!r}")
    return [_unescape_pointer_token(token) for token in pointer.split("/")[1:]]


def _apply_trie(value: Any, node: Dict[Any, Any]) -> Any:
    labels = node.get(_APPLY)
    if labels is not None:
        value = with_labels(value, labels_of(value).union(labels))
        if len(node) == 1:
            return value
    if isinstance(value, dict):
        updated = None
        for token, child in node.items():
            if token is _APPLY or token not in value:
                continue
            if updated is None:
                updated = dict(value)
            updated[token] = _apply_trie(value[token], child)
        return value if updated is None else updated
    if isinstance(value, list):
        updated_list = None
        for token, child in node.items():
            if token is _APPLY:
                continue
            index = int(token)
            if index >= len(value):
                continue
            if updated_list is None:
                updated_list = list(value)
            # Read from the evolving copy, not the original: distinct
            # tokens can alias one index ("0" vs "00"), and their labels
            # must union like the seed's sequential application did.
            updated_list[index] = _apply_trie(updated_list[index], child)
        return value if updated_list is None else updated_list
    return value


#: Exact types known to be immutable leaves: a container holding nothing
#: else is copied by the built-in shallow copy.
_LEAF_TYPES = PLAIN_TYPES | {LabeledStr, LabeledBytes, LabeledInt, LabeledFloat}


def copy_containers(value: Any) -> Any:
    """A copy of *value* that shares no mutable state with it.

    ``dict``/``list``/``tuple`` containers — everything a stored JSON
    body or :func:`decode_document` can produce — are rebuilt at every
    depth; leaves (plain or labeled scalars, immutable either way) are
    shared. The document store hands this out on every read so a caller
    can mutate its result without touching the stored revision.
    """
    if isinstance(value, dict):
        if _LEAF_TYPES.issuperset(map(type, value.values())):
            return dict(value)
        return {key: copy_containers(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        if _LEAF_TYPES.issuperset(map(type, value)):
            return value if type(value) is tuple else list(value)
        rebuilt = [copy_containers(item) for item in value]
        return tuple(rebuilt) if isinstance(value, tuple) else rebuilt
    return value


def to_json(value: Any, **kwargs) -> LabeledStr:
    """Alias matching the paper's ``r.to_json`` idiom (Listing 2, line 8)."""
    return dumps(value, **kwargs)
