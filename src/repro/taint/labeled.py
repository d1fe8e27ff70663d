"""Label introspection and wrapping for arbitrary Python values.

The functions here are the public seam between labeled values and the rest
of the middleware: enforcement code calls :func:`labels_of` to read the
labels on anything (labeled scalar, container of labeled scalars, plain
value), and boundary code calls :func:`with_labels` / :func:`label` to
wrap values fetched from labeled storage.

Hot-path discipline: the dominant operands in a real page render are
plain built-in scalars and labeled scalars. Both are resolved without
allocating — a plain scalar is recognised by exact type, a labeled scalar
hands back its interned :class:`~repro.core.labels.LabelSet` directly —
and the §4.1 fold over containers walks lazily, short-circuiting through
the interned-set fast paths when everything is unlabeled.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Iterable, Tuple

from repro.core.labels import EMPTY_LABELS, Label, LabelSet, combine_pair

#: Attribute name that marks a labeled value. Kept obscure enough not to
#: collide with application attributes, stable enough to test against.
LABELS_ATTR = "_safeweb_labels"
TAINT_ATTR = "_safeweb_user_taint"

#: Exact built-in scalar types that can never carry labels or taint.
#: (Their *labeled subclasses* fail the exact-type test and take the
#: attribute path instead.)
PLAIN_TYPES = frozenset({str, bytes, int, float, bool, type(None)})

_CONTAINER_TYPES = (list, tuple, set, frozenset)


def is_labeled(value: Any) -> bool:
    """True when *value* itself carries a label set (not via contents)."""
    return hasattr(type(value), "__safeweb_labeled__")


def labels_of(value: Any) -> LabelSet:
    """The label set carried by *value*.

    Scalars report their own labels. Containers (list/tuple/set/dict)
    report the IFC *combination* of their contents — confidentiality
    labels union, integrity labels intersect — because releasing a
    container releases everything in it. Plain values report the empty
    set.
    """
    if type(value) in PLAIN_TYPES:
        return EMPTY_LABELS
    direct = getattr(value, LABELS_ATTR, None)
    if direct is not None:
        return direct
    if isinstance(value, dict):
        return _combined_labels(chain(value.keys(), value.values()))
    if isinstance(value, _CONTAINER_TYPES):
        return _combined_labels(value)
    return EMPTY_LABELS


def is_user_tainted(value: Any) -> bool:
    """True when *value* (or any contained value) is unsanitised user input."""
    if type(value) in PLAIN_TYPES:
        return False
    if getattr(value, TAINT_ATTR, False):
        return True
    if isinstance(value, dict):
        return any(is_user_tainted(v) for v in chain(value.keys(), value.values()))
    if isinstance(value, _CONTAINER_TYPES):
        return any(is_user_tainted(item) for item in value)
    return False


def _combined_labels(values: Iterable[Any]) -> LabelSet:
    """Fold the §4.1 combination over *values*, lazily.

    A single labeled item returns its interned set unchanged; an
    all-unlabeled run folds the empty singleton through identity fast
    paths without allocating a set per step.
    """
    result = None
    for item in values:
        labels = labels_of(item)
        result = labels if result is None else combine_pair(result, labels)
    return EMPTY_LABELS if result is None else result


def combine_sources(*values: Any) -> Tuple[LabelSet, bool]:
    """The (labels, user_taint) a value derived from *values* must carry.

    Confidentiality labels are sticky (union), integrity labels fragile
    (intersection), and the user-taint bit is sticky — exactly the §4.1
    composition rules plus Ruby's taint semantics. Single pass: labels
    and taint are resolved together, and exact plain scalars contribute
    the interned empty set without any attribute probing.
    """
    labels = None
    taint = False
    for value in values:
        if type(value) in PLAIN_TYPES:
            item = EMPTY_LABELS
        else:
            item = getattr(value, LABELS_ATTR, None)
            if item is not None:
                if not taint and getattr(value, TAINT_ATTR, False):
                    taint = True
            else:
                item = labels_of(value)
                if not taint and is_user_tainted(value):
                    taint = True
        labels = item if labels is None else combine_pair(labels, item)
    return (EMPTY_LABELS if labels is None else labels), taint


def label(value: Any, *labels: Label | str) -> Any:
    """Attach additional labels to *value*, wrapping it if necessary.

    Adding confidentiality labels never requires privilege (§4.1).
    Containers are labeled leaf-by-leaf so later slicing and indexing
    preserve per-value granularity.
    """
    return with_labels(value, labels_of(value).add(*labels))


#: Exact built-in scalar type -> its labelled subclass, in ladder order; filled by
#: the first :func:`with_labels` call (``taint.string``/``number`` import this module).
_LABELED_TYPES: dict = {}


def _resolve_labeled_types() -> dict:
    from repro.taint.number import LabeledFloat, LabeledInt
    from repro.taint.string import LabeledBytes, LabeledStr

    _LABELED_TYPES.update({str: LabeledStr, bytes: LabeledBytes, int: LabeledInt, float: LabeledFloat})
    return _LABELED_TYPES


def with_labels(value: Any, labels: LabelSet, user_taint: bool | None = None) -> Any:
    """Return *value* rewrapped to carry exactly *labels*.

    Supported scalars: ``str``, ``bytes``, ``int``, ``float`` (and their
    labeled variants). ``bool`` and ``None`` cannot carry labels in
    CPython (``bool`` cannot be subclassed); they pass through unchanged,
    which is safe for the boolean itself but means code must not encode
    secrets in ``bool``/``None`` — the same granularity floor the paper
    has for Ruby's ``nil``/``true``/``false``. Containers are rebuilt
    with every leaf labeled.
    """
    wrappers = _LABELED_TYPES or _resolve_labeled_types()
    wrapper = wrappers.get(type(value))
    if wrapper is not None:
        # Never user-tainted: the constructors read ``None`` as False.
        return wrapper(value, labels, user_taint)
    if user_taint is None:
        user_taint = is_user_tainted(value)
    if value is None or isinstance(value, bool):
        return value
    for base, wrapper in wrappers.items():
        if isinstance(value, base):
            return wrapper(value, labels=labels, user_taint=user_taint)
    if isinstance(value, dict):
        # Keys are structural identifiers: they stay unlabeled (matching
        # the document sidecar, which records value labels only), though
        # labels_of still reads any labels a key may carry.
        return {
            k: with_labels(v, labels_of(v).union(labels), is_user_tainted(v) or user_taint)
            for k, v in value.items()
        }
    if isinstance(value, _CONTAINER_TYPES):
        rebuilt = (
            with_labels(item, labels_of(item).union(labels), is_user_tainted(item) or user_taint)
            for item in value
        )
        return type(value)(rebuilt)
    raise TypeError(f"cannot attach labels to {type(value).__name__} values")


def plain_scalar(value: Any) -> Any:
    """An exact built-in copy of a labeled scalar (labels/taint dropped).

    Unbound base-type calls bypass the labeled overrides and, because
    the receiver is a subclass instance, CPython returns a fresh exact
    ``str``/``bytes``/``int``/``float`` rather than the instance itself.
    This is the single unwrap ladder shared by :func:`strip_labels`, the
    JSON codec and the regex pattern cache; unknown scalar shapes pass
    through unchanged.
    """
    if isinstance(value, str):
        return str.__getitem__(value, slice(None))
    if isinstance(value, bytes):
        return bytes.__getitem__(value, slice(None))
    if isinstance(value, float):
        return float.__add__(value, 0.0)
    if isinstance(value, int):
        return int.__add__(value, 0)
    return value


def strip_labels(value: Any) -> Any:
    """A plain copy of *value* with labels and taint removed.

    This performs **no privilege check** — it is for serialisation *after*
    an enforcement point has approved release (e.g. the frontend writes
    the response body once the label check passed). Enforcement code must
    use ``declassify`` helpers on the engine/middleware instead.
    """
    if type(value) in PLAIN_TYPES:
        return value
    if is_labeled(value):
        return plain_scalar(value)
    if isinstance(value, dict):
        return {strip_labels(k): strip_labels(v) for k, v in value.items()}
    if isinstance(value, _CONTAINER_TYPES):
        return type(value)(strip_labels(item) for item in value)
    return value
