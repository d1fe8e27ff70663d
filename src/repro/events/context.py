"""The ambient label set of a running callback (paper §4.3, "Label tracking").

The engine associates a set of labels with the execution of each unit
callback — the paper's ``_LABELS`` — initialised to the labels of the
event being processed. Reading from the labelled key-value store widens
it; publishing stamps it onto outgoing events.

The set is tracked per thread with an explicit stack so nested contexts
(e.g. a privileged unit synchronously draining a queue) restore cleanly.

Deliveries run on whichever thread delivers them — the publisher, a
STOMP connection's handler, an HTTP worker, a cluster worker's bridge
listener — and each pushes the event's labels with :func:`enter_labels`
and pops them on exit, so a thread holds no ambient labels between
deliveries and two threads' ambient sets can never bleed into each other
(see docs/ENGINE.md).
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional

from repro.core.labels import Label, LabelSet

_state = threading.local()


def _stack() -> list:
    stack = getattr(_state, "stack", None)
    if stack is None:
        stack = []
        _state.stack = stack
    return stack


def enter_labels(labels: LabelSet) -> list:
    """Push *labels* as the calling thread's ambient set.

    Returns the thread's stack; the caller restores the previous set
    with ``stack.pop()`` (in a ``finally``). The engine enters one per
    delivery this way, without a :class:`LabelContext` object.
    """
    stack = _stack()
    stack.append(labels)
    return stack


def current_labels() -> LabelSet:
    """The ambient ``_LABELS`` of the calling thread (empty outside callbacks)."""
    stack = _stack()
    if not stack:
        return LabelSet()
    return stack[-1]


def extend_labels(labels: LabelSet | Iterable[Label | str]) -> LabelSet:
    """Widen the ambient set by plain union; returns the new set."""
    stack = _stack()
    if not stack:
        raise RuntimeError("no active label context; extend_labels must run inside a callback")
    if not isinstance(labels, LabelSet):
        labels = LabelSet(labels)
    stack[-1] = stack[-1].union(labels)
    return stack[-1]


def combine_ambient(labels: LabelSet | Iterable[Label | str]) -> LabelSet:
    """Fold read data into the ambient set with §4.1 combination rules.

    Confidentiality widens (union); integrity narrows (intersection) —
    reading unendorsed data makes everything derived afterwards
    unendorsed too. Store reads use this, not :func:`extend_labels`.
    """
    stack = _stack()
    if not stack:
        raise RuntimeError("no active label context; combine_ambient must run inside a callback")
    if not isinstance(labels, LabelSet):
        labels = LabelSet(labels)
    stack[-1] = stack[-1].combine(labels)
    return stack[-1]


class LabelContext:
    """Context manager establishing the ambient label set for a callback.

    >>> with LabelContext(event.labels):
    ...     handler(event)
    """

    __slots__ = ("_initial",)

    def __init__(self, initial: Optional[LabelSet] = None):
        self._initial = initial if initial is not None else LabelSet()

    def __enter__(self) -> "LabelContext":
        enter_labels(self._initial)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _stack().pop()

    @property
    def labels(self) -> LabelSet:
        return current_labels()
