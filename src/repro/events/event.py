"""Labelled events (paper §4.1).

Events consist of a set of key-value attribute pairs and an optional data
payload; keys, values and the body are untyped strings. SafeWeb
associates a set of security labels with each event. Instances are
immutable: derivation (the engine's publish path) builds new events whose
labels follow the §4.1 composition rules.
"""

from __future__ import annotations

import itertools
import json
import time
from typing import Dict, Iterable, Mapping, Optional

from repro.core.labels import Label, LabelSet
from repro.exceptions import SafeWebError

_event_ids = itertools.count(1)


class Event:
    """An immutable labelled event."""

    __slots__ = ("topic", "attributes", "payload", "labels", "event_id", "timestamp")

    def __init__(
        self,
        topic: str,
        attributes: Optional[Mapping[str, str]] = None,
        payload: Optional[str] = None,
        labels: LabelSet | Iterable[Label | str] = (),
        event_id: Optional[int] = None,
        timestamp: Optional[float] = None,
    ):
        if not topic or not topic.startswith("/"):
            raise SafeWebError(f"event topic must start with '/': {topic!r}")
        coerced: Dict[str, str] = {}
        for key, value in (attributes or {}).items():
            coerced[str(key)] = str(value)
        object.__setattr__(self, "topic", topic)
        object.__setattr__(self, "attributes", coerced)
        object.__setattr__(self, "payload", None if payload is None else str(payload))
        if not isinstance(labels, LabelSet):
            # Interned constructor: an empty iterable resolves to the
            # canonical empty set, a repeated label vocabulary to the
            # same canonical instances — event creation allocates no
            # per-event label state on the hot publish path.
            labels = LabelSet(labels) if labels else LabelSet.empty()
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "event_id", event_id if event_id is not None else next(_event_ids))
        object.__setattr__(self, "timestamp", timestamp if timestamp is not None else time.time())

    def __setattr__(self, name, value):
        raise AttributeError("Event instances are immutable")

    def __delattr__(self, name):
        raise AttributeError("Event instances are immutable")

    # -- access --------------------------------------------------------------

    def __getitem__(self, key: str) -> str:
        """Attribute access mirroring the paper's ``event[:patient_id]``."""
        return self.attributes[str(key)]

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        return self.attributes.get(str(key), default)

    def __contains__(self, key: str) -> bool:
        return str(key) in self.attributes

    # -- derivation ------------------------------------------------------------

    def with_labels(self, labels: LabelSet) -> "Event":
        """A copy carrying exactly *labels* (enforcement done by callers)."""
        return Event(
            self.topic,
            self.attributes,
            self.payload,
            labels,
            timestamp=self.timestamp,
        )

    def relabelled(
        self,
        add: Iterable[Label | str] = (),
        remove: Iterable[Label | str] = (),
    ) -> "Event":
        """A copy with labels added/removed — the engine checks privileges."""
        return self.with_labels(self.labels.add(*add).remove(*remove))

    # -- comparison helpers ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (
            self.topic == other.topic
            # Interned label sets compare by identity first, so checking
            # labels before the attribute dict is the cheap order.
            and self.labels == other.labels
            and self.attributes == other.attributes
            and self.payload == other.payload
        )

    def __hash__(self) -> int:
        return hash((self.topic, tuple(sorted(self.attributes.items())), self.payload, self.labels))

    def __repr__(self) -> str:
        return (
            f"Event(topic={self.topic!r}, attributes={self.attributes!r}, "
            f"labels={self.labels.to_uris()})"
        )

    # -- serialisation -------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "topic": self.topic,
            "attributes": dict(self.attributes),
            "payload": self.payload,
            "labels": self.labels.to_uris(),
            "timestamp": self.timestamp,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Event":
        return cls(
            topic=str(data["topic"]),
            attributes=dict(data.get("attributes") or {}),
            payload=data.get("payload"),
            labels=LabelSet.from_uris(data.get("labels") or []),
            timestamp=data.get("timestamp"),
        )

    @classmethod
    def from_json(cls, text: str) -> "Event":
        return cls.from_dict(json.loads(text))


def as_events(items: Iterable[Event | Mapping[str, object]]) -> list[Event]:
    """A publish batch as events: :class:`Event` instances pass through,
    mappings with ``topic`` / ``attributes`` / ``payload`` / ``labels``
    keys are built (the ingress shape every engine's ``publish_batch``
    accepts)."""
    return [
        item
        if isinstance(item, Event)
        else Event(
            item["topic"],
            item.get("attributes"),
            item.get("payload"),
            item.get("labels", ()),
        )
        for item in items
    ]
