"""Audit log of label checks and security decisions.

SafeWeb's value proposition (§2) is reducing *audit effort*: once the
middleware is trusted, organisations audit its decisions instead of every
application's code path. This module records every enforcement decision —
grants and denials alike — with the principal, operation, labels involved
and the component that made the check, so deployments can demonstrate
compliance after the fact.

The log is process-wide but injectable: components accept an ``audit``
argument and default to :func:`default_audit_log`.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from repro.core.labels import LabelSet

#: Decision outcomes.
ALLOWED = "allowed"
DENIED = "denied"

_record_ids_lock = threading.Lock()
_next_record_id = 1


def _reserve_record_ids(count: int) -> range:
    """*count* consecutive record ids, unique across every log."""
    global _next_record_id
    with _record_ids_lock:
        first = _next_record_id
        _next_record_id += count
    return range(first, first + count)


@dataclass(frozen=True)
class AuditRecord:
    """One enforcement decision."""

    record_id: int
    timestamp: float
    component: str  # e.g. "broker", "engine", "frontend", "store"
    operation: str  # e.g. "deliver", "publish", "declassify", "respond"
    principal: str
    decision: str  # ALLOWED | DENIED
    labels: LabelSet = field(default_factory=LabelSet)
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.record_id,
            "timestamp": self.timestamp,
            "component": self.component,
            "operation": self.operation,
            "principal": self.principal,
            "decision": self.decision,
            "labels": self.labels.to_uris(),
            "detail": self.detail,
        }


#: Recorded decisions: (component, operation, principal, decision,
#: labels-or-None, detail, timestamp). The ring keeps them raw, its
#: twin deque their record ids; formatting into AuditRecord happens when
#: the log is queried, for the entries the query matches.
_PendingEntry = Tuple[str, str, str, str, Optional[LabelSet], str, float]
_RingEntry = Tuple[int, _PendingEntry]

_counter_key = itemgetter(0, 1, 3)


def _format(item: _RingEntry) -> AuditRecord:
    record_id, (component, operation, principal, decision, labels, detail, when) = item
    return AuditRecord(
        record_id, when, component, operation, principal, decision, labels or LabelSet(), detail
    )


class AuditLog:
    """A bounded, thread-safe, in-memory audit log.

    ``capacity`` bounds memory for long-running deployments; the oldest
    records are discarded first, while the per-decision counters keep
    exact totals forever.

    There is one recording path: :meth:`record` (and its spellings
    :meth:`allowed`, :meth:`denied`, :meth:`note`) timestamps the
    decision and appends a raw tuple to a pending list; locking,
    counter updates, record ids and the capacity trim are deferred to
    :meth:`flush`, and :class:`AuditRecord` construction to the query
    that reads the entry. Every query flushes first, so observers
    always see a complete, exact, chronologically ordered log — only
    *when* (and whether) the formatting cost is paid differs from
    recording eagerly.
    """

    def __init__(self, capacity: int = 10_000, clock: Callable[[], float] = time.time):
        self._lock = threading.Lock()
        self._ring: Deque[_PendingEntry] = deque(maxlen=capacity)
        self._ring_ids: Deque[int] = deque(maxlen=capacity)
        self._capacity = capacity
        self._clock = clock
        self._counters: Counter[Tuple[str, str, str]] = Counter()
        self._pending: List[_PendingEntry] = []
        #: Flush when this many decisions are pending, so the buffer is
        #: bounded even if no one queries the log for a long time.
        #: Deliberately larger than small capacities: a flush only keeps
        #: the last ``capacity`` entries (older ones would be evicted
        #: immediately), so a big batch amortises the lock and the drain.
        self._flush_threshold = max(256, min(capacity, 4096))

    def record(
        self,
        component: str,
        operation: str,
        principal: str,
        decision: str,
        labels: Optional[LabelSet] = None,
        detail: str = "",
    ) -> None:
        """Record a decision; the caller pays a timestamp and a lock-free
        ring append, :meth:`flush` materialises the record."""
        self._pending.append(
            (component, operation, principal, decision, labels, detail, self._clock())
        )
        if len(self._pending) >= self._flush_threshold:
            self.flush()

    #: The name hot paths record under (kept: callers and the perf
    #: tracer tell the two apart) — the same one path.
    note = record

    def allowed(self, component: str, operation: str, principal: str, **kwargs) -> None:
        self.record(component, operation, principal, ALLOWED, **kwargs)

    def denied(self, component: str, operation: str, principal: str, **kwargs) -> None:
        self.record(component, operation, principal, DENIED, **kwargs)

    def flush(self) -> int:
        """Move pending entries into the ring; returns how many.

        Counters are updated for *every* pending decision (totals stay
        exact), but only the newest ``capacity`` entries get a record id
        and a place in the ring — anything older would be evicted the
        moment it was appended. No :class:`AuditRecord` is built here.
        """
        pending = self._pending
        if not pending:
            return 0
        with self._lock:
            # Drain under the lock: concurrent flushes must not partition
            # the pending entries, or records would interleave out of
            # order and the ring trim could evict the wrong batch. A
            # record only ever appends, so taking and deleting the first
            # ``count`` entries loses none that arrive in between.
            count = len(pending)
            if not count:
                return 0
            drained = pending[:count]
            del pending[:count]
            self._counters.update(map(_counter_key, drained))
            kept = drained[max(0, count - self._capacity) :]
            self._ring_ids.extend(_reserve_record_ids(len(kept)))
            self._ring.extend(kept)
        return count

    def _raw(
        self,
        component: Optional[str] = None,
        decision: Optional[str] = None,
        principal: Optional[str] = None,
    ) -> List[_RingEntry]:
        """The ring entries a query matches, oldest first, unformatted."""
        self.flush()
        with self._lock:
            snapshot = list(zip(self._ring_ids, self._ring))
        if component is None and decision is None and principal is None:
            return snapshot
        return [
            item
            for item in snapshot
            if (component is None or item[1][0] == component)
            and (decision is None or item[1][3] == decision)
            and (principal is None or item[1][2] == principal)
        ]

    # -- queries ---------------------------------------------------------

    def records(
        self,
        component: Optional[str] = None,
        decision: Optional[str] = None,
        principal: Optional[str] = None,
    ) -> List[AuditRecord]:
        return list(map(_format, self._raw(component, decision, principal)))

    def denials(self, component: Optional[str] = None) -> List[AuditRecord]:
        return self.records(component=component, decision=DENIED)

    def count(
        self,
        component: Optional[str] = None,
        operation: Optional[str] = None,
        decision: Optional[str] = None,
    ) -> int:
        self.flush()
        with self._lock:
            return sum(
                value
                for (comp, oper, dec), value in self._counters.items()
                if (component is None or comp == component)
                and (operation is None or oper == operation)
                and (decision is None or dec == decision)
            )

    def total_decisions(self) -> int:
        """Exact count of decisions ever recorded (survives eviction).

        The cluster drain protocol uses this as a per-process activity
        counter: two consecutive identical totals with empty queues mean
        the process made no enforcement decision in between.
        """
        self.flush()
        with self._lock:
            return sum(self._counters.values())

    def clear(self) -> None:
        with self._lock:
            self._pending.clear()
            self._ring.clear()
            self._ring_ids.clear()
            self._counters.clear()

    def __len__(self) -> int:
        self.flush()
        with self._lock:
            return len(self._ring)

    def __iter__(self) -> Iterable[AuditRecord]:
        return iter(self.records())


_default_log = AuditLog()


def default_audit_log() -> AuditLog:
    """The process-wide audit log used when components are not injected one."""
    return _default_log
