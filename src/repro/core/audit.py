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

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from repro.core.labels import LabelSet

#: Decision outcomes.
ALLOWED = "allowed"
DENIED = "denied"

_record_ids = itertools.count(1)


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
#: labels-or-None, detail, timestamp). Formatting into AuditRecord
#: happens at flush time, off the enforcement hot path.
_PendingEntry = Tuple[str, str, str, str, Optional[LabelSet], str, float]


class AuditLog:
    """A bounded, thread-safe, in-memory audit log.

    ``capacity`` bounds memory for long-running deployments; the oldest
    records are discarded first, while the per-decision counters keep
    exact totals forever.

    There is one recording path: :meth:`record` (and its spellings
    :meth:`allowed`, :meth:`denied`, :meth:`note`) timestamps the
    decision and appends a raw tuple to a ring buffer;
    :class:`AuditRecord` construction, locking and counter updates are
    deferred to :meth:`flush`. Every query flushes first, so observers
    always see a complete, exact, chronologically ordered log — only
    *when* the formatting cost is paid differs from recording eagerly.
    """

    def __init__(self, capacity: int = 10_000, clock: Callable[[], float] = time.time):
        self._lock = threading.Lock()
        self._records: List[AuditRecord] = []
        self._capacity = capacity
        self._clock = clock
        self._counters: Dict[tuple, int] = {}
        self._pending: Deque[_PendingEntry] = deque()
        #: Flush when this many decisions are pending, so the buffer is a
        #: bounded ring even if no one queries the log for a long time.
        #: Deliberately larger than small capacities: a flush only
        #: materialises the last ``capacity`` entries (older ones would
        #: be evicted immediately), so a big batch amortises formatting.
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
        """Materialise pending entries; returns how many.

        Counters are updated for *every* pending decision (totals stay
        exact), but :class:`AuditRecord` objects are only built for the
        newest ``capacity`` entries — anything older would be evicted by
        the ring bound the moment it was appended.
        """
        pending = self._pending
        if not pending:
            return 0
        with self._lock:
            # Drain under the lock: concurrent flushes must not partition
            # the pending entries, or records would interleave out of
            # order and the ring trim could evict the wrong batch.
            drained: List[_PendingEntry] = []
            for _ in range(len(pending)):
                try:
                    drained.append(pending.popleft())
                except IndexError:
                    break
            if not drained:
                return 0
            counters = self._counters
            for entry in drained:
                key = (entry[0], entry[1], entry[3])
                counters[key] = counters.get(key, 0) + 1
            records = self._records
            keep_from = max(0, len(drained) - self._capacity)
            for component, operation, principal, decision, labels, detail, when in drained[
                keep_from:
            ]:
                records.append(
                    AuditRecord(
                        record_id=next(_record_ids),
                        timestamp=when,
                        component=component,
                        operation=operation,
                        principal=principal,
                        decision=decision,
                        labels=labels or LabelSet(),
                        detail=detail,
                    )
                )
            if len(records) > self._capacity:
                del records[: len(records) - self._capacity]
        return len(drained)

    # -- queries ---------------------------------------------------------

    def records(
        self,
        component: Optional[str] = None,
        decision: Optional[str] = None,
        principal: Optional[str] = None,
    ) -> List[AuditRecord]:
        self.flush()
        with self._lock:
            snapshot = list(self._records)
        return [
            record
            for record in snapshot
            if (component is None or record.component == component)
            and (decision is None or record.decision == decision)
            and (principal is None or record.principal == principal)
        ]

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
            self._records.clear()
            self._counters.clear()

    def __len__(self) -> int:
        self.flush()
        with self._lock:
            return len(self._records)

    def __iter__(self) -> Iterable[AuditRecord]:
        return iter(self.records())


_default_log = AuditLog()


def default_audit_log() -> AuditLog:
    """The process-wide audit log used when components are not injected one."""
    return _default_log
