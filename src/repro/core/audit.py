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
from operator import countOf, itemgetter
from typing import Any, Callable, Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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


#: One decision of a fan-out: (principal, decision, detail).
Decision = Tuple[str, str, str]
#: Marks a fan-out entry in the decision slot; never a real decision.
_FANOUT: Any = object()
#: A pending or ring entry is one of two 7-tuples:
#:
#: * a record: (component, operation, principal, decision,
#:   labels-or-None, detail, timestamp);
#: * a fan-out (:meth:`AuditLog.note_fanout`): (component, operation,
#:   decisions, ``_FANOUT``, labels-or-None, None, timestamp). It stands
#:   for ``len(decisions)`` records, which share every field but the
#:   decision's own three.
_Entry = Tuple[Any, ...]
_RingEntry = Tuple[int, _Entry]

_decision_of = itemgetter(1)


def _format(item: _RingEntry) -> AuditRecord:
    record_id, (component, operation, principal, decision, labels, detail, when) = item
    return AuditRecord(
        record_id, when, component, operation, principal, decision, labels or LabelSet(), detail
    )


def _size(entry: _Entry) -> int:
    """How many records *entry* stands for."""
    return len(entry[2]) if entry[3] is _FANOUT else 1


def _drop_oldest(entries: Deque[_Entry], ids: Optional[Deque[int]], count: int) -> None:
    """Drop the oldest *count* records of *entries* in place, with their
    first record ids *ids* when given; a fan-out the cut goes through
    keeps its newer decisions."""
    while count:
        entry = entries[0]
        size = _size(entry)
        if size > count:
            component, operation, decisions, _, labels, _, when = entry
            entries[0] = (component, operation, decisions[count:], _FANOUT, labels, None, when)
            if ids is not None:
                ids[0] += count
            return
        entries.popleft()
        if ids is not None:
            ids.popleft()
        count -= size


def _expand(ids: Iterable[int], ring: Iterable[_Entry]) -> Iterator[_RingEntry]:
    """The records of *ring* (first record id of each entry in *ids*),
    a fan-out's in decision order with consecutive ids."""
    for record_id, entry in zip(ids, ring):
        if entry[3] is not _FANOUT:
            yield record_id, entry
            continue
        component, operation, decisions, _, labels, _, when = entry
        for offset, (principal, decision, detail) in enumerate(decisions):
            yield (
                record_id + offset,
                (component, operation, principal, decision, labels, detail, when),
            )


class AuditLog:
    """A bounded, thread-safe, in-memory audit log.

    ``capacity`` bounds memory for long-running deployments: the ring
    keeps the newest ``capacity`` records, and the per-decision counters
    keep exact totals forever.

    There are two ways in, and both only append a raw tuple to a pending
    list. :meth:`record` (and its spellings :meth:`allowed`,
    :meth:`denied`, :meth:`note`) timestamps one decision.
    :meth:`note_fanout` takes the decisions one delivery loop made about
    one event — the broker's fan-out of a publish — with one timestamp,
    and appends them as one entry (a single decision becomes a plain
    record). Locking, counter updates, record ids and the capacity trim
    are deferred to :meth:`flush`, which works per entry, a record being
    an entry of size one; the ring keeps fan-outs whole, and :meth:`_raw`
    is the one place that expands them into records. :class:`AuditRecord`
    construction waits for the query that reads the record. Every query
    flushes first, so observers always see a complete, exact,
    chronologically ordered log — only *when* (and whether) the
    formatting cost is paid differs from recording eagerly.

    A fan-out's records are written when its loop returns: they share
    one timestamp, are contiguous, in candidate order, with consecutive
    record ids, and come after every record made inside the loop's
    callbacks (a cascade's publishes and decisions).
    """

    def __init__(self, capacity: int = 10_000, clock: Callable[[], float] = time.time):
        self._lock = threading.Lock()
        #: Flushed entries, oldest first, holding the newest ``capacity``
        #: records (:meth:`flush` trims by record); the twin deque holds
        #: each entry's first record id.
        self._ring: Deque[_Entry] = deque()
        self._ring_ids: Deque[int] = deque()
        #: Records in the ring.
        self._ring_records = 0
        self._capacity = capacity
        self._clock = clock
        self._counters: Counter[Tuple[str, str, str]] = Counter()
        self._pending: List[_Entry] = []
        #: Flush when this many records are pending, so the buffer is
        #: bounded even if no one queries the log for a long time.
        #: Deliberately larger than small capacities: a flush only keeps
        #: the last ``capacity`` records (older ones would be evicted
        #: immediately), so a big batch amortises the lock and the drain.
        self._flush_threshold = max(256, min(capacity, 4096))
        #: The pending-entry count that reaches the threshold: each
        #: pending fan-out of n decisions lowers it by n - 1, so
        #: :meth:`record` checks one length, as it would with no fan-outs.
        #: Updated without the lock: an update lost to a racing thread
        #: moves one flush earlier or later by one fan-out, and every
        #: flush resets it, so the buffer stays bounded.
        self._flush_at = self._flush_threshold

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
        list append, :meth:`flush` materialises the record."""
        self._pending.append(
            (component, operation, principal, decision, labels, detail, self._clock())
        )
        if len(self._pending) >= self._flush_at:
            self.flush()

    #: The name hot paths record under (kept: callers and the perf
    #: tracer tell the two apart) — the same one path.
    note = record

    def note_fanout(
        self,
        component: str,
        operation: str,
        labels: Optional[LabelSet],
        decisions: Sequence[Decision],
    ) -> None:
        """Record one fan-out's *decisions* — (principal, decision,
        detail) each, in candidate order, the decision ALLOWED or DENIED
        — on *labels*, with one timestamp and one append.

        The records read back as :meth:`record` calls made here, in
        order, would, but share one timestamp; the caller may not mutate
        *decisions* after."""
        size = len(decisions)
        if not size:
            return
        pending = self._pending
        if size == 1:
            principal, decision, detail = decisions[0]
            pending.append(
                (component, operation, principal, decision, labels, detail, self._clock())
            )
        else:
            pending.append(
                (component, operation, decisions, _FANOUT, labels, None, self._clock())
            )
            self._flush_at -= size - 1
        if len(pending) >= self._flush_at:
            self.flush()

    def allowed(self, component: str, operation: str, principal: str, **kwargs) -> None:
        self.record(component, operation, principal, ALLOWED, **kwargs)

    def denied(self, component: str, operation: str, principal: str, **kwargs) -> None:
        self.record(component, operation, principal, DENIED, **kwargs)

    def flush(self) -> int:
        """Move pending entries into the ring; returns how many records.

        Counters are updated for *every* pending decision (totals stay
        exact), but only the newest ``capacity`` records get a record id
        and a place in the ring — anything older would be evicted the
        moment it was appended. The work is per entry: a fan-out adds its
        ALLOWED and DENIED counts in two updates, and the batch reserves
        its ids in one range. The ring is trimmed by record before the
        append, so the oldest fan-out may lose its older decisions. No
        :class:`AuditRecord` is built here.
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
            self._flush_at = self._flush_threshold
            counters = self._counters
            total = 0
            for component, operation, decisions, decision, _, _, _ in drained:
                if decision is not _FANOUT:
                    counters[(component, operation, decision)] += 1
                    total += 1
                    continue
                size = len(decisions)
                allowed = countOf(map(_decision_of, decisions), ALLOWED)
                if allowed:
                    counters[(component, operation, ALLOWED)] += allowed
                if size > allowed:
                    counters[(component, operation, DENIED)] += size - allowed
                total += size
            capacity = self._capacity
            kept = min(total, capacity)
            batch = deque(drained)
            if total > kept:
                _drop_oldest(batch, None, total - kept)
            excess = self._ring_records + kept - capacity
            if excess > 0:
                _drop_oldest(self._ring, self._ring_ids, excess)
                self._ring_records -= excess
            ring_ids = self._ring_ids
            record_id = _reserve_record_ids(kept).start
            for entry in batch:
                ring_ids.append(record_id)
                record_id += _size(entry)
            self._ring.extend(batch)
            self._ring_records += kept
        return total

    def _raw(
        self,
        component: Optional[str] = None,
        decision: Optional[str] = None,
        principal: Optional[str] = None,
    ) -> List[_RingEntry]:
        """The records a query matches, oldest first, as (record id,
        raw record) pairs, unformatted; fan-outs expanded."""
        self.flush()
        with self._lock:
            snapshot = list(_expand(self._ring_ids, self._ring))
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
            self._flush_at = self._flush_threshold
            self._ring.clear()
            self._ring_ids.clear()
            self._ring_records = 0
            self._counters.clear()

    def __len__(self) -> int:
        self.flush()
        with self._lock:
            return self._ring_records

    def __iter__(self) -> Iterable[AuditRecord]:
        return iter(self.records())


_default_log = AuditLog()


def default_audit_log() -> AuditLog:
    """The process-wide audit log used when components are not injected one."""
    return _default_log
