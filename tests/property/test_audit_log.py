"""Property: the lazy ``AuditLog`` reads back exactly as an eager one.

``AuditLog`` keeps raw entries — a fan-out's decisions as one — and
builds :class:`AuditRecord` objects only for the records a query
matches. The model below records eagerly into a plain list — every
field formatted at record time, a fan-out expanded into one row per
decision sharing one timestamp, the capacity trim applied after every
row — and any interleaving of recording and querying must be
indistinguishable from it: same fields in the same order, ids strictly
increasing and stable (consecutive within a fan-out, also one cut by
eviction), counters exact through eviction.
"""

import itertools
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import audit as audit_module
from repro.core.audit import ALLOWED, DENIED, AuditLog, AuditRecord, _size
from repro.core.labels import LabelSet

from tests.property.strategies import label_sets

COMPONENTS = ("broker", "engine", "frontend")
OPERATIONS = ("deliver", "publish", "respond")
PRINCIPALS = ("u1", "u2", "u3")
DECISIONS = (ALLOWED, DENIED)
#: 1 and 3 are below the flush threshold's floor (256), so one flush
#: evicts most of its own batch and a fan-out is cut at the front; 300
#: sets the threshold itself.
CAPACITIES = (1, 3, 300)
#: The broker_fanout workload's consumer count bounds a fan-out.
FANOUT_MAX = 48

_maybe = lambda values: st.one_of(st.none(), st.sampled_from(values))  # noqa: E731
_entry = st.tuples(
    st.sampled_from(COMPONENTS),
    st.sampled_from(OPERATIONS),
    st.sampled_from(PRINCIPALS),
    st.sampled_from(DECISIONS),
    st.one_of(st.none(), label_sets(max_size=2)),
    st.text(max_size=6),
)
_decision = st.tuples(
    st.sampled_from(PRINCIPALS), st.sampled_from(DECISIONS), st.text(max_size=6)
)
_fanout = st.tuples(
    st.just("fanout"),
    st.sampled_from(COMPONENTS),
    st.sampled_from(OPERATIONS),
    st.one_of(st.none(), label_sets(max_size=2)),
    st.lists(_decision, min_size=1, max_size=FANOUT_MAX),
)
_operation = st.one_of(
    st.tuples(st.just("record"), _entry),
    _fanout,
    _fanout,
    st.tuples(st.just("spelled"), _entry),  # via allowed() / denied()
    # Enough at once to cross the flush threshold without a query.
    st.tuples(st.just("burst"), _entry, st.integers(1, 700)),
    st.tuples(st.just("records"), _maybe(COMPONENTS), _maybe(DECISIONS), _maybe(PRINCIPALS)),
    st.tuples(st.just("denials"), _maybe(COMPONENTS)),
    st.tuples(st.just("count"), _maybe(COMPONENTS), _maybe(OPERATIONS), _maybe(DECISIONS)),
    st.tuples(st.sampled_from(("total", "len", "iter", "clear"))),
)


class EagerModel:
    """The reference: format at record time, trim after every append."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.rows = []
        self.counters = Counter()

    def record(self, when, component, operation, principal, decision, labels, detail, offset=0):
        """One row; *offset* is its place in its fan-out (0 for a record)."""
        self.counters[(component, operation, decision)] += 1
        self.rows.append(
            (when, component, operation, principal, decision, labels or LabelSet(), detail, offset)
        )
        del self.rows[: max(0, len(self.rows) - self.capacity)]

    def fanout(self, when, component, operation, labels, decisions):
        for offset, (principal, decision, detail) in enumerate(decisions):
            self.record(when, component, operation, principal, decision, labels, detail, offset)

    def records(self, component=None, decision=None, principal=None):
        return [
            row
            for row in self.rows
            if (component is None or row[1] == component)
            and (decision is None or row[4] == decision)
            and (principal is None or row[3] == principal)
        ]

    def count(self, component=None, operation=None, decision=None):
        return sum(
            value
            for (comp, oper, dec), value in self.counters.items()
            if (component is None or comp == component)
            and (operation is None or oper == operation)
            and (decision is None or dec == decision)
        )

    def clear(self):
        self.rows.clear()
        self.counters.clear()


def _fields(record):
    assert type(record) is AuditRecord
    assert type(record.labels) is LabelSet
    return (
        record.timestamp,
        record.component,
        record.operation,
        record.principal,
        record.decision,
        record.labels,
        record.detail,
    )


def _same(found, expected, seen_ids):
    assert [_fields(record) for record in found] == [row[:-1] for row in expected]
    ids = [record.record_id for record in found]
    assert all(earlier < later for earlier, later in zip(ids, ids[1:]))
    for record, row in zip(found, expected):
        # The clock is a counter, so a timestamp names one record or one
        # fan-out: the ids given at flush time never change between
        # queries, and a fan-out's are consecutive (id - offset is its
        # first record's, even after eviction cut the front off).
        first = record.record_id - row[-1]
        assert seen_ids.setdefault(record.timestamp, first) == first


@pytest.mark.parametrize("capacity", CAPACITIES)
@settings(max_examples=60, deadline=None)
@given(operations=st.lists(_operation, max_size=30))
def test_reads_back_as_the_eager_model(capacity, operations):
    ticks = itertools.count(1)
    log = AuditLog(capacity=capacity, clock=lambda: float(next(ticks)))
    model = EagerModel(capacity)
    model_ticks = itertools.count(1)
    seen_ids = {}
    for kind, *args in operations:
        if kind in ("record", "spelled", "burst"):
            component, operation, principal, decision, labels, detail = args[0]
            for _ in range(args[1] if kind == "burst" else 1):
                if kind == "spelled":
                    spell = log.allowed if decision == ALLOWED else log.denied
                    spell(component, operation, principal, labels=labels, detail=detail)
                else:
                    log.record(component, operation, principal, decision, labels, detail)
                model.record(float(next(model_ticks)), *args[0])
        elif kind == "fanout":
            component, operation, labels, decisions = args
            log.note_fanout(component, operation, labels, decisions)
            model.fanout(float(next(model_ticks)), component, operation, labels, decisions)
        elif kind == "records":
            _same(log.records(*args), model.records(*args), seen_ids)
        elif kind == "denials":
            _same(log.denials(*args), model.records(args[0], DENIED), seen_ids)
        elif kind == "count":
            assert log.count(*args) == model.count(*args)
        elif kind == "total":
            assert log.total_decisions() == sum(model.counters.values())
        elif kind == "len":
            assert len(log) == len(model.rows)
        elif kind == "iter":
            _same(list(log), model.records(), seen_ids)
        else:
            log.clear()
            model.clear()
    _same(log.records(), model.records(), seen_ids)
    assert len(log) == len(model.rows) <= capacity
    assert log.count() == log.total_decisions() == sum(model.counters.values())


@pytest.mark.parametrize("capacity", CAPACITIES + (10_000,))
@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(1, FANOUT_MAX), min_size=1, max_size=400))
def test_pending_records_stay_bounded(capacity, sizes):
    """The flush threshold counts pending *records*, not entries: a
    fan-out of n decisions counts n, so a log fed fan-outs buffers no
    more than one fed single records — at most the threshold plus the
    largest fan-out, at any moment."""
    log = AuditLog(capacity=capacity)
    threshold = log._flush_threshold
    peak = [0]
    flush = log.flush

    def pending_records():
        return sum(map(_size, log._pending))

    def watched_flush():
        peak[0] = max(peak[0], pending_records())
        return flush()

    log.flush = watched_flush
    for size in sizes:
        decisions = [("u1", ALLOWED, "")] * size
        log.note_fanout("broker", "deliver", None, decisions)
        log.note("broker", "publish", "u1", ALLOWED)
        assert pending_records() < threshold
    assert peak[0] <= threshold + max(sizes)
    expected = sum(sizes) + len(sizes)
    assert log.total_decisions() == expected
    assert len(log) == min(capacity, expected)


def test_labels_none_reads_back_as_the_empty_label_set():
    log = AuditLog()
    log.record("broker", "deliver", "u1", ALLOWED)
    log.record("broker", "deliver", "u1", ALLOWED, labels=None)
    for record in log.records():
        assert record.labels == LabelSet() and type(record.labels) is LabelSet
        assert record.to_dict()["labels"] == []


def test_no_record_is_built_until_the_log_is_read(monkeypatch):
    """The tentpole's pin: recording and flushing format nothing."""
    built = []

    def counting(*args, **kwargs):
        built.append(1)
        return AuditRecord(*args, **kwargs)

    monkeypatch.setattr(audit_module, "AuditRecord", counting)
    log = AuditLog(capacity=50_000)
    total = 3 * log._flush_threshold
    for index in range(total):
        log.note("broker", "deliver", f"u{index % 7}", DENIED if index % 5 == 0 else ALLOWED)
    assert log.count() == log.total_decisions() == total  # both flush
    assert len(log) == total == 3 * 4096
    assert built == []
    assert len(log.denials(component="engine")) == 0 and built == []  # no match, nothing built
    denied = log.denials()
    assert len(built) == len(denied) == log.count(decision=DENIED)  # only the matches
    del built[:]
    assert len(log.records()) == len(built) == len(log)


def test_concurrent_recorders_lose_and_duplicate_nothing():
    recorders, each = 4, 5_000
    log = AuditLog(capacity=recorders * each)
    done = threading.Event()
    failures = []

    def check(records):
        ids = [record.record_id for record in records]
        assert all(earlier < later for earlier, later in zip(ids, ids[1:]))
        last = {}
        for record in records:  # per recorder: in order, no gap, no repeat
            assert int(record.detail) == last.get(record.principal, -1) + 1
            last[record.principal] = int(record.detail)
        return last

    def recorder(name, fanning):
        sequence = 0
        while sequence < each:
            size = min(1 + sequence % 7, each - sequence) if fanning else 1
            if size == 1:
                log.note("broker", "deliver", name, ALLOWED, None, str(sequence))
            else:
                decisions = [(name, ALLOWED, str(sequence + offset)) for offset in range(size)]
                log.note_fanout("broker", "deliver", None, decisions)
            sequence += size

    def reader():
        try:
            while not done.is_set():
                check(log.records())
                assert log.count(component="broker") <= recorders * each
                assert len(log) <= recorders * each
        except BaseException as error:  # noqa: BLE001 - reported by the main thread
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        # Half the recorders write fan-outs of 2 to 7 decisions between
        # single records.
        threads = [
            threading.Thread(target=recorder, args=(f"r{index}", index % 2))
            for index in range(recorders)
        ]
        querier = threading.Thread(target=reader)
        querier.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        done.set()
        querier.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not querier.is_alive() and not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    assert log.total_decisions() == len(log) == recorders * each
    assert check(log.records()) == {f"r{index}": each - 1 for index in range(recorders)}
