"""Property: the lazy ``AuditLog`` reads back exactly as an eager one.

``AuditLog`` keeps raw entries and builds :class:`AuditRecord` objects
only for the entries a query matches. The model below records eagerly
into a plain list — every field formatted at record time, the capacity
trim applied after every append — and any interleaving of recording and
querying must be indistinguishable from it: same fields in the same
order, ids strictly increasing and stable, counters exact through
eviction.
"""

import itertools
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import audit as audit_module
from repro.core.audit import ALLOWED, DENIED, AuditLog, AuditRecord
from repro.core.labels import LabelSet

from tests.property.strategies import label_sets

COMPONENTS = ("broker", "engine", "frontend")
OPERATIONS = ("deliver", "publish", "respond")
PRINCIPALS = ("u1", "u2", "u3")
DECISIONS = (ALLOWED, DENIED)
#: 1 and 3 are below the flush threshold's floor (256), so one flush
#: evicts most of its own batch; 300 sets the threshold itself.
CAPACITIES = (1, 3, 300)

_maybe = lambda values: st.one_of(st.none(), st.sampled_from(values))  # noqa: E731
_entry = st.tuples(
    st.sampled_from(COMPONENTS),
    st.sampled_from(OPERATIONS),
    st.sampled_from(PRINCIPALS),
    st.sampled_from(DECISIONS),
    st.one_of(st.none(), label_sets(max_size=2)),
    st.text(max_size=6),
)
_operation = st.one_of(
    st.tuples(st.just("record"), _entry),
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

    def record(self, when, component, operation, principal, decision, labels, detail):
        self.counters[(component, operation, decision)] += 1
        self.rows.append(
            (when, component, operation, principal, decision, labels or LabelSet(), detail)
        )
        del self.rows[: max(0, len(self.rows) - self.capacity)]

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
    assert [_fields(record) for record in found] == expected
    ids = [record.record_id for record in found]
    assert all(earlier < later for earlier, later in zip(ids, ids[1:]))
    for record in found:
        # The clock is a counter, so a timestamp names one entry: the id
        # it was given at flush time never changes between queries.
        assert seen_ids.setdefault(record.timestamp, record.record_id) == record.record_id


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

    def recorder(name):
        for sequence in range(each):
            log.note("broker", "deliver", name, ALLOWED, None, str(sequence))

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
        threads = [
            threading.Thread(target=recorder, args=(f"r{index}",)) for index in range(recorders)
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
