"""Property suite: crash-at-any-point recovery yields a prefix of the
acknowledged write history.

The durability contract (docs/DURABILITY.md):

1. **Prefix** — a store recovered after a crash is observation-
   equivalent to the in-memory executable specification
   (:class:`~tests.reference.store.ReferenceDatabase`) replaying some
   prefix of the submitted operation history;
2. **No acknowledged-after-fsync loss** — every write acknowledged
   while the WAL had no un-fsynced records is inside that prefix, even
   under the power-loss disk model (un-synced page cache discarded,
   optionally leaving a torn tail).

Random operation histories (MVCC puts, conflicting puts, deletes,
labeled values) run against a durable store instrumented with a
:class:`~repro.faults.FaultInjector` armed to crash at each
named crash point — mid-append, between append and fsync, before a
compaction's tmp log is written, after it is fsynced, after the rename
that lands it — and the surviving files are recovered and compared
against every candidate prefix.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labels import conf_label
from repro.exceptions import DocumentConflict, DocumentNotFound, WalError
from repro.faults import FAULT_POINTS, FaultInjector, SimulatedCrash
from repro.storage.recovery import (
    CheckpointStore,
    close_durable,
    flush_durable,
    open_durable_database,
    snapshot_durable,
)
from repro.storage.docstore import make_database
from repro.storage.replication import Replicator
from repro.taint import label, labels_of
from tests.reference.store import ReferenceDatabase

L_PATIENT = conf_label("ecric.org.uk", "patient", "9")
L_MDT = conf_label("ecric.org.uk", "mdt", "3")

DOC_IDS = ("alpha", "beta", "gamma", "delta")

_scalars = st.one_of(st.text(alphabet="abcxy ", max_size=5), st.integers(-9, 9))
_values = st.one_of(
    _scalars,
    st.tuples(_scalars, st.sampled_from((L_PATIENT, L_MDT))).map(
        lambda pair: label(pair[0], pair[1])
    ),
)
_fields = st.dictionaries(st.sampled_from(("k", "name", "mdt")), _values, max_size=3)

_operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(DOC_IDS), _fields),
        st.tuples(st.just("fresh_put"), st.sampled_from(DOC_IDS), _fields),
        st.tuples(st.just("delete"), st.sampled_from(DOC_IDS), st.none()),
    ),
    min_size=1,
    max_size=16,
)

#: The storage tier's crash points, and the write-path ones the
#: single-store property iterates (the checkpoint.* points belong to the
#: replication tests below).
CRASH_POINTS = tuple(
    point for point in FAULT_POINTS if point.startswith(("wal.", "compact.", "checkpoint."))
)
WAL_POINTS = tuple(point for point in CRASH_POINTS if not point.startswith("checkpoint."))
assert len(WAL_POINTS) == 7 and len(CRASH_POINTS) == 9

VIEWS = {
    "by_k": lambda doc: [(doc["k"], None)] if "k" in doc else [],
    "names": lambda doc: [(doc["name"], doc.get("mdt"))] if "name" in doc else [],
}


def _define_views(database):
    for name, map_function in VIEWS.items():
        database.define_view(name, map_function)


def _apply(database, operation):
    """One operation; returns the expected-exception type it raised."""
    kind, doc_id, fields = operation
    try:
        if kind == "put":
            document = {"_id": doc_id, **fields}
            current = database.get_or_none(doc_id)
            if current is not None:
                document["_rev"] = current["_rev"]
            database.put(document)
        elif kind == "fresh_put":
            database.put({"_id": doc_id, **fields})
        else:
            current = database.get_or_none(doc_id)
            rev = current["_rev"] if current is not None else "1-bogus"
            database.delete(doc_id, rev)
    except (DocumentConflict, DocumentNotFound) as error:
        return type(error)
    return None


def _labeled_form(value):
    if isinstance(value, dict):
        return {k: _labeled_form(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_labeled_form(item) for item in value]
    return (value, labels_of(value))


def _observe(database):
    """Every durable observable, in comparable form."""
    observation = {
        "update_seq": database.update_seq,
        "len": len(database),
        "docs": {
            doc_id: _labeled_form(database.get_or_none(doc_id)) for doc_id in DOC_IDS
        },
        "changes": [
            (change.doc_id, change.rev, change.deleted, change.seq)
            for change in database.changes()
        ],
    }
    for name in VIEWS:
        observation[f"view:{name}"] = [
            (row.doc_id, _labeled_form(row.key), _labeled_form(row.value))
            for row in database.view(name)
        ]
    return observation


def _reference_observation(operations, k):
    """The specification's observation after replaying the first *k* ops."""
    reference = ReferenceDatabase("ref")
    for operation in operations[:k]:
        _apply(reference, operation)
    _define_views(reference)
    return _observe(reference)


def _shard_of(database):
    shards = getattr(database, "shards", None)
    return shards[0] if shards else database


def _drive(directory, operations, faults, fsync_batch, snapshot_every):
    """Apply ops until a simulated crash; report (acked, durable_floor, crashed).

    *durable_floor* counts acknowledged operations known covered by a
    completed fsync — it only advances when the WAL has zero pending
    records, so it is a conservative lower bound under power loss.
    """
    database = open_durable_database(
        directory,
        "dur",
        fsync_batch=fsync_batch,
        snapshot_every=snapshot_every,
        faults=faults,
    )
    _define_views(database)
    writer = _shard_of(database).durability.writer
    acked = 0
    durable_floor = 0
    for operation in operations:
        try:
            _apply(database, operation)
        except (SimulatedCrash, WalError, OSError):
            return acked, durable_floor, True
        acked += 1
        if writer.pending == 0:
            durable_floor = acked
    return acked, durable_floor, False


def _assert_prefix(directory, operations, acked, floor, crashed):
    recovered = open_durable_database(directory, "dur")
    _define_views(recovered)
    observed = _observe(recovered)
    # The in-flight operation (the one that crashed) may or may not have
    # committed before the crash point fired.
    limit = min(len(operations), acked + 1) if crashed else acked
    matched = None
    for k in range(floor, limit + 1):
        if observed == _reference_observation(operations, k):
            matched = k
            break
    assert matched is not None, (
        f"recovered state matches no prefix in [{floor}, {limit}] "
        f"(acked={acked}, crashed={crashed})"
    )
    # Heal-and-continue: the recovered store accepts new writes that
    # extend the sequence order.
    before = recovered.update_seq
    recovered.put({"_id": "post-recovery", "value": 1})
    assert recovered.update_seq == before + 1
    assert recovered.get("post-recovery")["value"] == 1
    close_durable(recovered)
    return matched


@settings(max_examples=25, deadline=None)
@given(
    operations=_operations,
    point=st.sampled_from(WAL_POINTS),
    hit=st.integers(1, 4),
    fsync_batch=st.sampled_from((1, 2, 4)),
    snapshot_every=st.sampled_from((3, 1024)),
)
def test_process_crash_recovers_a_prefix(
    operations, point, hit, fsync_batch, snapshot_every
):
    """Process crash: written bytes survive (the page cache outlives the
    process), so the floor is every acknowledged operation."""
    with tempfile.TemporaryDirectory() as root:
        directory = os.path.join(root, "db")
        faults = FaultInjector().crash_at(point, on=hit)
        acked, _, crashed = _drive(
            directory, operations, faults, fsync_batch, snapshot_every
        )
        faults.close_all()
        _assert_prefix(directory, operations, acked, floor=acked, crashed=crashed)


@settings(max_examples=25, deadline=None)
@given(
    operations=_operations,
    point=st.sampled_from(WAL_POINTS),
    hit=st.integers(1, 3),
    fsync_batch=st.sampled_from((1, 4)),
    snapshot_every=st.sampled_from((3, 1024)),
    keep_tail=st.sampled_from((0, 1, 7)),
)
def test_power_loss_recovers_a_durable_prefix(
    operations, point, hit, fsync_batch, snapshot_every, keep_tail
):
    """Power loss: un-fsynced bytes are discarded (plus an optional torn
    tail of partially-flushed bytes); every fsync-covered ack survives."""
    with tempfile.TemporaryDirectory() as root:
        directory = os.path.join(root, "db")
        faults = FaultInjector().crash_at(point, on=hit)
        acked, floor, crashed = _drive(
            directory, operations, faults, fsync_batch, snapshot_every
        )
        faults.power_loss(keep_tail_bytes=keep_tail)
        _assert_prefix(directory, operations, acked, floor=floor, crashed=crashed)


@settings(max_examples=25, deadline=None)
@given(operations=_operations, fsync_batch=st.sampled_from((1, 8)))
def test_torn_append_recovers_every_acknowledged_write(operations, fsync_batch):
    """A crash halfway through writing a WAL frame leaves a torn tail the
    replay must discard — without touching any acknowledged record."""
    with tempfile.TemporaryDirectory() as root:
        directory = os.path.join(root, "db")
        faults = FaultInjector()
        database = open_durable_database(
            directory, "dur", fsync_batch=fsync_batch, faults=faults
        )
        _define_views(database)
        acked = 0
        crashed = False
        for index, operation in enumerate(operations):
            if index == len(operations) - 1:
                faults.torn_append()
            try:
                _apply(database, operation)
            except (SimulatedCrash, WalError):
                crashed = True
                break
            acked += 1
        faults.close_all()
        _assert_prefix(directory, operations, acked, floor=acked, crashed=crashed)
        # The torn tail is reported by the reopen that discarded it.
        recovered = open_durable_database(directory, "dur")
        close_durable(recovered)


@settings(max_examples=25, deadline=None)
@given(operations=_operations, snapshot_every=st.sampled_from((2, 5)))
def test_snapshot_compaction_preserves_equivalence(operations, snapshot_every):
    """Frequent automatic compactions (the log replaced under the
    writer's feet) never change what a clean close + reopen recovers:
    the full history."""
    with tempfile.TemporaryDirectory() as root:
        directory = os.path.join(root, "db")
        database = open_durable_database(
            directory, "dur", fsync_batch=2, snapshot_every=snapshot_every
        )
        _define_views(database)
        for operation in operations:
            _apply(database, operation)
        snapshot_durable(database)  # and one explicit compaction on top
        flush_durable(database)
        close_durable(database)

        recovered = open_durable_database(directory, "dur")
        _define_views(recovered)
        assert _observe(recovered) == _reference_observation(
            operations, len(operations)
        )
        close_durable(recovered)


#: A history on which every write-path crash point fires with
#: ``snapshot_every=3`` (updates, a delete, a recreate, labelled values).
_MATRIX_HISTORY = [
    ("put", "alpha", {"k": label("a", L_PATIENT)}),
    ("put", "beta", {"k": 1, "name": label("b", L_MDT)}),
    ("put", "alpha", {"k": "a2"}),
    ("delete", "beta", None),
    ("put", "gamma", {"name": "c", "mdt": label(3, L_MDT)}),
    ("put", "beta", {"k": label("b2", L_PATIENT)}),
    ("put", "delta", {"k": "d"}),
    ("put", "alpha", {"k": label("a3", L_MDT)}),
]


@pytest.mark.parametrize("hit", [1, 2])
@pytest.mark.parametrize("keep_tail", [None, 0, 7], ids=["process", "power", "power-torn"])
@pytest.mark.parametrize("point", WAL_POINTS)
def test_every_crash_point_fires_and_recovers_a_prefix(point, keep_tail, hit):
    """The matrix docs/DURABILITY.md renders, point by point: a process
    crash, a power loss and a power loss that leaves a torn tail at each
    instrumented instant — the sampled properties above might miss one."""
    with tempfile.TemporaryDirectory() as root:
        directory = os.path.join(root, "db")
        faults = FaultInjector().crash_at(point, on=hit)
        acked, floor, crashed = _drive(
            directory, _MATRIX_HISTORY, faults, fsync_batch=2, snapshot_every=3
        )
        assert crashed and faults.crashed_at == point
        if keep_tail is None:
            faults.close_all()
            floor = acked
        else:
            faults.power_loss(keep_tail_bytes=keep_tail)
        _assert_prefix(directory, _MATRIX_HISTORY, acked, floor=floor, crashed=True)


# -- replication durability edges ---------------------------------------------


def _populated_source(count=10):
    source = make_database("src")
    for index in range(count):
        source.put({"_id": f"doc-{index}", "value": index})
    return source


def test_crash_between_shard_fsyncs_mid_batch():
    """A sharded durable target crashing after shard 0's batch fsync but
    before shard 1's recovers cleanly and converges on re-replication."""
    with tempfile.TemporaryDirectory() as root:
        directory = os.path.join(root, "db")
        source = make_database("src")
        for index in range(12):
            source.put({"_id": f"doc-{index}", "value": index})
        faults = FaultInjector().crash_at("wal.sync.after", on=1)
        target = open_durable_database(
            directory, "dmz", shards=2, read_only=True, faults=faults
        )
        try:
            Replicator(source, target).replicate()
            raise AssertionError("expected a simulated crash")
        except SimulatedCrash:
            pass
        faults.power_loss()

        recovered = open_durable_database(directory, "dmz", shards=2, read_only=True)
        # One shard kept its fsynced batch, the other lost everything —
        # both are prefixes, and re-replication converges.
        Replicator(source, recovered).replicate()
        assert len(recovered) == len(source)
        for index in range(12):
            assert recovered.get(f"doc-{index}")["value"] == index
        close_durable(recovered)


def test_checkpoint_resume_loses_and_duplicates_nothing():
    """Kill replication between batches at both checkpoint crash points;
    a restarted replicator resumes and the target converges exactly."""
    for crash_point in ("checkpoint.before", "checkpoint.after"):
        with tempfile.TemporaryDirectory() as root:
            source = _populated_source(10)
            target = make_database("dst", read_only=True)
            faults = FaultInjector().crash_at(crash_point, on=2)
            path = os.path.join(root, "ckpt.json")
            replicator = Replicator(
                source, target, batch_size=3,
                checkpoint_store=CheckpointStore(path, faults),
            )
            try:
                replicator.replicate()
                raise AssertionError("expected a simulated crash")
            except SimulatedCrash:
                pass

            # Fresh replicator process: checkpoints come from disk.
            resumed = Replicator(
                source, target, batch_size=3,
                checkpoint_store=CheckpointStore(path),
            )
            result = resumed.replicate()
            assert len(target) == len(source)
            for index in range(10):
                assert target.get(f"doc-{index}")["value"] == index
            # No batch already checkpointed was re-shipped.
            assert result.batches <= 3


def test_tombstone_recreate_replays_through_views_after_recovery():
    """delete + recreate survives recovery with the view indexes showing
    only the recreated generation."""
    with tempfile.TemporaryDirectory() as root:
        directory = os.path.join(root, "db")
        database = open_durable_database(directory, "dur", fsync_batch=1)
        _define_views(database)
        out = database.put({"_id": "alpha", "k": "old"})
        database.delete("alpha", out["rev"])
        database.put({"_id": "alpha", "k": "new"})
        out = database.put({"_id": "beta", "k": "gone"})
        database.delete("beta", out["rev"])
        flush_durable(database)
        close_durable(database)

        recovered = open_durable_database(directory, "dur")
        _define_views(recovered)
        assert recovered.get("alpha")["k"] == "new"
        assert recovered.get_or_none("beta") is None
        rows = recovered.view("by_k")
        assert [(row.doc_id, row.key) for row in rows] == [("alpha", "new")]
        assert len(recovered) == 1
        # The tombstone still replicates as a deletion.
        replica = make_database("replica", read_only=True)
        Replicator(recovered, replica).replicate()
        assert replica.get_or_none("beta") is None
        assert replica.get("alpha")["k"] == "new"
        close_durable(recovered)


def test_failed_fsync_never_acknowledges_a_lost_write():
    """An fsync error poisons the shard's WAL: the write that could not
    be made durable raises instead of acking, and recovery still yields
    the pre-failure prefix."""
    with tempfile.TemporaryDirectory() as root:
        directory = os.path.join(root, "db")
        faults = FaultInjector()
        database = open_durable_database(
            directory, "dur", fsync_batch=1, faults=faults
        )
        database.put({"_id": "alpha", "value": 1})
        faults.fail_at("fsync", error=OSError("injected fsync failure"))
        try:
            database.put({"_id": "beta", "value": 2})
            raise AssertionError("expected the injected fsync failure")
        except OSError:
            pass
        # The store refuses further writes rather than risk a gap.
        try:
            database.put({"_id": "gamma", "value": 3})
            raise AssertionError("expected WalError")
        except WalError:
            pass
        faults.power_loss()

        recovered = open_durable_database(directory, "dur")
        assert recovered.get("alpha")["value"] == 1
        assert recovered.get_or_none("gamma") is None
        close_durable(recovered)
