"""Unit tests for the durability primitives: CRC-framed WAL records,
torn-tail tolerance at every byte boundary, fsync-failure poisoning,
atomic in-place compaction, the data-directory shape guards and the
persisted replication checkpoints."""

import os

import pytest

from repro.exceptions import WalError
from repro.storage.docstore import _StoredDocument, _sidecar_labels
from repro.storage.faults import NULL_FAULTS, FaultInjector, SimulatedCrash
from repro.storage.recovery import (
    CheckpointStore,
    close_durable,
    flush_durable,
    open_durable_database,
    snapshot_durable,
)
from repro.storage.wal import (
    WAL_HEADER,
    WalWriter,
    decode_commit,
    encode_commit,
    read_wal,
)


def _stored(doc_id="doc-1", rev="1-abc", value="x", deleted=False, order=0):
    body = {"_id": doc_id, "_rev": rev, "value": value}
    sidecar = {"/value": ["label:conf:ecric.org.uk/patient/9"]}
    return _StoredDocument(
        doc_id, rev, body, sidecar,
        deleted=deleted, order=order, labels=_sidecar_labels(sidecar),
    )


# -- framing ------------------------------------------------------------------


def test_commit_record_roundtrip():
    stored = _stored(deleted=True, order=7)
    seq, decoded = decode_commit(
        __import__("json").loads(encode_commit(42, stored))
    )
    assert seq == 42
    assert decoded.doc_id == stored.doc_id
    assert decoded.rev == stored.rev
    assert decoded.body == stored.body
    assert decoded.sidecar == stored.sidecar
    assert decoded.deleted is True
    assert decoded.order == 7
    assert decoded.labels == stored.labels


def test_decode_rejects_unknown_record_kind():
    with pytest.raises(WalError):
        decode_commit(["x", 1, "d", "r", {}, {}, 0, 0])


def test_read_wal_missing_file_is_empty(tmp_path):
    records, valid, torn = read_wal(str(tmp_path / "absent.log"))
    assert (records, valid, torn) == ([], 0, False)


def test_read_wal_torn_header_is_empty_and_torn(tmp_path):
    path = tmp_path / "wal.log"
    path.write_bytes(WAL_HEADER[:3])
    records, valid, torn = read_wal(str(path))
    assert records == [] and valid == 0 and torn is True


def test_writer_appends_and_read_wal_replays(tmp_path):
    path = str(tmp_path / "wal.log")
    writer = WalWriter(path, fsync_batch=1)
    for index in range(5):
        writer.append(encode_commit(index + 1, _stored(doc_id=f"d{index}")))
        writer.sync()
    writer.close()
    records, valid, torn = read_wal(path)
    assert [record[1] for record in records] == [1, 2, 3, 4, 5]
    assert torn is False
    assert valid == os.path.getsize(path)


def test_torn_tail_at_every_byte_boundary(tmp_path):
    """Truncating the log at *any* byte yields an intact record prefix."""
    path = str(tmp_path / "wal.log")
    writer = WalWriter(path, fsync_batch=1)
    boundaries = [writer._file.written]
    for index in range(3):
        writer.append(encode_commit(index + 1, _stored(doc_id=f"d{index}")))
        writer.sync()
        boundaries.append(writer._file.written)
    writer.close()
    data = open(path, "rb").read()
    for cut in range(len(WAL_HEADER), len(data) + 1):
        torn_path = str(tmp_path / "cut.log")
        with open(torn_path, "wb") as handle:
            handle.write(data[:cut])
        records, valid, torn = read_wal(torn_path)
        # The valid prefix is the last record boundary at or before the cut.
        expected_records = sum(1 for b in boundaries[1:] if b <= cut)
        assert len(records) == expected_records
        assert valid == max(b for b in boundaries if b <= cut)
        assert torn is (cut != valid)


def test_corrupt_middle_record_discards_everything_after(tmp_path):
    path = str(tmp_path / "wal.log")
    writer = WalWriter(path, fsync_batch=1)
    lengths = []
    for index in range(3):
        writer.append(encode_commit(index + 1, _stored(doc_id=f"d{index}")))
        writer.sync()
        lengths.append(writer._file.written)
    writer.close()
    data = bytearray(open(path, "rb").read())
    # Flip one payload byte inside the second record.
    data[lengths[0] + 12] ^= 0xFF
    open(path, "wb").write(bytes(data))
    records, valid, torn = read_wal(path)
    assert [record[1] for record in records] == [1]
    assert valid == lengths[0]
    assert torn is True


def test_writer_truncates_reported_torn_tail_before_appending(tmp_path):
    path = str(tmp_path / "wal.log")
    writer = WalWriter(path, fsync_batch=1)
    writer.append(encode_commit(1, _stored()))
    writer.sync()
    writer.close()
    with open(path, "ab") as handle:
        handle.write(b"\x07\x00")  # torn frame prefix
    records, valid, torn = read_wal(path)
    assert torn is True and len(records) == 1
    writer = WalWriter(path, fsync_batch=1, valid_length=valid)
    writer.append(encode_commit(2, _stored(doc_id="d2", rev="1-def")))
    writer.sync()
    writer.close()
    records, _, torn = read_wal(path)
    assert [record[1] for record in records] == [1, 2]
    assert torn is False


# -- group commit and failure posture -----------------------------------------


def test_group_commit_batches_fsyncs(tmp_path):
    writer = WalWriter(str(tmp_path / "wal.log"), fsync_batch=3)
    for index in range(2):
        writer.append(encode_commit(index + 1, _stored()))
        writer.maybe_sync()
    assert writer.pending == 2
    writer.append(encode_commit(3, _stored()))
    writer.maybe_sync()
    assert writer.pending == 0
    writer.close()


def test_failed_fsync_poisons_the_writer(tmp_path):
    faults = FaultInjector()
    writer = WalWriter(str(tmp_path / "wal.log"), fsync_batch=1, faults=faults)
    writer.append(encode_commit(1, _stored()))
    faults.fail_fsync()
    with pytest.raises(OSError):
        writer.sync()
    assert writer.failed
    with pytest.raises(WalError):
        writer.append(encode_commit(2, _stored()))
    with pytest.raises(WalError):
        writer.sync()


def test_fsync_batch_must_be_positive(tmp_path):
    with pytest.raises(WalError):
        WalWriter(str(tmp_path / "wal.log"), fsync_batch=0)


# -- compaction -----------------------------------------------------------------


def _payloads(path):
    records, _valid, torn = read_wal(path)
    assert torn is False
    return [(record[1], record[2]) for record in records]


def test_compaction_replaces_the_log_and_appends_continue(tmp_path):
    path = str(tmp_path / "wal.log")
    writer = WalWriter(path, fsync_batch=8)
    for index in range(4):
        writer.append(encode_commit(index + 1, _stored(doc_id="d")))
    assert writer.pending == 4
    writer.compact([encode_commit(4, _stored(doc_id="d"))])
    assert writer.pending == 0  # the new log was fsynced before it landed
    assert _payloads(path) == [(4, "d")]
    assert os.listdir(tmp_path) == ["wal.log"]
    writer.append(encode_commit(5, _stored(doc_id="e")))
    writer.sync()
    writer.close()
    assert _payloads(path) == [(4, "d"), (5, "e")]


@pytest.mark.parametrize(
    "point, survivor",
    [("compact.begin", "old"), ("compact.fsynced", "old"), ("compact.renamed", "new")],
)
@pytest.mark.parametrize("power_loss", [False, True])
def test_compaction_is_atomic_under_crash(tmp_path, point, survivor, power_loss):
    """Old log or new log, never a mix — and either replays to the same
    documents, because the new log is written from all of the old."""
    path = str(tmp_path / "wal.log")
    faults = FaultInjector()
    writer = WalWriter(path, fsync_batch=1, faults=faults)
    for index in range(3):
        writer.append(encode_commit(index + 1, _stored(doc_id="d", rev=f"{index + 1}-r")))
        writer.sync()
    old = open(path, "rb").read()
    faults.crash_at(point)
    with pytest.raises(SimulatedCrash):
        writer.compact([encode_commit(3, _stored(doc_id="d", rev="3-r"))])
    assert writer.failed
    if power_loss:
        faults.power_loss(keep_tail_bytes=5)
    else:
        faults.close_all()
    if survivor == "old":
        assert open(path, "rb").read() == old
        assert _payloads(path) == [(1, "d"), (2, "d"), (3, "d")]
    else:
        assert _payloads(path) == [(3, "d")]
    # Whatever survived, a reopened writer appends at a frame boundary.
    _, valid, _ = read_wal(path)
    reopened = WalWriter(path, fsync_batch=1, valid_length=valid)
    reopened.append(encode_commit(4, _stored(doc_id="e")))
    reopened.sync()
    reopened.close()
    assert _payloads(path)[-2:] == [(3, "d"), (4, "e")]


def test_failed_compaction_poisons_the_writer_and_keeps_the_old_log(tmp_path):
    path = str(tmp_path / "wal.log")
    faults = FaultInjector()
    writer = WalWriter(path, fsync_batch=1, faults=faults)
    writer.append(encode_commit(1, _stored()))
    writer.sync()
    faults.fail_fsync()  # the tmp log's fsync
    with pytest.raises(OSError):
        writer.compact([encode_commit(1, _stored())])
    with pytest.raises(WalError):
        writer.append(encode_commit(2, _stored()))
    assert _payloads(path) == [(1, "doc-1")]


def test_a_clean_close_leaves_one_file_per_shard(tmp_path):
    directory = str(tmp_path / "db")
    database = open_durable_database(directory, "t", shards=2, snapshot_every=3)
    for index in range(20):
        database.upsert({"_id": f"doc-{index % 5}", "n": index})
    snapshot_durable(database)
    flush_durable(database)
    close_durable(database)
    assert sorted(os.listdir(directory)) == ["meta.json", "shard-0", "shard-1"]
    for shard in ("shard-0", "shard-1"):
        assert os.listdir(os.path.join(directory, shard)) == ["wal.log"]
    recovered = open_durable_database(directory, "t", shards=2)
    assert [recovered.get(f"doc-{index}")["n"] for index in range(5)] == [15, 16, 17, 18, 19]
    assert recovered.update_seq == 20
    close_durable(recovered)


def test_reopening_a_compact_log_does_not_rewrite_it(tmp_path):
    """Only records a compaction would drop count towards the next one."""
    directory = str(tmp_path / "db")
    database = open_durable_database(directory, "t", snapshot_every=4)
    for index in range(6):
        database.put({"_id": f"doc-{index}"})  # compacts at 4: six records, none redundant
    flush_durable(database)
    close_durable(database)
    faults = FaultInjector()
    reopened = open_durable_database(directory, "t", snapshot_every=4, faults=faults)
    reopened.put({"_id": "doc-6"})
    assert "compact.begin" not in faults.hits
    close_durable(reopened)


# -- the data-directory shape guards --------------------------------------------


def test_meta_guard_refuses_mismatched_shard_count(tmp_path):
    directory = str(tmp_path / "db")
    db = open_durable_database(directory, "t", shards=4)
    close_durable(db)
    with pytest.raises(WalError):
        open_durable_database(directory, "t", shards=2)


def test_a_directory_with_an_older_builds_snapshot_is_refused(tmp_path):
    """Older builds compacted into ``snapshot.json`` and truncated the
    log: opening such a shard from ``wal.log`` alone would silently drop
    every compacted document."""
    directory = str(tmp_path / "db")
    database = open_durable_database(directory, "t")
    database.put({"_id": "kept"})
    flush_durable(database)
    close_durable(database)
    with open(os.path.join(directory, "shard-0", "snapshot.json"), "wb") as handle:
        handle.write(b'00000000\n{"seq":9,"docs":[]}')
    with pytest.raises(WalError, match="snapshot.json"):
        open_durable_database(directory, "t")


# -- checkpoint store -------------------------------------------------------------


def test_checkpoint_store_roundtrip(tmp_path):
    store = CheckpointStore(str(tmp_path / "ckpt.json"))
    assert store.load() == {}
    store.save({"shard-0": 12, "shard-1": 7})
    assert store.load() == {"shard-0": 12, "shard-1": 7}


def test_checkpoint_store_unreadable_file_restarts_from_zero(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_bytes(b"not a checkpoint")
    assert CheckpointStore(str(path)).load() == {}


# -- the null injector -------------------------------------------------------------


def test_null_faults_cannot_be_armed():
    with pytest.raises(RuntimeError):
        NULL_FAULTS.crash_at("wal.append.after")
    with pytest.raises(RuntimeError):
        NULL_FAULTS.fail_fsync()
    with pytest.raises(RuntimeError):
        NULL_FAULTS.torn_append()
    NULL_FAULTS.hit("wal.append.after")  # and hitting points is free
