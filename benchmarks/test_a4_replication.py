"""A4 (ablation): replication and label-persistence cost (requirement S1).

Prices the S1 machinery: document writes with and without label sidecars,
push replication passes, and the read-back that re-attaches labels.
"""

import itertools

from repro.bench.reporting import format_table
from repro.bench.timing import measure_interleaved, measure_latency
from repro.core.labels import LabelSet
from repro.mdt.labels import mdt_label, patient_label
from repro.mdt.storage_unit import SENSITIVE_RECORD_FIELDS, define_application_views
from repro.storage.docstore import Database
from repro.storage.replication import Replicator
from repro.taint import with_labels

LABELS = LabelSet([mdt_label("1")])

#: incremental pass (nothing to move) / full pass (100 documents), ratio
#: of medians: a checkpoint read against a hundred writes — a small
#: fraction, whatever the host is doing.
INCREMENTAL_RATIO_BAND = (0.0001, 0.50)
#: put of the storage unit's record document (16 fields, ten of them
#: wrapped by ``with_labels`` as ``DataStorage.on_record`` does, the four
#: application views maintained) / the same document unlabelled, ratio of
#: medians. PR 24, 2-core host, nine runs (six beside a busy loop):
#: 1.58–1.67 (plain ≈ 21–31 µs, labelled ≈ 34–51 µs); the parent commit
#: read 1.93–2.06 (≈ 39–50 / ≈ 81–96 µs). The band is around the measured
#: ratio; what pins the per-field passes staying out is a count
#: (``tests/unit/storage/test_write_work.py``), not this edge.
LABELLED_PUT_RATIO_BAND = (1.2, 2.0)
_ids = itertools.count()
RECORD_LABELS = LabelSet([mdt_label("1"), patient_label("42")])


def _plain_doc() -> dict:
    return {"_id": f"doc-{next(_ids)}", "name": "alice", "stage": "2", "n": 3}


def _labeled_doc() -> dict:
    doc = _plain_doc()
    doc["name"] = with_labels(doc["name"], LABELS)
    doc["stage"] = with_labels(doc["stage"], LABELS)
    return doc


def _record_doc(labels: LabelSet) -> dict:
    """The document ``DataStorage.on_record`` writes for one event."""
    doc = {
        "_id": f"record-{next(_ids)}",
        "type": "record",
        "mid": "1",
        "hospital": "addenbrookes",
        "region": "east",
        "tumour_count": "1",
    }
    for field in SENSITIVE_RECORD_FIELDS:
        doc[field] = with_labels(field, labels) if labels else field
    return doc


def _application_db(name: str) -> Database:
    db = Database(name)
    define_application_views(db)
    return db


def test_put_plain(benchmark):
    db = _application_db("bench-plain")
    benchmark(lambda: db.put(_record_doc(LabelSet())))


def test_put_labeled(benchmark):
    db = _application_db("bench-labeled")
    benchmark(lambda: db.put(_record_doc(RECORD_LABELS)))


def test_replication_pass(benchmark):
    source = Database("bench-src")
    target = Database("bench-dst", read_only=True)
    replicator = Replicator(source, target)

    def one_pass():
        source.put(_labeled_doc())
        return replicator.replicate()

    result = benchmark(one_pass)
    assert result.docs_written == 1


def test_a4_report(benchmark, report):
    plain_db = _application_db("report-plain")
    labeled_db = _application_db("report-labeled")
    put_plain, put_labeled = measure_interleaved(
        lambda: plain_db.put(_record_doc(LabelSet())),
        lambda: labeled_db.put(_record_doc(RECORD_LABELS)),
        iterations=1500,
    )

    labeled_db.put({"_id": "read-me", "name": with_labels("alice", LABELS)})
    read_labeled = measure_latency(lambda: labeled_db.get("read-me"), iterations=1500)

    source = Database("report-src")
    target = Database("report-dst", read_only=True)
    for _ in range(100):
        source.put(_labeled_doc())
    incremental = Replicator(source, target)
    fresh_replication, incremental_pass = measure_interleaved(
        lambda: Replicator(source, target).replicate(),
        incremental.replicate,
        iterations=30,
        warmup=2,
    )

    benchmark(lambda: plain_db.put(_plain_doc()))
    report(
        "A4 — storage and replication cost\n"
        + format_table(
            ("operation", "median"),
            [
                ("record put (plain, 4 views)", f"{put_plain.median * 1e6:.2f} µs"),
                ("record put (10 labelled fields)", f"{put_labeled.median * 1e6:.2f} µs"),
                ("labelled / plain", f"{put_labeled.median / put_plain.median:.2f}x"),
                ("document get (labels re-attached)", f"{read_labeled.median * 1e6:.2f} µs"),
                ("full replication pass (100 docs)", f"{fresh_replication.median * 1e3:.3f} ms"),
                ("incremental pass (no changes)", f"{incremental_pass.median * 1e6:.2f} µs"),
            ],
        )
    )
    # Incremental replication must be cheap when there is nothing to move.
    low, high = INCREMENTAL_RATIO_BAND
    assert low < incremental_pass.median / fresh_replication.median < high
    low, high = LABELLED_PUT_RATIO_BAND
    assert low < put_labeled.median / put_plain.median < high
