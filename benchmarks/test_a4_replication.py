"""A4 (ablation): replication and label-persistence cost (requirement S1).

Prices the S1 machinery: document writes with and without label sidecars,
push replication passes, and the read-back that re-attaches labels.
"""

import itertools

from repro.bench.reporting import format_table
from repro.bench.timing import measure_interleaved, measure_latency
from repro.core.labels import LabelSet
from repro.mdt.labels import mdt_label
from repro.storage.docstore import Database
from repro.storage.replication import Replicator
from repro.taint import with_labels

LABELS = LabelSet([mdt_label("1")])

#: incremental pass (nothing to move) / full pass (100 documents), ratio
#: of medians: a checkpoint read against a hundred writes — a small
#: fraction, whatever the host is doing.
INCREMENTAL_RATIO_BAND = (0.0001, 0.50)
_ids = itertools.count()


def _plain_doc() -> dict:
    return {"_id": f"doc-{next(_ids)}", "name": "alice", "stage": "2", "n": 3}


def _labeled_doc() -> dict:
    doc = _plain_doc()
    doc["name"] = with_labels(doc["name"], LABELS)
    doc["stage"] = with_labels(doc["stage"], LABELS)
    return doc


def test_put_plain(benchmark):
    db = Database("bench-plain")
    benchmark(lambda: db.put(_plain_doc()))


def test_put_labeled(benchmark):
    db = Database("bench-labeled")
    benchmark(lambda: db.put(_labeled_doc()))


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
    plain_db = Database("report-plain")
    labeled_db = Database("report-labeled")
    put_plain, put_labeled = measure_interleaved(
        lambda: plain_db.put(_plain_doc()),
        lambda: labeled_db.put(_labeled_doc()),
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
                ("document put (plain)", f"{put_plain.median * 1e6:.2f} µs"),
                ("document put (labeled sidecar)", f"{put_labeled.median * 1e6:.2f} µs"),
                ("document get (labels re-attached)", f"{read_labeled.median * 1e6:.2f} µs"),
                ("full replication pass (100 docs)", f"{fresh_replication.median * 1e3:.3f} ms"),
                ("incremental pass (no changes)", f"{incremental_pass.median * 1e6:.2f} µs"),
            ],
        )
    )
    # Incremental replication must be cheap when there is nothing to move.
    low, high = INCREMENTAL_RATIO_BAND
    assert low < incremental_pass.median / fresh_replication.median < high
