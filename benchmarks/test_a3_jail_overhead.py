"""A3 (ablation): IFC jail and labelled-store overhead.

Prices the isolation machinery of §4.3 piece by piece: containment
entry/exit, the audit-hook tax on an allowed audited operation (``id(x)``,
which ``copy.deepcopy`` raises once per object), scope isolation at
registration, and labelled store reads/writes of an aggregator-shaped
record — outside the jail and inside it, where units actually run them.
"""

from benchmarks.harness import format_table, measure_interleaved, overhead_percent
from repro.core.labels import LabelSet
from repro.core.principals import UnitPrincipal
from repro.core.privileges import PrivilegeSet
from repro.events.context import LabelContext
from repro.events.jail import Jail, isolate_callback
from repro.events.store import LabeledStore
from repro.mdt.labels import mdt_label

JAIL = Jail()

#: jailed / unjailed, ratio of medians, for a 50-iteration loop: the
#: containment entry/exit is per callback, so it may cost a few times a
#: trivial body — never orders of magnitude, and never less than nothing.
CONTAINMENT_RATIO_BAND = (0.50, 20.00)
LABELS = LabelSet([mdt_label("1")])

#: The shape ``DataAggregator.on_report`` keeps per case (mdt/aggregator.py).
RECORD = {
    "patient_id": "p-17",
    "patient_name": "Alice Example",
    "hospital": "addenbrookes",
    "mdt_id": "1",
    "region": "region-1",
    "site": "C50",
    "stage": "II",
    "diagnosis_date": "2010-03-01",
    "treatments": "surgery;chemotherapy",
    "outcomes": "alive",
    "tumours": [{"tumour_id": f"t{n}", "site": "C50", "stage": "II"} for n in range(3)],
    "sources": ["p-17=Alice Example"],
}


def _work():
    return sum(range(50))


def _work_jailed():
    with JAIL.contained():
        return sum(range(50))


def _audited(iterations=100):
    # ``id`` raises the allowed ``builtins.id`` audit event: the hook runs.
    for _ in range(iterations):
        id(RECORD)


def _audited_jailed():
    with JAIL.contained():
        _audited()


def test_containment_entry_exit(benchmark):
    benchmark(_work_jailed)


def test_allowed_audit_event_jailed(benchmark):
    benchmark(_audited_jailed)


def test_labeled_store_round_trip_jailed(benchmark):
    store = LabeledStore(UnitPrincipal("bench", privileges=PrivilegeSet.empty()))

    def round_trip():
        store.set("key", store.get("key", RECORD))

    with LabelContext(LABELS), JAIL.contained():
        benchmark(round_trip)


def test_isolation_clone_cost(benchmark):
    state = {"n": 0}

    def handler(event):
        return state["n"]

    benchmark(lambda: isolate_callback(handler))


def test_labeled_store_write(benchmark):
    store = LabeledStore(UnitPrincipal("bench", privileges=PrivilegeSet.empty()))
    with LabelContext(LABELS):
        benchmark(lambda: store.set("key", {"rows": [1, 2, 3]}))


def test_a3_report(benchmark, report):
    plain, jailed = measure_interleaved(_work, _work_jailed, iterations=3000, warmup=200)

    store = LabeledStore(UnitPrincipal("bench", privileges=PrivilegeSet.empty()))
    with LabelContext(LABELS):
        store.set("key", {"rows": [1, 2, 3]})
        (write,) = measure_interleaved(
            lambda: store.set("key", {"rows": [1, 2, 3]}), iterations=2000
        )
        (read,) = measure_interleaved(lambda: store.get("key"), iterations=2000)

        store.set("record", RECORD)
        with JAIL.contained():
            (jailed_write,) = measure_interleaved(
                lambda: store.set("record", RECORD), iterations=2000
            )
            (jailed_read,) = measure_interleaved(lambda: store.get("record"), iterations=2000)

    audited, audited_jailed = measure_interleaved(
        _audited, _audited_jailed, iterations=2000, warmup=200
    )

    def handler(event):
        return event

    (clone,) = measure_interleaved(lambda: isolate_callback(handler), iterations=1000)
    benchmark(_work_jailed)

    report(
        "A3 — jail and labelled-store overhead\n"
        + format_table(
            ("operation", "median"),
            [
                ("50-iteration loop, unjailed", f"{plain.median * 1e6:.2f} µs"),
                ("50-iteration loop, jailed", f"{jailed.median * 1e6:.2f} µs"),
                ("containment overhead", f"+{overhead_percent(plain.median, jailed.median):.0f}%"),
                ("100 × id(x), unjailed", f"{audited.median * 1e6:.2f} µs"),
                ("100 × id(x), jailed", f"{audited_jailed.median * 1e6:.2f} µs"),
                ("audit-hook tax per allowed event",
                 f"{(audited_jailed.median - audited.median) * 1e7:.0f} ns"),
                ("isolate_callback (at registration)", f"{clone.median * 1e6:.2f} µs"),
                ("labelled store write", f"{write.median * 1e6:.2f} µs"),
                ("labelled store read", f"{read.median * 1e6:.2f} µs"),
                ("case record write, jailed", f"{jailed_write.median * 1e6:.2f} µs"),
                ("case record read, jailed", f"{jailed_read.median * 1e6:.2f} µs"),
            ],
        )
    )
    # Containment is per-callback, so it must be cheap relative to real work.
    low, high = CONTAINMENT_RATIO_BAND
    assert low < jailed.median / plain.median < high
