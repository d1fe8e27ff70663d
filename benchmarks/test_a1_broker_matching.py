"""A1 (ablation): broker matching cost — topic vs selector vs label filter.

DESIGN.md calls out label filtering at the broker as a core design
choice; this ablation isolates its cost from topic matching and SQL-92
selector evaluation.

The per-publish *median* cannot see a cost paid once in many publishes:
with 50 decisions a publish, the default ``AuditLog`` flushes 4,096
pending entries in one publish of about 80, and the other 79 are the
median. So the two label-filter variants are also priced *amortised* —
whole windows of publishes on a default-capacity log, alternated through
the same sampler — and the report asserts a band on amortised ÷ median:
1.2 to 1.7 while a flush only counts and moves raw entries (that still
costs about as much per decision as recording one), 3 to 6.5 when it
formatted every one of them (docs/BENCHMARKS.md "PR 22").
"""

import gc

from repro.bench.reporting import format_table
from repro.bench.timing import measure_interleaved
from repro.core.audit import AuditLog
from repro.core.labels import LabelSet
from repro.core.privileges import PrivilegeSet
from repro.events.broker import Broker
from repro.events.event import Event
from repro.mdt.labels import mdt_label, mdt_label_root

SUBSCRIBERS = 50
#: Publishes per amortised sample: ≈ 60 flushes of the default log each.
WINDOW = 5_000
WINDOWS = 5

#: amortised ÷ median publish for a label-filter variant, same broker,
#: collector off. 1 would mean "no publish is dearer than the median";
#: the flush's count-and-move of 4,096 raw entries puts it at 1.2–1.7.
AMORTISED_RATIO_BAND = (0.80, 2.50)


def _broker(label_checks: bool, selector=None, clearance=None, audit=None) -> Broker:
    # "is None", not "or": an empty AuditLog has length 0 and is falsy.
    broker = Broker(
        label_checks=label_checks, audit=AuditLog(capacity=16) if audit is None else audit
    )
    for _ in range(SUBSCRIBERS):
        broker.subscribe(
            "/bench/topic",
            lambda event: None,
            clearance=clearance,
            selector=selector,
        )
    return broker


LABELED = Event("/bench/topic", {"type": "cancer", "stage": "2"}, labels=[mdt_label("1")])
PLAIN = Event("/bench/topic", {"type": "cancer", "stage": "2"})
CLEARED = PrivilegeSet({"clearance": [mdt_label_root()]})


def test_topic_only_matching(benchmark):
    broker = _broker(label_checks=False)
    assert benchmark(lambda: broker.publish(PLAIN)) == SUBSCRIBERS


def test_selector_matching(benchmark):
    broker = _broker(label_checks=False, selector="type = 'cancer' AND stage > 1")
    assert benchmark(lambda: broker.publish(PLAIN)) == SUBSCRIBERS


def test_label_filter_pass(benchmark):
    broker = _broker(label_checks=True, clearance=CLEARED)
    assert benchmark(lambda: broker.publish(LABELED)) == SUBSCRIBERS


def test_label_filter_deny(benchmark):
    broker = _broker(label_checks=True)  # no clearance: all filtered
    assert benchmark(lambda: broker.publish(LABELED)) == 0


def test_a1_report(benchmark, report):
    variants = {
        "topic only": (_broker(label_checks=False), PLAIN),
        "topic + selector": (
            _broker(label_checks=False, selector="type = 'cancer' AND stage > 1"),
            PLAIN,
        ),
        "topic + label filter (cleared)": (
            _broker(label_checks=True, clearance=CLEARED),
            LABELED,
        ),
        "topic + label filter (denied)": (_broker(label_checks=True), LABELED),
    }
    samples = measure_interleaved(
        *(lambda b=broker, e=event: b.publish(e) for broker, event in variants.values()),
        iterations=400,
    )
    rows = [
        (name, f"{stats.median * 1e6:.1f} µs/publish") for name, stats in zip(variants, samples)
    ]

    # The label-filter variants again, on the log deployments run with.
    audited = {
        "label filter (cleared)": _broker(True, clearance=CLEARED, audit=AuditLog()),
        "label filter (denied)": _broker(True, audit=AuditLog()),
    }

    def window(broker: Broker):
        def publish_window() -> None:
            for _ in range(WINDOW):
                broker.publish(LABELED)

        return publish_window

    # Collector off, as ``timeit`` does: a full collection costs what the
    # pytest process's heap weighs, and would land in the windows only.
    collecting = gc.isenabled()
    gc.disable()
    try:
        medians = measure_interleaved(
            *(lambda b=broker: b.publish(LABELED) for broker in audited.values()),
            iterations=400,
        )
        windows = measure_interleaved(
            *(window(broker) for broker in audited.values()), iterations=WINDOWS, warmup=1
        )
    finally:
        if collecting:
            gc.enable()
    ratios = {}
    for name, single, whole in zip(audited, medians, windows):
        amortised = whole.median / WINDOW
        ratios[name] = amortised / single.median
        rows.append((f"{name}, default log: median", f"{single.median * 1e6:.1f} µs/publish"))
        rows.append(
            (
                f"{name}, default log: amortised",
                f"{amortised * 1e6:.1f} µs/publish ({ratios[name]:.2f} × median)",
            )
        )
    benchmark.extra_info["amortised_over_median"] = ratios
    benchmark(lambda: variants["topic only"][0].publish(PLAIN))
    report(
        f"A1 — broker matching cost ({SUBSCRIBERS} subscribers)\n"
        + format_table(("matching mode", "per publish"), rows)
    )
    low, high = AMORTISED_RATIO_BAND
    for name, ratio in ratios.items():
        assert low < ratio < high, f"{name}: amortised/median publish {ratio:.2f}"
