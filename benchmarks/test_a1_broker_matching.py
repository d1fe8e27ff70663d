"""A1 (ablation): broker matching cost — topic vs selector vs label filter.

DESIGN.md calls out label filtering at the broker as a core design
choice; this ablation isolates its cost from topic matching and SQL-92
selector evaluation.
"""

from repro.bench.reporting import format_table
from repro.bench.timing import measure_interleaved
from repro.core.audit import AuditLog
from repro.core.labels import LabelSet
from repro.core.privileges import PrivilegeSet
from repro.events.broker import Broker
from repro.events.event import Event
from repro.mdt.labels import mdt_label, mdt_label_root

SUBSCRIBERS = 50


def _broker(label_checks: bool, selector=None, clearance=None) -> Broker:
    broker = Broker(label_checks=label_checks, audit=AuditLog(capacity=16))
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
    benchmark(lambda: variants["topic only"][0].publish(PLAIN))
    report(
        f"A1 — broker matching cost ({SUBSCRIBERS} subscribers)\n"
        + format_table(("matching mode", "median"), rows)
    )
