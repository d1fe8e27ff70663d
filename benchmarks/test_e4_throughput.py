"""E4 (paper §5.3): end-to-end event throughput with/without label tracking.

Paper: a producer/consumer pair at maximum sustainable rate, sampled
once per second for 1000 seconds; throughput drops from 4455 to 3817
events/second (−17 %) with label tracking active.

Shape expectation: throughput with labels on is lower by a modest
fraction, not by integer factors. One run on a 2-core host read −22 %:
per event the protected side enters the event's labels and the jail
around the callback, replays the clearance plan and records the
delivery's audit decision, against a baseline that only records the
publish (docs/BENCHMARKS.md "The paper experiments"; the audit log's
part is docs/ENGINE.md "Why a fan-out is one audit entry").
"""

from benchmarks.harness import format_table, measure_interleaved
from repro.core.audit import AuditLog
from repro.core.labels import LabelSet
from repro.core.policy import parse_policy
from repro.events.broker import Broker
from repro.events.engine import EventProcessingEngine
from repro.events.event import Event
from repro.events.unit import Unit
from repro.mdt.labels import mdt_label

PAPER_BASELINE_EPS = 4455.0
PAPER_PROTECTED_EPS = 3817.0
# The paper quotes −17 % (the drop relative to the *tracked* rate:
# 638/3817 ≈ 16.7 %); relative to the baseline it is −14.3 %. We report
# the figure as printed in the paper.
PAPER_DROP_PERCENT = 17.0

EVENTS = 20_000
WINDOW = 2_000

#: protected / baseline events per second, ratio of window medians. The
#: paper reads 3817/4455 ≈ 0.86: lower by a modest fraction — not a
#: collapse, and not faster than the baseline by more than noise.
RATIO_BAND = (0.10, 1.10)

POLICY = parse_policy(
    """
    authority ecric.org.uk

    unit bench_consumer {
        clearance label:conf:ecric.org.uk/mdt
    }
    """
)


class _ConsumerUnit(Unit):
    """Minimal per-event work, like the paper's consumer."""

    unit_name = "bench_consumer"

    def setup(self) -> None:
        self.subscribe("/bench/events", self.on_event)

    def on_event(self, event: Event) -> None:
        # A tiny amount of attribute work so the callback is not empty.
        _value = event.get("n", "0")


def event_window(protected=True):
    """Build the producer/consumer pair; each call of the result publishes
    one window of :data:`WINDOW` events through it and returns the
    deliveries.

    ``protected=False`` — no broker label checks, no jail, unlabelled
    events — is the paper's baseline ("without label tracking").
    """
    audit = AuditLog(capacity=16)
    broker = Broker(label_checks=protected, audit=audit)
    engine = EventProcessingEngine(broker=broker, policy=POLICY, audit=audit, isolation=protected)
    engine.register(_ConsumerUnit())
    labels = LabelSet([mdt_label("1")]) if protected else LabelSet()

    def publish_window():
        delivered = 0
        for index in range(WINDOW):
            event = Event("/bench/events", {"n": str(index)}, labels=labels)
            delivered += broker.publish(event, publisher="bench_producer")
        return delivered

    return publish_window


def test_throughput_baseline(benchmark):
    delivered = benchmark.pedantic(
        event_window(protected=False), rounds=EVENTS // WINDOW, iterations=1
    )
    assert delivered == WINDOW


def test_throughput_with_label_tracking(benchmark):
    delivered = benchmark.pedantic(event_window(), rounds=EVENTS // WINDOW, iterations=1)
    assert delivered == WINDOW


def test_e4_report(benchmark, report):
    # Windows of the two variants alternate, as the paper sampled once
    # per second: a host phase lands in both medians alike.
    baseline, protected = (
        WINDOW / stats.median
        for stats in measure_interleaved(
            event_window(protected=False),
            event_window(),
            iterations=EVENTS // WINDOW,
            warmup=1,
        )
    )
    benchmark.extra_info["baseline_eps"] = baseline
    benchmark.extra_info["protected_eps"] = protected
    benchmark.pedantic(event_window(), rounds=1, iterations=1)

    report(
        "E4 — event throughput (paper: 4455 -> 3817 ev/s, -17%)\n"
        + format_table(
            ("variant", "paper", "measured (median window)"),
            [
                ("without label tracking", f"{PAPER_BASELINE_EPS:,.0f} ev/s",
                 f"{baseline:,.0f} ev/s"),
                ("with label tracking", f"{PAPER_PROTECTED_EPS:,.0f} ev/s",
                 f"{protected:,.0f} ev/s"),
                ("reduction", f"-{PAPER_DROP_PERCENT:.0f}%",
                 f"{(protected - baseline) / baseline * 100:+.1f}%"),
            ],
        )
    )

    low, high = RATIO_BAND
    assert low < protected / baseline < high, "label tracking must not collapse throughput"
