"""End-to-end event throughput measurement (paper §5.3, experiment E4).

The paper's synthetic benchmark: a producer and a consumer unit, the
producer publishing at the maximum sustainable rate, throughput sampled
once per second. With label tracking active the paper sees 4455 → 3817
events/second (−17 %).

This harness reproduces the topology — producer events flow through the
broker to a consumer unit under the engine — and measures sustained
events/second over a configurable number of events, sampling in windows
so the per-window variance is observable like the paper's per-second
sampling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.audit import AuditLog
from repro.core.labels import LabelSet
from repro.core.policy import parse_policy
from repro.events.broker import Broker
from repro.events.engine import EventProcessingEngine
from repro.events.event import Event
from repro.events.unit import Unit
from repro.mdt.labels import mdt_label

_THROUGHPUT_POLICY = parse_policy(
    """
    authority ecric.org.uk

    unit bench_consumer {
        clearance label:conf:ecric.org.uk/mdt
    }
    """
)


class _ConsumerUnit(Unit):
    """Counts deliveries; minimal per-event work like the paper's consumer."""

    unit_name = "bench_consumer"

    def setup(self) -> None:
        self.subscribe("/bench/events", self.on_event)

    def on_event(self, event: Event) -> None:
        # A tiny amount of attribute work so the callback is not empty.
        _value = event.get("n", "0")


@dataclass
class ThroughputResult:
    """Outcome of one throughput run."""

    events: int
    elapsed: float
    window_rates: List[float] = field(default_factory=list)
    label_checks: bool = True
    isolation: bool = True

    @property
    def events_per_second(self) -> float:
        if self.elapsed == 0:
            return 0.0
        return self.events / self.elapsed

    def __repr__(self) -> str:
        return (
            f"ThroughputResult({self.events_per_second:,.0f} ev/s over "
            f"{self.events} events, labels={self.label_checks}, jail={self.isolation})"
        )


def event_window(
    window: int = 2_000,
    label_checks: bool = True,
    isolation: bool = True,
    labelled_events: bool = True,
    audit: Optional[AuditLog] = None,
) -> Callable[[], None]:
    """Build the producer/consumer pair; each call of the result
    publishes one window of *window* events through it.

    ``label_checks=False`` + ``isolation=False`` + unlabelled events is
    the paper's baseline ("without label tracking"); the default is the
    SafeWeb configuration. Two variants are compared by sampling their
    windows alternately (:func:`repro.bench.timing.measure_interleaved`),
    as the paper sampled once per second.
    """
    audit = audit if audit is not None else AuditLog(capacity=16)
    broker = Broker(label_checks=label_checks, audit=audit)
    engine = EventProcessingEngine(
        broker=broker,
        policy=_THROUGHPUT_POLICY,
        audit=audit,
        isolation=isolation,
    )
    engine.register(_ConsumerUnit())
    labels = LabelSet([mdt_label("1")]) if labelled_events else LabelSet()

    def publish_window() -> None:
        for index in range(window):
            event = Event("/bench/events", {"n": str(index)}, labels=labels)
            broker.publish(event, publisher="bench_producer")

    return publish_window


def measure_throughput(
    events: int = 20_000,
    label_checks: bool = True,
    isolation: bool = True,
    labelled_events: bool = True,
    window: int = 2_000,
    audit: Optional[AuditLog] = None,
) -> ThroughputResult:
    """Run one :func:`event_window` variant and measure sustained throughput."""
    window = min(window, events)
    publish_window = event_window(window, label_checks, isolation, labelled_events, audit)
    window_rates: List[float] = []
    started = time.perf_counter()
    for _ in range(events // window):
        window_started = time.perf_counter()
        publish_window()
        window_rates.append(window / (time.perf_counter() - window_started))
    elapsed = time.perf_counter() - started

    return ThroughputResult(
        events=len(window_rates) * window,
        elapsed=elapsed,
        window_rates=window_rates,
        label_checks=label_checks,
        isolation=isolation,
    )
