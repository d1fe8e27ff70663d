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
from typing import List, Optional

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


def measure_throughput(
    events: int = 20_000,
    label_checks: bool = True,
    isolation: bool = True,
    labelled_events: bool = True,
    window: int = 2_000,
    audit: Optional[AuditLog] = None,
) -> ThroughputResult:
    """Run the producer/consumer pair and measure sustained throughput.

    ``label_checks=False`` + ``isolation=False`` + unlabelled events is
    the paper's baseline ("without label tracking"); the default is the
    SafeWeb configuration.
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
    window_rates: List[float] = []
    window_started = time.perf_counter()
    started = window_started

    for index in range(events):
        event = Event("/bench/events", {"n": str(index)}, labels=labels)
        broker.publish(event, publisher="bench_producer")
        if window and (index + 1) % window == 0:
            now = time.perf_counter()
            window_rates.append(window / (now - window_started))
            window_started = now
    elapsed = time.perf_counter() - started

    return ThroughputResult(
        events=events,
        elapsed=elapsed,
        window_rates=window_rates,
        label_checks=label_checks,
        isolation=isolation,
    )
