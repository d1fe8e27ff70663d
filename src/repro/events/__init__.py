"""The event-processing backend (paper §4.1–§4.3).

Application logic in SafeWeb is implemented as event processing units
that exchange labelled events through an IFC-aware broker, under the
control of an engine that tracks labels across callbacks and isolates
units inside an IFC jail.
"""

from repro.events.event import Event
from repro.events.context import LabelContext, current_labels, extend_labels
from repro.events.selector import Selector, parse_selector, selector_literal
from repro.events.broker import Broker, Subscription
from repro.events.store import LabeledStore
from repro.events.jail import Jail, isolate_callback
from repro.events.unit import Unit, unit_from_function
from repro.events.engine import EventProcessingEngine
from repro.events.cluster import ClusterEngine, ClusterRouter
from repro.events.lanes import EngineStats
from repro.events.supervision import (
    CircuitBreaker,
    SupervisionPolicy,
    Supervisor,
    dlq_topic,
)

__all__ = [
    "CircuitBreaker",
    "ClusterEngine",
    "ClusterRouter",
    "SupervisionPolicy",
    "Supervisor",
    "dlq_topic",
    "EngineStats",
    "Event",
    "LabelContext",
    "current_labels",
    "extend_labels",
    "Selector",
    "parse_selector",
    "selector_literal",
    "Broker",
    "Subscription",
    "LabeledStore",
    "Jail",
    "isolate_callback",
    "Unit",
    "unit_from_function",
    "EventProcessingEngine",
]
