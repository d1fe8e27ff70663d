"""The seed delivery path, preserved as an executable specification.

The broker now decides §4.2 once per route and label set (a clearance
plan) and the engine enters each delivery's security context in one
frame. This module keeps what they replaced:

* :class:`ReferenceBroker` asks :meth:`Subscription.cleared_for` for
  every candidate at its turn, for every event, and resolves candidates
  with the linear matcher of :mod:`tests.reference.topics` behind the
  same per-topic cache (so ``index_hits`` / ``route_cache_hits`` count
  alike);
* :class:`ReferenceEngine` wires each subscription through the seed's
  closure → ``_run_callback`` → ``_invoke`` ladder, where every attempt
  enters a ``LabelContext`` and a jail containment object.

``tests/property/test_delivery_plan.py`` holds the package to both:
same deliveries in the same order, same ``BrokerStats`` and
``EngineStats``, the same audit entries in order, the same ambient
labels and jail state seen by every callback.

One thing here is not the seed's: the audit order of a fan-out. The
broker writes a publish's delivery decisions when its loop returns, as
one contiguous run after every record its callbacks made, so
:class:`ReferenceBroker` keeps its decisions in a list and records
them, one :meth:`~repro.core.audit.AuditLog.note` each, in its
``finally``.

Do not "improve" this module; it is deliberately the slow, obviously
correct version.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.core.audit import ALLOWED, DENIED
from repro.core.principals import UnitPrincipal
from repro.events.broker import Broker, Subscription
from repro.events.context import LabelContext
from repro.events.engine import EventProcessingEngine
from repro.events.event import Event
from repro.events.jail import Jail, isolate_callback
from repro.exceptions import SecurityViolation

from tests.reference.topics import match_topic

#: The seed broker's bound on its topic → candidate cache.
ROUTE_CACHE_LIMIT = 4096


class ReferenceBroker(Broker):
    """A broker whose delivery is the seed's per-candidate loop."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._seed_routes: Dict[str, Sequence[Subscription]] = {}

    def subscribe(self, *args, **kwargs) -> Subscription:
        subscription = super().subscribe(*args, **kwargs)
        with self._lock:
            self._seed_routes.clear()
        return subscription

    def unsubscribe(self, subscription_id: str) -> None:
        with self._lock:
            if subscription_id in self._subscriptions:
                self._seed_routes.clear()
            super().unsubscribe(subscription_id)

    def _candidates(self, topic: str, counts) -> Sequence[Subscription]:
        candidates = self._seed_routes.get(topic)
        if candidates is not None:
            counts.route_cache_hits += 1
            return candidates
        with self._lock:
            # The subscriptions dict keeps registration order.
            candidates = tuple(
                subscription
                for subscription in self._subscriptions.values()
                if match_topic(subscription.topic, topic)
            )
            counts.index_hits += 1
            if len(self._seed_routes) >= ROUTE_CACHE_LIMIT:
                self._seed_routes.clear()
            self._seed_routes[topic] = candidates
        return candidates

    def _deliver(self, event: Event, counts) -> int:
        candidates = self._candidates(event.topic, counts)
        counts.candidates += len(candidates)
        labels = event.labels
        delivered = 0
        decisions = []
        try:
            for subscription in candidates:
                if not subscription.active:
                    continue
                selector = subscription.selector
                if selector is not None and not selector.matches(event.attributes):
                    counts.selector_filtered += 1
                    continue
                if self._label_checks and not subscription.cleared_for(event):
                    counts.label_filtered += 1
                    decisions.append(
                        (
                            subscription.principal,
                            DENIED,
                            f"subscription {subscription.subscription_id} lacks clearance",
                        )
                    )
                    continue
                try:
                    subscription.callback(event)
                    delivered += 1
                    if self._label_checks:
                        decisions.append((subscription.principal, ALLOWED, ""))
                except Exception as exc:  # noqa: BLE001 - a failing subscriber must not stop others
                    counts.errors += 1
                    decisions.append((subscription.principal, DENIED, f"callback error: {exc!r}"))
                    if self._raise_errors:
                        raise
        finally:
            counts.delivered += delivered
            for principal, decision, detail in decisions:
                self._audit.note("broker", "deliver", principal, decision, labels, detail)
        return delivered


class ReferenceEngine(EventProcessingEngine):
    """An engine whose deliveries run the seed's three-call ladder."""

    def _register_subscription(
        self,
        services,
        topic: str,
        handler,
        selector: Optional[str],
        require_integrity=None,
    ) -> None:
        principal = services.principal
        if self.isolation and not principal.privileged:
            callback = isolate_callback(handler)
        else:
            callback = handler
        deliver_point = f"engine.deliver:{principal.name}"

        def deliver(event: Event) -> None:
            if self._faults_active:
                self._faults.hit(deliver_point)
            self._seed_run_callback(principal, callback, event)

        self.broker.subscribe(
            topic,
            deliver,
            principal=principal.name,
            clearance=principal.effective_clearance(),
            selector=selector,
            require_integrity=require_integrity,
        )

    def _seed_run_callback(self, principal: UnitPrincipal, callback, event: Event) -> None:
        self.stats.cell().dispatched += 1
        supervisor = self.supervisor
        unit_sup = None
        if supervisor is not None:
            unit_sup = supervisor.unit(principal.name)
            if unit_sup.suspended:
                self._dead_letter(principal, event, "unit suspended", attempts=0)
                return
        attempts = 1
        while True:
            try:
                self._seed_invoke(principal, callback, event)
                return
            except SecurityViolation as violation:
                self._callback_denied(principal, event, f"{type(violation).__name__}: {violation}")
                if self.raise_callback_errors:
                    raise
                return
            except Exception as error:  # noqa: BLE001 - unit bugs must not kill the engine
                if unit_sup is None:
                    self._callback_denied(principal, event, f"unit error: {error!r}")
                    if self.raise_callback_errors:
                        raise
                    return
                self._callback_denied(
                    principal, event, f"unit error (attempt {attempts}): {error!r}"
                )
                if supervisor.retryable(error) and attempts <= supervisor.policy.retry_budget:
                    self.stats.cell().retries += 1
                    attempts += 1
                    continue
                self._dead_letter(principal, event, repr(error), attempts=attempts)
                self._handle_unit_failure(unit_sup, principal)
                return

    def _seed_invoke(self, principal: UnitPrincipal, callback, event: Event) -> None:
        if self._faults_active:
            self._faults.hit(f"engine.callback.before:{principal.name}")
        with LabelContext(event.labels):
            if self.isolation and not principal.privileged:
                with self._jail.contained():
                    callback(event)
            elif principal.privileged:
                with Jail.lifted():
                    callback(event)
            else:
                callback(event)
        if self._faults_active:
            self._faults.hit(f"engine.callback.after:{principal.name}")


def audit_entries(audit) -> Sequence[Tuple[str, str, str, str, object, str]]:
    """The comparable part of every record: no id, no timestamp."""
    return [
        (
            record.component,
            record.operation,
            record.principal,
            record.decision,
            record.labels,
            record.detail,
        )
        for record in audit.records()
    ]
