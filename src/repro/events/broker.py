"""The IFC-aware event broker (paper §4.2).

Units communicate by publishing events and subscribing to topics, with
optional SQL-92 content selectors. The broker filters events by security
label: *for an event to be delivered to a subscriber, the set of its
confidentiality labels must be a subset of those labels for which the
subscriber possesses clearance privileges*. Label filtering is silent —
an uncleared subscriber simply never sees the event — but every decision
is recorded in the audit log.

Subscriptions carry unique identifiers (the paper's extension to STOMP)
so multiple subscriptions from one unit are tracked independently.

Topic patterns support exact segments, ``*`` (one segment) and a trailing
``#`` (any remaining segments), e.g. ``/mdt/*/report`` or ``/patient/#``.

Delivery fast path
------------------

Publish cost is kept independent of the number of subscriptions through
three layers, none of which weakens a check:

1. each concrete topic's candidate list is found once, by one pass over
   the subscriptions in registration order (:func:`_matches`, held to
   the seed matcher ``tests/reference/topics.py`` by
   ``tests/property/test_topic_index.py``), and cached as a route until
   the next subscribe or unsubscribe;
2. selector evaluation uses compiled closures, and identical selector
   objects (shared via the parse cache) are evaluated once per publish;
3. the §4.2 clearance decisions of a route are made once per label set
   (a *clearance plan*: one decision per candidate, in route order) and
   replayed for every later event with that label set; a plan is
   dropped with its route (subscribe, unsubscribe, cache limit) and when
   a subscription's clearance or required integrity is reassigned. A
   publish's delivery decisions go to the audit log as one entry
   (:meth:`~repro.core.audit.AuditLog.note_fanout`), written when the
   loop returns.

:class:`BrokerStats` exposes ``index_hits`` (route builds) and
``route_cache_hits`` so benchmarks (A1/E4) can attribute wins to each
layer.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.audit import ALLOWED, DENIED, AuditLog, Decision, default_audit_log
from repro.core.labels import EMPTY_LABELS, LabelSet
from repro.core.privileges import PrivilegeSet
from repro.events.event import Event
from repro.events.selector import Selector, parse_selector
from repro.exceptions import SafeWebError
from repro.faults import NULL_FAULTS, FaultInjector
from repro.telemetry import Counters

_subscription_ids = itertools.count(1)

#: Bound on the topic → candidate-list cache; publishes to more distinct
#: topics than this simply rebuild entries with another pass.
_ROUTE_CACHE_LIMIT = 4096

#: Bound on the clearance plans kept over all routes; past it every plan
#: is dropped and rebuilt on demand.
_PLAN_CACHE_LIMIT = 4096


def _matches(pattern: Tuple[str, ...], topic: Tuple[str, ...]) -> bool:
    """The seed's segment rules: ``*`` matches exactly one segment and a
    trailing ``#`` one or more. A non-final ``#`` matches nothing, so such
    a pattern matches only its own raw string (the caller's equality test).
    """
    last = len(pattern) - 1
    for index, part in enumerate(pattern):
        if part == "#":
            return index == last and index < len(topic)
        if index >= len(topic) or (part != "*" and part != topic[index]):
            return False
    return len(pattern) == len(topic)


class Subscription:
    """A registered subscription with its security context.

    :attr:`clearance` and :attr:`require_integrity` are properties whose
    setters drop the broker's clearance plans; every other attribute is
    a plain slot (a dataclass ``__setattr__`` hook would tax each one).
    """

    __slots__ = (
        "subscription_id",
        "topic",
        "callback",
        "principal",
        "_clearance",
        "selector",
        "_require_integrity",
        "active",
        "segments",
        "_allowed",
        "_denied",
        "_replan",
    )

    def __init__(
        self,
        subscription_id: str,
        topic: str,
        callback: Callable[[Event], None],
        principal: str,
        clearance: PrivilegeSet,
        selector: Optional[Selector] = None,
        require_integrity: Optional[LabelSet] = None,
        active: bool = True,
    ):
        self.subscription_id = subscription_id
        self.topic = topic
        self.callback = callback
        self.principal = principal
        self._clearance = clearance
        self.selector = selector
        self._require_integrity = LabelSet() if require_integrity is None else require_integrity
        self.active = active
        #: Pre-split topic segments, computed once at subscribe time.
        self.segments = tuple(topic.strip("/").split("/"))
        #: The audit decisions a delivery loop plans are
        #: subscription-constant (:meth:`AuditLog.note_fanout`'s
        #: (principal, decision, detail)); build them once instead of
        #: per delivered or filtered event.
        self._allowed = (principal, ALLOWED, "")
        self._denied = (principal, DENIED, f"subscription {subscription_id} lacks clearance")
        #: Set by the broker: drops the clearance plans decided on the old
        #: value when :attr:`clearance` or :attr:`require_integrity` is
        #: reassigned.
        self._replan: Optional[Callable[[], None]] = None

    def __repr__(self) -> str:
        return (
            f"Subscription({self.subscription_id!r}, {self.topic!r}, "
            f"principal={self.principal!r}, active={self.active!r})"
        )

    @property
    def clearance(self) -> PrivilegeSet:
        return self._clearance

    @clearance.setter
    def clearance(self, value: PrivilegeSet) -> None:
        self._clearance = value
        if self._replan is not None:
            self._replan()

    @property
    def require_integrity(self) -> LabelSet:
        return self._require_integrity

    @require_integrity.setter
    def require_integrity(self, value: LabelSet) -> None:
        self._require_integrity = value
        if self._replan is not None:
            self._replan()

    def cleared_for(self, event: Event) -> bool:
        """The §4.2 label check: clearance covers the event's
        confidentiality labels and the event meets
        :attr:`require_integrity`.

        The broker asks once per route and label set, when it builds a
        clearance plan (:meth:`Broker._plan`), and replays the answer.
        Assigning a new :attr:`clearance` (a grant, a revoke) or
        :attr:`require_integrity` drops those plans, and
        ``clearance_covers`` memoises per label set on the immutable
        :class:`PrivilegeSet` itself, so the new value is all the
        invalidation there is."""
        labels = event.labels
        if not self._clearance.clearance_covers(labels):
            return False
        required = self._require_integrity
        # Label sets are interned: identity spares the common case a
        # Python-level ``__bool__`` per delivery.
        return required is EMPTY_LABELS or labels.meets_integrity(required)


class BrokerStats(Counters):
    """Counters used by the throughput benchmarks (E4, A1).

    ``index_hits`` counts deliveries whose route was built (a pass over
    every subscription; the name predates the one-pass build and stays
    because the benchmark harness reads it), ``route_cache_hits`` those
    served straight from the per-topic route cache, and ``candidates``
    the candidate subscriptions examined across deliveries.
    """

    NAMES = (
        "published",
        "delivered",
        "label_filtered",
        "selector_filtered",
        "errors",
        "index_hits",
        "route_cache_hits",
        "candidates",
    )
    __slots__ = ()


#: A prepared candidate: (subscription, callback, compiled selector
#: matcher or None, selector identity for per-publish memoization, §4.2
#: decision). In a route's ``entries`` the decision is True (what the
#: loop runs with label checks off); a clearance plan carries the real one.
_RouteEntry = Tuple[
    Subscription, Callable[[Event], None], Optional[Callable], Optional[Selector], bool
]


class _Route:
    """The prepared candidates of one concrete topic."""

    __slots__ = ("entries", "plans")

    def __init__(self, entries: Sequence[_RouteEntry]):
        self.entries = entries
        #: Label set → the entries with their §4.2 decisions (Broker._plan).
        self.plans: Dict[LabelSet, Sequence[_RouteEntry]] = {}


class Broker:
    """Topic/content/label-matching event broker.

    Every delivery runs on the thread that publishes, inside the
    :meth:`publish` call: a cascade published by a subscriber nests in
    the delivery that caused it. Behind a
    :class:`~repro.events.stomp.server.StompServer` that thread is the
    publishing connection's handler, so a SEND's RECEIPT is written only
    after the event has been delivered, registered in flight or audited
    as denied. A delivery into a STOMP connection queues a frame on that
    connection's link and wakes its I/O thread with a ``send`` on a
    socketpair trusted code created, which raises no audit event, so a
    jailed publisher's deliveries need nothing the jail denies.
    """

    def __init__(
        self,
        audit: Optional[AuditLog] = None,
        label_checks: bool = True,
        raise_errors: bool = False,
        faults: FaultInjector = NULL_FAULTS,
    ):
        self._lock = threading.RLock()
        self._subscriptions: Dict[str, Subscription] = {}
        self._audit = audit if audit is not None else default_audit_log()
        # Fault-injection hook (repro.faults); the publish hot path skips
        # instrumentation entirely when nothing is armed.
        self._faults = faults
        self._faults_active = faults is not NULL_FAULTS
        self._label_checks = label_checks
        #: When True (in-process deployments), subscriber exceptions
        #: propagate to the publisher instead of being contained — the
        #: engine relies on this to surface SecurityViolations in tests.
        self._raise_errors = raise_errors
        self._routes: Dict[str, _Route] = {}
        #: Clearance plans held over all routes (bounded by _PLAN_CACHE_LIMIT).
        self._planned = 0
        self.stats = BrokerStats()

    def drain(self, timeout: float = 5.0) -> bool:
        """True at once: every publish has delivered before it returns.

        Kept as the broker surface :meth:`EventProcessingEngine.drain`
        calls (a :class:`~repro.events.cluster.ClusterRouter` has real
        work to wait for).
        """
        return True

    # -- subscription management ------------------------------------------------

    def subscribe(
        self,
        topic: str,
        callback: Callable[[Event], None],
        principal: str = "anonymous",
        clearance: Optional[PrivilegeSet] = None,
        selector: Optional[str | Selector] = None,
        subscription_id: Optional[str] = None,
        require_integrity: LabelSet | None = None,
    ) -> Subscription:
        if isinstance(selector, str):
            selector = parse_selector(selector)
        subscription = Subscription(
            subscription_id=subscription_id or f"sub-{next(_subscription_ids)}",
            topic=topic,
            callback=callback,
            principal=principal,
            clearance=clearance or PrivilegeSet.empty(),
            selector=selector,
            require_integrity=require_integrity or LabelSet(),
        )
        with self._lock:
            if subscription.subscription_id in self._subscriptions:
                raise SafeWebError(
                    f"duplicate subscription id {subscription.subscription_id!r}"
                )
            self._subscriptions[subscription.subscription_id] = subscription
            self._clear_routes()
            subscription._replan = self._drop_plans
        return subscription

    def unsubscribe(self, subscription_id: str) -> None:
        with self._lock:
            subscription = self._subscriptions.pop(subscription_id, None)
            if subscription is not None:
                self._clear_routes()
        if subscription is not None:
            subscription.active = False

    def subscriptions_for(self, principal: str) -> List[Subscription]:
        with self._lock:
            return [s for s in self._subscriptions.values() if s.principal == principal]

    def __len__(self) -> int:
        with self._lock:
            return len(self._subscriptions)

    # -- publication ---------------------------------------------------------------

    def publish(self, event: Event, publisher: str = "anonymous") -> int:
        """Publish an event; returns the number of deliveries.

        A fault at ``broker.publish`` raises *to the publisher*
        before the event is accepted — fail-stop, never silent: the
        caller knows the event did not enter the broker.
        """
        if self._faults_active:
            self._faults.hit("broker.publish")
        counts = self.stats.cell()
        counts.published += 1
        self._audit.note("broker", "publish", publisher, ALLOWED, event.labels)
        return self._deliver(event, counts)

    def publish_many(self, events: Iterable[Event], publisher: str = "anonymous") -> int:
        """Publish a batch of events; returns total deliveries.

        Semantically identical to calling :meth:`publish` per event — one
        audit record and one ``published`` count each — except that every
        event is accepted (audited) before the first is delivered.
        """
        batch = list(events)
        if not batch:
            return 0
        audit_note = self._audit.note
        counts = self.stats.cell()
        counts.published += len(batch)
        for event in batch:
            audit_note("broker", "publish", publisher, ALLOWED, event.labels)
        deliver = self._deliver
        return sum(deliver(event, counts) for event in batch)

    # -- delivery ------------------------------------------------------------------

    def _clear_routes(self) -> None:
        """Drop every route, and with them every clearance plan."""
        with self._lock:
            self._routes.clear()
            self._planned = 0

    def _drop_plans(self) -> None:
        """Drop every clearance plan and keep the routes.

        Each route gets a fresh plan dict rather than a cleared one: a
        plan being decided concurrently on the old clearances lands in
        the old dict (see :meth:`_plan`) and is never read.
        """
        with self._lock:
            for route in self._routes.values():
                route.plans = {}
            self._planned = 0

    def _build_route(self, topic: str) -> _Route:
        """Resolve and cache the prepared candidate list for *topic*.

        The subscriptions dict keeps registration order, which is the
        delivery order.
        """
        segments = tuple(topic.strip("/").split("/"))
        with self._lock:
            matched = [
                subscription
                for subscription in self._subscriptions.values()
                if subscription.topic == topic or _matches(subscription.segments, segments)
            ]
            entries = tuple(
                (
                    subscription,
                    subscription.callback,
                    None if subscription.selector is None else subscription.selector.matches,
                    subscription.selector,
                    True,
                )
                for subscription in matched
            )
            route = _Route(entries)
            if len(self._routes) >= _ROUTE_CACHE_LIMIT:
                self._clear_routes()
            self._routes[topic] = route
        return route

    def _plan(self, route: _Route, event: Event) -> Sequence[_RouteEntry]:
        """Decide §4.2 for every candidate of *route* on the event's labels.

        The one place the broker asks :meth:`Subscription.cleared_for`;
        every later event with the same label set on this route replays
        the plan. Inactive and selector-filtered candidates are decided
        too (the decision is pure); the delivery loop skips them first,
        as it always has, so records and counters are unchanged.
        """
        plans = route.plans  # before deciding: a reassignment swaps it out
        plan = tuple(
            (subscription, callback, matches, selector, subscription.cleared_for(event))
            for subscription, callback, matches, selector, _ in route.entries
        )
        with self._lock:
            if plans is route.plans:
                if self._planned >= _PLAN_CACHE_LIMIT:
                    self._drop_plans()
                route.plans[event.labels] = plan
                self._planned += 1
        return plan

    def _deliver(self, event: Event, counts) -> int:
        """Deliver *event*, counting into *counts*, the publishing thread's
        cell: taken by the caller, outside :attr:`_lock`, since a thread's
        first ``cell()`` registers under the counters' own lock."""
        topic = event.topic
        route = self._routes.get(topic)
        if route is None:
            route = self._build_route(topic)
            counts.index_hits += 1
        else:
            counts.route_cache_hits += 1
        entries = route.entries
        counts.candidates += len(entries)
        if not entries:
            return 0
        if not self._label_checks:
            return self._deliver_general(event, entries, counts)
        plans = route.plans
        plan = plans.get(event.labels)
        if plan is None:
            plan = self._plan(route, event)
        return self._deliver_general(event, plan, counts, route, plans)

    def _deliver_general(
        self,
        event: Event,
        plan: Sequence[_RouteEntry],
        counts,
        route: Optional[_Route] = None,
        plans: Optional[Dict[LabelSet, Sequence[_RouteEntry]]] = None,
    ) -> int:
        """Run *plan* (a clearance plan taken from *route*'s *plans*, or
        the route's entries with label checks off) against one event.

        A callback that reassigns a clearance drops the route's plans;
        from then on this publish decides each remaining candidate when
        its turn comes, as a loop without plans would.

        Each audit decision is appended to a local list — a planned one
        is the subscription's prebuilt tuple — and the ``finally`` writes
        them as one fan-out, so a callback error that propagates under
        ``raise_errors`` still leaves every decision made in the log.
        """
        label_checks = self._label_checks
        attributes = event.attributes
        decisions: List[Decision] = []
        delivered = 0
        selector_filtered = 0
        label_filtered = 0
        errors = 0
        # Identical selector objects (shared through the parse cache) are
        # evaluated once per publish, not once per subscription.
        selector_memo: Dict[Selector, bool] = {}
        live = False
        try:
            for subscription, callback, selector_matches, selector, cleared in plan:
                if not subscription.active:
                    continue
                if selector_matches is not None:
                    matched = selector_memo.get(selector)
                    if matched is None:
                        matched = selector_matches(attributes)
                        selector_memo[selector] = matched
                    if not matched:
                        selector_filtered += 1
                        continue
                if live:
                    cleared = subscription.cleared_for(event)
                if not cleared:
                    label_filtered += 1
                    decisions.append(subscription._denied)
                    continue
                try:
                    callback(event)
                    delivered += 1
                    if label_checks:
                        decisions.append(subscription._allowed)
                except Exception as exc:  # noqa: BLE001 - a failing subscriber must not stop others
                    errors += 1
                    decisions.append((subscription.principal, DENIED, f"callback error: {exc!r}"))
                    if self._raise_errors:
                        raise
                if plans is not None and route.plans is not plans:
                    live = True
        finally:
            counts.delivered += delivered
            counts.selector_filtered += selector_filtered
            counts.label_filtered += label_filtered
            counts.errors += errors
            if decisions:
                self._audit.note_fanout("broker", "deliver", event.labels, decisions)
        return delivered
