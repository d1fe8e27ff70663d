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
four layers, none of which weakens a check:

1. candidate subscriptions come from a segment trie
   (:class:`~repro.events.index.TopicTrie`) instead of a linear scan —
   :func:`match_topic` remains as the reference matcher and the property
   suite proves the trie equivalent to it;
2. resolved candidate lists are cached per concrete topic and
   invalidated on any subscribe/unsubscribe;
3. selector evaluation uses compiled closures, and identical selector
   objects (shared via the parse cache) are evaluated once per publish;
4. clearance decisions are memoized per ``(labels, privilege
   generation)`` and audit records are deferred through
   :meth:`~repro.core.audit.AuditLog.note`.

:class:`BrokerStats` exposes ``index_hits`` / ``route_cache_hits`` /
``scans`` so benchmarks (A1/E4) can attribute wins to each layer.
"""

from __future__ import annotations

import itertools
import queue
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.audit import ALLOWED, DENIED, AuditLog, default_audit_log
from repro.core.labels import EMPTY_LABELS, LabelSet
from repro.core.privileges import PrivilegeSet
from repro.events.event import Event
from repro.events.index import TopicTrie
from repro.events.selector import Selector, parse_selector
from repro.exceptions import SafeWebError
from repro.faults import NULL_FAULTS, ChaosInjector

_subscription_ids = itertools.count(1)
_subscription_seq = itertools.count(1)

#: Bound on the topic → candidate-list cache; publishes to more distinct
#: topics than this simply rebuild entries from the trie.
_ROUTE_CACHE_LIMIT = 4096


def match_topic(pattern: str, topic: str) -> bool:
    """Match a subscription pattern against an event topic.

    This is the reference implementation the trie index is proven
    equivalent to; the delivery path itself no longer calls it.
    """
    if pattern == topic:
        return True
    pattern_parts = pattern.strip("/").split("/")
    topic_parts = topic.strip("/").split("/")
    for index, part in enumerate(pattern_parts):
        if part == "#":
            # '#' must be the last pattern segment and match at least one
            # topic segment.
            return index == len(pattern_parts) - 1 and index < len(topic_parts)
        if index >= len(topic_parts):
            return False
        if part != "*" and part != topic_parts[index]:
            return False
    return len(pattern_parts) == len(topic_parts)


@dataclass(slots=True)
class Subscription:
    """A registered subscription with its security context."""

    subscription_id: str
    topic: str
    callback: Callable[[Event], None]
    principal: str
    clearance: PrivilegeSet
    selector: Optional[Selector] = None
    require_integrity: LabelSet = field(default_factory=LabelSet)
    active: bool = True
    #: Pre-split topic segments, computed once at subscribe time.
    segments: Tuple[str, ...] = field(init=False, repr=False, compare=False, default=())
    #: Registration order; delivery iterates subscriptions in this order.
    seq: int = field(init=False, repr=False, compare=False, default=0)
    #: The denial detail is subscription-constant; format it once instead
    #: of per filtered event.
    _denial_detail: str = field(init=False, repr=False, compare=False, default="")

    def __post_init__(self) -> None:
        self.segments = tuple(self.topic.strip("/").split("/"))
        self.seq = next(_subscription_seq)
        self._denial_detail = f"subscription {self.subscription_id} lacks clearance"

    def cleared_for(self, event: Event) -> bool:
        """The §4.2 label check. ``clearance_covers`` memoises per label
        set on the immutable :class:`PrivilegeSet` itself, so assigning a
        new :attr:`clearance` (a grant, a revoke) is all the invalidation
        there is."""
        labels = event.labels
        if not self.clearance.clearance_covers(labels):
            return False
        required = self.require_integrity
        # Label sets are interned: identity spares the common case a
        # Python-level ``__bool__`` per delivery.
        return required is EMPTY_LABELS or labels.meets_integrity(required)


class BrokerStats:
    """Counters used by the throughput benchmarks (E4, A1)."""

    __slots__ = (
        "published",
        "delivered",
        "label_filtered",
        "selector_filtered",
        "errors",
        "index_hits",
        "route_cache_hits",
        "scans",
        "candidates",
    )

    def __init__(self):
        self.published = 0
        self.delivered = 0
        self.label_filtered = 0
        self.selector_filtered = 0
        self.errors = 0
        #: Deliveries whose candidates came from a fresh trie lookup.
        self.index_hits = 0
        #: Deliveries served straight from the per-topic route cache.
        self.route_cache_hits = 0
        #: Deliveries that fell back to the legacy linear scan.
        self.scans = 0
        #: Total candidate subscriptions examined across deliveries.
        self.candidates = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "published": self.published,
            "delivered": self.delivered,
            "label_filtered": self.label_filtered,
            "selector_filtered": self.selector_filtered,
            "errors": self.errors,
            "index_hits": self.index_hits,
            "route_cache_hits": self.route_cache_hits,
            "scans": self.scans,
            "candidates": self.candidates,
        }


#: A prepared candidate: (subscription, callback, compiled selector
#: matcher or None, selector identity for per-publish memoization).
_RouteEntry = Tuple[Subscription, Callable[[Event], None], Optional[Callable], Optional[Selector]]

#: A resolved route: the full candidate entries plus, when no candidate
#: carries a selector, a lean (subscription, callback) list the delivery
#: loop can run without selector bookkeeping.
_Route = Tuple[Sequence[_RouteEntry], Optional[Sequence[Tuple[Subscription, Callable]]]]


class Broker:
    """Topic/content/label-matching event broker.

    ``threaded=False`` (default) delivers synchronously in the
    publisher's thread — deterministic, used by tests and by the engine's
    in-process pipelines. ``threaded=True`` enqueues events and a
    dispatcher thread delivers them, which is how the STOMP server runs
    so that jailed publishers never perform socket I/O themselves.

    ``use_index=False`` routes through the legacy linear scan over
    :func:`match_topic` — kept for the equivalence property tests and as
    an escape hatch; semantics are identical either way.
    """

    def __init__(
        self,
        threaded: bool = False,
        audit: Optional[AuditLog] = None,
        label_checks: bool = True,
        raise_errors: bool = False,
        use_index: bool = True,
        chaos: ChaosInjector = NULL_FAULTS,
    ):
        self._lock = threading.RLock()
        self._subscriptions: Dict[str, Subscription] = {}
        self._audit = audit if audit is not None else default_audit_log()
        # Fault-injection hook (repro.faults); the publish/dispatch hot
        # paths skip instrumentation entirely when nothing is armed.
        self._chaos = chaos
        self._chaos_active = chaos is not NULL_FAULTS
        self._threaded = threaded
        self._label_checks = label_checks
        #: When True (in-process deployments), subscriber exceptions
        #: propagate to the publisher instead of being contained — the
        #: engine relies on this to surface SecurityViolations in tests.
        self._raise_errors = raise_errors
        self._use_index = use_index
        self._index: TopicTrie[Subscription] = TopicTrie()
        self._routes: Dict[str, Sequence[_RouteEntry]] = {}
        self.stats = BrokerStats()
        self._queue: "queue.Queue[object]" = queue.Queue()
        self._dispatcher: Optional[threading.Thread] = None
        if threaded:
            self.start()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        with self._lock:
            if self._dispatcher is not None:
                return
            self._threaded = True
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="safeweb-broker", daemon=True
            )
            self._dispatcher.start()

    def stop(self, timeout: float = 5.0) -> None:
        with self._lock:
            dispatcher = self._dispatcher
            self._dispatcher = None
        if dispatcher is not None:
            self._queue.put(None)
            dispatcher.join(timeout)

    def drain(self, timeout: float = 5.0) -> bool:
        """Block until queued events have been dispatched (threaded mode).

        False when *timeout* ran out first: something queued before the
        call has not been dispatched yet.
        """
        if not self._threaded:
            return True
        done = threading.Event()
        self._queue.put(done)
        return done.wait(timeout)

    @property
    def queue_depth(self) -> int:
        """Publishes the dispatcher has not taken yet (0 when synchronous)."""
        return self._queue.qsize()

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
            self._index.add(
                topic,
                subscription.subscription_id,
                subscription,
                segments=subscription.segments,
            )
            self._routes.clear()
        return subscription

    def unsubscribe(self, subscription_id: str) -> None:
        with self._lock:
            subscription = self._subscriptions.pop(subscription_id, None)
            if subscription is not None:
                self._index.remove(
                    subscription.topic, subscription_id, segments=subscription.segments
                )
                self._routes.clear()
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
        """Publish an event; returns the number of deliveries (sync mode).

        In threaded mode the event is enqueued and the return value is 0;
        delivery counts accumulate in :attr:`stats`.

        A chaos fault at ``broker.publish`` raises *to the publisher*
        before the event is accepted — fail-stop, never silent: the
        caller knows the event did not enter the broker.
        """
        if self._chaos_active:
            self._chaos.hit("broker.publish")
        self.stats.published += 1
        self._audit.note("broker", "publish", publisher, ALLOWED, event.labels)
        if self._threaded:
            self._queue.put(event)
            return 0
        return self._deliver(event)

    def publish_many(self, events: Iterable[Event], publisher: str = "anonymous") -> int:
        """Publish a batch of events; returns total deliveries (sync mode).

        Semantically identical to calling :meth:`publish` per event — one
        audit record and one ``published`` count each — but the batch is
        enqueued as a single item in threaded mode, so the dispatcher
        drains it without per-event queue handoffs.
        """
        batch = list(events)
        if not batch:
            return 0
        stats = self.stats
        audit_note = self._audit.note
        stats.published += len(batch)
        for event in batch:
            audit_note("broker", "publish", publisher, ALLOWED, event.labels)
        if self._threaded:
            self._queue.put(batch)
            return 0
        deliver = self._deliver
        return sum(deliver(event) for event in batch)

    def _dispatch_loop(self) -> None:
        get = self._queue.get
        get_nowait = self._queue.get_nowait
        deliver = self._dispatch_one
        item: object = get()
        while True:
            if item is None:
                return
            if isinstance(item, threading.Event):
                item.set()
            elif isinstance(item, list):
                for event in item:
                    deliver(event)
            else:
                deliver(item)
            # Drain opportunistically so bursts are delivered in batches
            # without a blocking get per event.
            try:
                item = get_nowait()
            except queue.Empty:
                item = get()

    def _dispatch_one(self, event: Event) -> None:
        """One dispatcher delivery; the thread must survive anything.

        ``raise_errors=True`` makes the delivery loops re-raise subscriber
        exceptions so *synchronous* publishers see them — but on the
        dispatcher thread there is no publisher stack, and an uncaught
        exception used to kill the thread silently, stalling every
        subsequent event. Errors are already counted and audited by the
        delivery loop; here they are additionally recorded under
        ``broker/dispatch`` so a surviving-but-noisy dispatcher is
        visible in the log.
        """
        try:
            if self._chaos_active:
                self._chaos.hit("broker.dispatch")
            self._deliver(event)
        except Exception as error:  # noqa: BLE001 - the dispatcher must keep running
            self._audit.note(
                "broker",
                "dispatch",
                "dispatcher",
                DENIED,
                event.labels,
                f"subscriber error contained on dispatcher thread: {error!r}",
            )

    # -- delivery ------------------------------------------------------------------

    def _build_route(self, topic: str) -> _Route:
        """Resolve and cache the prepared candidate list for *topic*."""
        with self._lock:
            if self._use_index:
                matched = self._index.match(topic)
                self.stats.index_hits += 1
            else:
                matched = [
                    subscription
                    for subscription in self._subscriptions.values()
                    if match_topic(subscription.topic, topic)
                ]
                self.stats.scans += 1
            matched.sort(key=lambda subscription: subscription.seq)
            entries = tuple(
                (
                    subscription,
                    subscription.callback,
                    None if subscription.selector is None else subscription.selector.matches,
                    subscription.selector,
                )
                for subscription in matched
            )
            # The lean loop only runs with label checks off, so don't
            # build (or scan for) the plain variant otherwise.
            plain: Optional[Tuple[Tuple[Subscription, Callable], ...]] = None
            if not self._label_checks and all(
                subscription.selector is None for subscription in matched
            ):
                plain = tuple(
                    (subscription, subscription.callback) for subscription in matched
                )
            route: _Route = (entries, plain)
            if len(self._routes) >= _ROUTE_CACHE_LIMIT:
                self._routes.clear()
            self._routes[topic] = route
        return route

    def _deliver(self, event: Event) -> int:
        topic = event.topic
        route = self._routes.get(topic)
        if route is None:
            route = self._build_route(topic)
        else:
            self.stats.route_cache_hits += 1
        entries, plain = route
        stats = self.stats
        stats.candidates += len(entries)
        if not entries:
            return 0
        if plain is not None and not self._label_checks:
            return self._deliver_plain(event, plain)
        return self._deliver_general(event, entries)

    def _deliver_plain(
        self, event: Event, plain: Sequence[Tuple[Subscription, Callable]]
    ) -> int:
        """Delivery with no selectors and label checks off: pure fan-out."""
        stats = self.stats
        delivered = 0
        try:
            for subscription, callback in plain:
                if not subscription.active:
                    continue
                try:
                    callback(event)
                    delivered += 1
                except Exception as exc:  # noqa: BLE001 - a failing subscriber must not stop others
                    stats.errors += 1
                    self._audit.note(
                        "broker",
                        "deliver",
                        subscription.principal,
                        DENIED,
                        event.labels,
                        f"callback error: {exc!r}",
                    )
                    if self._raise_errors:
                        raise
        finally:
            stats.delivered += delivered
        return delivered

    def _deliver_general(self, event: Event, entries: Sequence[_RouteEntry]) -> int:
        stats = self.stats
        label_checks = self._label_checks
        attributes = event.attributes
        labels = event.labels
        audit_note = self._audit.note
        delivered = 0
        selector_filtered = 0
        label_filtered = 0
        # Identical selector objects (shared through the parse cache) are
        # evaluated once per publish, not once per subscription.
        selector_memo: Dict[Selector, bool] = {}
        try:
            for subscription, callback, selector_matches, selector in entries:
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
                if label_checks and not subscription.cleared_for(event):
                    label_filtered += 1
                    audit_note(
                        "broker",
                        "deliver",
                        subscription.principal,
                        DENIED,
                        labels,
                        subscription._denial_detail,
                    )
                    continue
                try:
                    callback(event)
                    delivered += 1
                    if label_checks:
                        audit_note("broker", "deliver", subscription.principal, ALLOWED, labels)
                except Exception as exc:  # noqa: BLE001 - a failing subscriber must not stop others
                    stats.errors += 1
                    audit_note(
                        "broker",
                        "deliver",
                        subscription.principal,
                        DENIED,
                        labels,
                        f"callback error: {exc!r}",
                    )
                    if self._raise_errors:
                        raise
        finally:
            stats.delivered += delivered
            stats.selector_filtered += selector_filtered
            stats.label_filtered += label_filtered
        return delivered
