"""Property tests: the broker's topic routing is exactly the seed matcher.

The broker finds a topic's candidate subscriptions with one pass over its
subscriptions in registration order (a raw-equality test, then the
segment rules) and caches the answer per topic until the next subscribe
or unsubscribe; the seed matcher it is held to is
``tests/reference/topics.py``. :class:`TestRouteEquivalence` subscribes
arbitrary patterns — ``*``, trailing ``#``, the "``#`` must match at
least one segment" rule and degenerate non-final-``#`` patterns —
publishes unlabelled events, and compares the delivered subscription
ids, in order, with the seed matcher's, before and after unsubscribes.
:class:`TestBrokerEquivalence` checks the full delivery semantics: the
broker delivers exactly what the seed matcher, each subscription's
selector and its clearance imply, in registration order, with the audit
decisions that implies.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.audit import AuditLog
from repro.core.labels import LabelSet, conf_label
from repro.core.privileges import CLEARANCE, PrivilegeSet
from repro.events.broker import Broker
from repro.events.event import Event
from tests.reference.topics import match_topic

# Small alphabets maximise collisions between patterns and topics, which
# is where matching bugs live.
_LITERALS = ("a", "b", "c", "x1")
_pattern_segments = st.lists(
    st.sampled_from(_LITERALS + ("*", "#")), min_size=1, max_size=4
)
_topic_segments = st.lists(st.sampled_from(_LITERALS + ("*", "#")), min_size=1, max_size=5)

patterns = _pattern_segments.map(lambda parts: "/" + "/".join(parts))
topics = _topic_segments.map(lambda parts: "/" + "/".join(parts))

PATIENT = conf_label("ecric.org.uk", "patient", "1")
MDT = conf_label("ecric.org.uk", "mdt")


def _subscribe(broker, delivered, index, pattern):
    """Subscribe *pattern* as ``sub-<index>``, recording its deliveries."""
    sid = f"sub-{index}"
    return broker.subscribe(pattern, lambda event: delivered.append(sid), subscription_id=sid)


def _recording_broker(pattern_list):
    """A broker with one subscription per pattern, in order, and the list
    its callbacks append their ids to."""
    broker = Broker(audit=AuditLog())
    delivered = []
    subscriptions = [
        _subscribe(broker, delivered, index, pattern)
        for index, pattern in enumerate(pattern_list)
    ]
    return broker, subscriptions, delivered


def _delivered_ids(broker, delivered, topic):
    """The subscription ids an unlabelled publish to *topic* reaches, in
    order. With no selectors and no labels every candidate is delivered
    to, so the route holds exactly those subscriptions."""
    delivered.clear()
    candidates = broker.stats.candidates
    count = broker.publish(Event(topic))
    assert count == len(delivered) == broker.stats.candidates - candidates
    return list(delivered)


def _expected_ids(subscriptions, topic):
    return [
        subscription.subscription_id
        for subscription in subscriptions
        if match_topic(subscription.topic, topic)
    ]


class TestRouteEquivalence:
    """The broker's routes select exactly what the seed matcher selects,
    in registration order."""

    @settings(deadline=None)
    @given(st.lists(patterns, min_size=1, max_size=12), topics)
    def test_routes_match_reference_matcher(self, pattern_list, topic):
        broker, subscriptions, delivered = _recording_broker([])
        for index, pattern in enumerate(pattern_list):
            # Each subscribe drops the route the previous publish cached.
            subscriptions.append(_subscribe(broker, delivered, index, pattern))
            expected = _expected_ids(subscriptions, topic)
            assert _delivered_ids(broker, delivered, topic) == expected
        # The last publish is served from the route cache.
        assert _delivered_ids(broker, delivered, topic) == expected

    @settings(deadline=None)
    @given(st.lists(patterns, min_size=1, max_size=12))
    def test_routes_match_pattern_as_its_own_topic(self, pattern_list):
        # Exercises the raw-equality rule, which is the only way a
        # degenerate non-final-# pattern ever matches.
        broker, subscriptions, delivered = _recording_broker(pattern_list)
        for topic in pattern_list:
            assert _delivered_ids(broker, delivered, topic) == _expected_ids(
                subscriptions, topic
            )

    @settings(deadline=None)
    @given(
        st.lists(st.tuples(patterns, st.booleans()), min_size=1, max_size=10),
        st.lists(topics, min_size=1, max_size=6),
    )
    def test_unsubscribe_keeps_equivalence(self, specs, topic_list):
        broker, subscriptions, delivered = _recording_broker(
            [pattern for pattern, _ in specs]
        )
        for topic in topic_list:  # cache a route per topic before the removals
            _delivered_ids(broker, delivered, topic)
        kept = []
        for subscription, (_, keep) in zip(subscriptions, specs):
            if keep:
                kept.append(subscription)
            else:
                broker.unsubscribe(subscription.subscription_id)
                assert not subscription.active
        assert len(broker) == len(kept)
        for topic in topic_list:
            assert _delivered_ids(broker, delivered, topic) == _expected_ids(kept, topic)


_SELECTORS = (None, "kind = 'cancer'", "stage > 1", "kind = 'cancer' AND stage > 1")
_CLEARANCES = (
    PrivilegeSet.empty(),
    PrivilegeSet({CLEARANCE: [PATIENT]}),
    PrivilegeSet({CLEARANCE: [PATIENT, MDT]}),
)
#: The labels each clearance above covers, spelled out for the expectation.
_CLEARED_FOR = (frozenset(), frozenset([PATIENT]), frozenset([PATIENT, MDT]))
_LABEL_CHOICES = (LabelSet(), LabelSet([PATIENT]), LabelSet([PATIENT, MDT]))
_ATTRIBUTE_CHOICES = (
    {},
    {"kind": "cancer", "stage": "1"},
    {"kind": "cancer", "stage": "2"},
    {"kind": "benign", "stage": "3"},
)

subscription_specs = st.tuples(
    patterns,
    st.integers(0, len(_SELECTORS) - 1),
    st.integers(0, len(_CLEARANCES) - 1),
)
event_specs = st.tuples(
    topics,
    st.integers(0, len(_ATTRIBUTE_CHOICES) - 1),
    st.integers(0, len(_LABEL_CHOICES) - 1),
)


class TestBrokerEquivalence:
    """Full delivery semantics: topic, selector, labels, order, audit."""

    @settings(deadline=None)
    @given(
        st.lists(subscription_specs, min_size=1, max_size=8),
        st.lists(event_specs, min_size=1, max_size=8),
    )
    def test_delivery_equals_seed_semantics(self, sub_specs, ev_specs):
        """The one broker against a test-side expectation: the seed matcher
        picks the topic's subscriptions, each one's selector and then its
        clearance filter them, survivors are called in registration order."""
        audit = AuditLog()
        broker = Broker(audit=audit)
        delivered_log = []
        subscriptions = [
            broker.subscribe(
                pattern,
                lambda event, index=index: delivered_log.append((index, event)),
                principal=f"unit-{index}",
                clearance=_CLEARANCES[clr_index],
                selector=_SELECTORS[sel_index],
                subscription_id=f"sub-{index}",
            )
            for index, (pattern, sel_index, clr_index) in enumerate(sub_specs)
        ]

        expected_log = []
        expected_audit = Counter()
        for topic, attr_index, label_index in ev_specs:
            labels = _LABEL_CHOICES[label_index]
            event = Event(topic, _ATTRIBUTE_CHOICES[attr_index], labels=labels)
            expected_audit["broker", "publish", "anonymous", "allowed", labels] += 1
            deliveries = 0
            for index, subscription in enumerate(subscriptions):
                if not match_topic(subscription.topic, topic):
                    continue
                selector = subscription.selector
                if selector is not None and not selector.matches(event.attributes):
                    continue
                if not set(labels) <= _CLEARED_FOR[sub_specs[index][2]]:
                    expected_audit["broker", "deliver", f"unit-{index}", "denied", labels] += 1
                    continue
                expected_audit["broker", "deliver", f"unit-{index}", "allowed", labels] += 1
                expected_log.append((index, event))
                deliveries += 1
            assert broker.publish(event) == deliveries

        assert [(index, id(event)) for index, event in delivered_log] == [
            (index, id(event)) for index, event in expected_log
        ]
        assert Counter(
            (record.component, record.operation, record.principal, record.decision, record.labels)
            for record in audit.records()
        ) == expected_audit
        stats = broker.stats.snapshot()
        assert stats["published"] == len(ev_specs)
        assert stats["index_hits"] + stats["route_cache_hits"] == len(ev_specs)
