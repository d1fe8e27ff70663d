"""Property tests: the broker's trie routing is exactly the seed linear scan.

The broker's delivery path replaced the O(N) scan over the seed matcher
(``tests/reference/topics.py``) with a segment trie
(:mod:`repro.events.index`) plus a per-topic route cache. These
properties prove the replacement changes nothing observable: for
arbitrary patterns and topics — including ``*``, trailing ``#``, the
"``#`` must match at least one segment" rule and degenerate
non-final-``#`` patterns — the trie selects the subscriptions the seed
matcher selects, and the broker delivers exactly what the seed matcher,
each subscription's selector and its clearance imply, in registration
order, with the audit decisions that implies.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.audit import AuditLog
from repro.core.labels import LabelSet, conf_label
from repro.core.privileges import CLEARANCE, PrivilegeSet
from repro.events.broker import Broker
from repro.events.event import Event
from repro.events.index import TopicTrie
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


class TestTrieEquivalence:
    @given(st.lists(patterns, min_size=1, max_size=12), topics)
    def test_trie_matches_reference_matcher(self, pattern_list, topic):
        trie = TopicTrie()
        for index, pattern in enumerate(pattern_list):
            trie.add(pattern, str(index), index)
        expected = {
            index
            for index, pattern in enumerate(pattern_list)
            if match_topic(pattern, topic)
        }
        assert set(trie.match(topic)) == expected

    @given(st.lists(patterns, min_size=1, max_size=12))
    def test_trie_matches_pattern_as_its_own_topic(self, pattern_list):
        # Exercises the raw-equality shortcut, which is the only way a
        # degenerate non-final-# pattern ever matches.
        trie = TopicTrie()
        for index, pattern in enumerate(pattern_list):
            trie.add(pattern, str(index), index)
        for topic in pattern_list:
            expected = {
                index
                for index, pattern in enumerate(pattern_list)
                if match_topic(pattern, topic)
            }
            assert set(trie.match(topic)) == expected

    @given(
        st.lists(st.tuples(patterns, st.booleans()), min_size=1, max_size=10),
        st.lists(topics, min_size=1, max_size=6),
    )
    def test_removal_keeps_equivalence(self, subscriptions, topic_list):
        trie = TopicTrie()
        for index, (pattern, _) in enumerate(subscriptions):
            trie.add(pattern, str(index), index)
        kept = {}
        for index, (pattern, keep) in enumerate(subscriptions):
            if keep:
                kept[index] = pattern
            else:
                assert trie.remove(pattern, str(index)) == index
        assert len(trie) == len(kept)
        for topic in topic_list:
            expected = {
                index for index, pattern in kept.items() if match_topic(pattern, topic)
            }
            assert set(trie.match(topic)) == expected


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
