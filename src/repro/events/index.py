"""Topic subscription index: a segment trie with wildcard nodes (§4.2).

The seed broker compared one pattern against one topic at a time, in
O(segments). With N subscriptions a publish therefore cost
O(N · segments). This module replaces that linear scan with a trie keyed by topic segment so a
publish visits only the nodes reachable from the event's topic —
O(segments) for the common exact-topic case, independent of N.

Pattern language (the seed matcher's, kept in ``tests/reference/topics.py``
and held equal by ``tests/property/test_topic_index.py``):

* a literal segment matches itself;
* ``*`` matches exactly one segment of any value;
* a **trailing** ``#`` matches one or more remaining segments;
* a pattern whose raw string equals the topic always matches — which is
  only observable for degenerate patterns with a non-final ``#``
  (``/#/a``), since every other pattern already matches itself
  segment-wise. Such patterns live in a side table keyed by their raw
  string rather than in the trie.

Values are opaque to the index; the broker stores
:class:`~repro.events.broker.Subscription` objects keyed by their
subscription id. The trie itself is not synchronised — the broker calls
it under its own lock.
"""

from __future__ import annotations

from typing import Dict, Generic, List, Optional, Tuple, TypeVar

V = TypeVar("V")

#: Segment wildcards, named for readability at call sites.
ONE_SEGMENT = "*"
MANY_SEGMENTS = "#"


def split_topic(topic: str) -> Tuple[str, ...]:
    """Split a topic or pattern exactly like the reference matcher."""
    return tuple(topic.strip("/").split("/"))


class _TrieNode(Generic[V]):
    __slots__ = ("children", "star", "terminal", "many")

    def __init__(self) -> None:
        self.children: Dict[str, "_TrieNode[V]"] = {}
        self.star: Optional["_TrieNode[V]"] = None
        #: Values whose pattern ends exactly at this node.
        self.terminal: Dict[str, V] = {}
        #: Values whose pattern ends with ``#`` anchored at this node
        #: (matching one *or more* further segments).
        self.many: Dict[str, V] = {}

    def is_empty(self) -> bool:
        return not (self.children or self.star or self.terminal or self.many)


class TopicTrie(Generic[V]):
    """A wildcard-aware subscription index over topic patterns."""

    def __init__(self) -> None:
        self._root: _TrieNode[V] = _TrieNode()
        #: Patterns with a non-final ``#`` match only their own raw string.
        self._degenerate: Dict[str, Dict[str, V]] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # -- mutation ----------------------------------------------------------

    def add(
        self,
        pattern: str,
        key: str,
        value: V,
        segments: Optional[Tuple[str, ...]] = None,
    ) -> None:
        """Index *value* under *pattern*; *key* must be unique per entry.

        Callers that already hold the pattern pre-split (subscriptions
        store their segments) pass *segments* to skip re-splitting.
        """
        if segments is None:
            segments = split_topic(pattern)
        if MANY_SEGMENTS in segments[:-1]:
            self._degenerate.setdefault(pattern, {})[key] = value
            self._size += 1
            return
        trailing_many = segments[-1] == MANY_SEGMENTS
        if trailing_many:
            segments = segments[:-1]
        node = self._root
        for segment in segments:
            if segment == ONE_SEGMENT:
                if node.star is None:
                    node.star = _TrieNode()
                node = node.star
            else:
                child = node.children.get(segment)
                if child is None:
                    child = node.children[segment] = _TrieNode()
                node = child
        bucket = node.many if trailing_many else node.terminal
        bucket[key] = value
        self._size += 1

    def remove(
        self,
        pattern: str,
        key: str,
        segments: Optional[Tuple[str, ...]] = None,
    ) -> Optional[V]:
        """Drop the entry for (*pattern*, *key*), pruning empty nodes."""
        if segments is None:
            segments = split_topic(pattern)
        if MANY_SEGMENTS in segments[:-1]:
            bucket = self._degenerate.get(pattern)
            if bucket is None:
                return None
            value = bucket.pop(key, None)
            if value is not None:
                self._size -= 1
            if not bucket:
                del self._degenerate[pattern]
            return value
        trailing_many = segments[-1] == MANY_SEGMENTS
        if trailing_many:
            segments = segments[:-1]
        path: List[Tuple[_TrieNode[V], str]] = []
        node = self._root
        for segment in segments:
            next_node = node.star if segment == ONE_SEGMENT else node.children.get(segment)
            if next_node is None:
                return None
            path.append((node, segment))
            node = next_node
        bucket = node.many if trailing_many else node.terminal
        value = bucket.pop(key, None)
        if value is None:
            return None
        self._size -= 1
        # Prune now-empty nodes bottom-up so churny pattern sets do not
        # leave dead branches behind.
        for parent, segment in reversed(path):
            if not node.is_empty():
                break
            if segment == ONE_SEGMENT:
                parent.star = None
            else:
                del parent.children[segment]
            node = parent
        return value

    # -- lookup ------------------------------------------------------------

    def match(self, topic: str) -> List[V]:
        """All values whose pattern matches *topic* (arbitrary order)."""
        segments = split_topic(topic)
        length = len(segments)
        results: List[V] = []
        # Iterative DFS over (node, consumed-segment-count). The frontier
        # stays small: one branch per ``*`` wildcard along the topic.
        stack: List[Tuple[_TrieNode[V], int]] = [(self._root, 0)]
        while stack:
            node, consumed = stack.pop()
            if node.many and consumed < length:
                # ``#`` must swallow at least one remaining segment.
                results.extend(node.many.values())
            if consumed == length:
                if node.terminal:
                    results.extend(node.terminal.values())
                continue
            segment = segments[consumed]
            child = node.children.get(segment)
            if child is not None:
                stack.append((child, consumed + 1))
            if node.star is not None:
                stack.append((node.star, consumed + 1))
        degenerate = self._degenerate.get(topic)
        if degenerate:
            results.extend(degenerate.values())
        return results
